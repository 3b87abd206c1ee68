"""Cross-checks between the fraction-free engines and the dense field engine."""

import itertools
import math
import os
import pickle
import random
from fractions import Fraction

import pytest

from gvir import linalg, scalars
from gvir.linalg import Echelon, _primitive, det, kernel_basis, symbolic_rank
from gvir.scalars import Context, ExactDivisionError, Poly, Scalar, ScalarDivisionError, _gcd_many, _norm_coeff
from oracles import field_rank, field_rref, minor_gcd_by_enumeration, packed_reference, packed_up_to_sign


def _ctx():
    return Context.of_rank(2)


def _sparse(reg, dense):
    """Sparse rows {column: Poly} of a dense matrix of ints, Fractions or
    Polys, zero entries dropped: the one input format of `linalg`."""
    rows = []
    for entries in dense:
        polys = (v if isinstance(v, Poly) else Poly.const(reg, v) for v in entries)
        rows.append({j: p for j, p in enumerate(polys) if not p.is_zero()})
    return rows


def _rand_poly(ctx, rng, maxdeg=1, maxc=4):
    reg = ctx.reg
    p = Poly.zero(reg)
    for _ in range(rng.randint(0, 2)):
        e = [0] * len(reg)
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randint(0, 1)] += 1
        p = p + Poly.monomial(reg, tuple(e), rng.randint(-maxc, maxc))
    return p


def _perm_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def _engine_ranks(reg, rows, ncols):
    """Ranks from `symbolic_rank` and from an `Echelon` fed every row."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
    return symbolic_rank(reg, rows), ech.rank


def test_rank_matches_field_oracle_int():
    ctx = _ctx()
    rng = random.Random(31415)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.choice([0, 0, 1, -1, rng.randint(-5, 5)]) for _ in range(n)] for _ in range(m)]
        rows = _sparse(ctx.reg, dense)
        r = field_rank(ctx.reg, rows, n)
        assert _engine_ranks(ctx.reg, rows, n) == (r, r)


def test_rank_matches_field_oracle_poly():
    ctx = _ctx()
    rng = random.Random(999)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = []
        for _ in range(m):
            row = {}
            for j in range(n):
                p = _rand_poly(ctx, rng)
                if not p.is_zero():
                    row[j] = p
            rows.append(row)
        # Echelon only: symbolic_rank raises the delayed-divisor
        # ExactDivisionError on one of these matrices (see the strict-xfail
        # tests below)
        ech = Echelon(n)
        for row in rows:
            ech.add_row(row)
        assert ech.rank == field_rank(ctx.reg, rows, n)


def test_rank_with_forced_dependencies():
    ctx = _ctx()
    rng = random.Random(2718)
    for _ in range(100):
        n = rng.randint(2, 5)
        base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(2)]
        # every extra row is an integer combination of the two base rows
        combos = [
            [a * base[0][j] + b * base[1][j] for j in range(n)]
            for a, b in [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        ]
        rows = _sparse(ctx.reg, base + combos)
        rng.shuffle(rows)
        r = field_rank(ctx.reg, rows, n)
        assert r <= 2
        assert _engine_ranks(ctx.reg, rows, n) == (r, r)


def test_echelon_rows_stay_semi_echelon():
    # each packed pivot row holds its pivot column and is zero on the pivot
    # column of every row kept before it: each step of the forward
    # elimination clears its column from the rows that come after it
    ctx = _ctx()
    rng = random.Random(404)
    for case in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        if case % 2:
            rows = _sparse(ctx.reg, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        else:
            rows = [{j: p for j in range(n) if not (p := _rand_poly(ctx, rng)).is_zero()} for _ in range(m)]
        ech = Echelon(n)
        for row in rows:
            ech.add_row(row)
        for i, (pc, row) in enumerate(ech.rows):
            assert pc in row and all(row.values())
            for pc2, _ in ech.rows[:i]:
                assert pc2 not in row
        assert ech.rank == field_rank(ctx.reg, rows, n)


def test_echelon_grows_exactly_when_field_rank_grows():
    # Poly rows in one or two variables; about half of the rows are
    # polynomial combinations of earlier rows and must not grow the rank
    ctx = _ctx()
    reg = ctx.reg
    rng = random.Random(5150)
    for _ in range(40):
        nv, n = rng.randint(1, 2), rng.randint(1, 4)

        def poly():
            p = Poly.zero(reg)
            for _ in range(rng.randint(0, 2)):
                e = [0] * len(reg)
                for _ in range(rng.randint(0, 2)):
                    e[rng.randrange(nv)] += 1
                p = p + Poly.monomial(reg, tuple(e), rng.randint(-3, 3))
            return p

        rows = []
        ech = Echelon(n)
        for _ in range(rng.randint(2, 6)):
            if rows and rng.random() < 0.5:
                row = {}
                for earlier in rng.sample(rows, min(2, len(rows))):
                    f = poly()
                    for j, v in earlier.items():
                        row[j] = row.get(j, Poly.zero(reg)) + f * v
                row = {j: v for j, v in row.items() if not v.is_zero()}
            else:
                row = {j: p for j, p in enumerate(poly() for _ in range(n)) if not p.is_zero()}
            before = field_rank(reg, rows, n)
            rows.append(row)
            assert ech.add_row(row) == (field_rank(reg, rows, n) > before)
        assert ech.rank == field_rank(reg, rows, n)


def test_kernel_vectors_annihilate():
    ctx = _ctx()
    rng = random.Random(161803)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = []
        for _ in range(m):
            row = {}
            for j in range(n):
                p = _rand_poly(ctx, rng)
                if not p.is_zero():
                    row[j] = p
            rows.append(row)
        rank = field_rank(ctx.reg, rows, n)
        kern = kernel_basis(ctx.reg, rows, n)
        assert rank + len(kern) == n
        for vec in kern:
            assert any(not p.is_zero() for p in vec)
            for row in rows:
                acc = Poly.zero(ctx.reg)
                for j, p in row.items():
                    acc = acc + p * vec[j]
                assert acc.is_zero()
        # kernel vectors are primitive: no common polynomial or rational factor
        for vec in kern:
            nz = [p for p in vec if not p.is_zero()]
            from gvir.scalars import _gcd_many

            assert _gcd_many(nz).is_const()


def test_det_matches_permutation_oracle():
    ctx = _ctx()
    rng = random.Random(555)
    for _ in range(120):
        n = rng.randint(1, 4)
        dense = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det(ctx.reg, _sparse(ctx.reg, dense))
        assert d.is_const() or d.is_zero()
        got = Fraction(d.const_value()) if not d.is_zero() else Fraction(0)
        assert got == _perm_det(dense)


def _inversions(perm):
    return sum(1 for a, b in itertools.combinations(perm, 2) if a > b)


def test_det_sign_follows_the_pivot_columns():
    # the last pivot of the forward elimination is the determinant of the
    # columns in pivot order, so det must multiply it by that order's sign;
    # a wrong parity fails on the odd permutation matrices and on the seeded
    # matrices whose pivots leave column order
    reg = Context.of_rank(3).reg
    one = Poly.const(reg, 1)
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            rows = [{perm[i]: one} for i in range(n)]
            assert det(reg, rows) == Poly.const(reg, (-1) ** _inversions(perm))
    rng = random.Random(1968)
    parities = set()
    for case in range(80):
        n = rng.randint(2, 5)
        if case % 2:
            dense = [[rng.choice([0, 0, 1, -1, rng.randint(-5, 5)]) for _ in range(n)] for _ in range(n)]
            rows = _sparse(reg, dense)
            assert det(reg, rows) == Poly.const(reg, _perm_det(dense))
        else:
            dense = [
                [Poly.zero(reg) if rng.random() < 0.3 else _sparse_poly(reg, rng, 2, 1, case % 4 == 0) for _ in range(n)]
                for _ in range(n)
            ]
            rows = _sparse(reg, dense)
            assert det(reg, rows) == _perm_det_poly(reg, dense)
        ech = Echelon(n)
        if all(ech.add_row(row) for row in rows):
            parities.add(_inversions([c for c, _ in ech.rows]) % 2)
    assert parities == {0, 1}


def test_raw_poly_with_integral_fractions_gives_the_normal_results():
    # Poly() takes its terms as they come, so Fraction(2, 1) can stand where
    # _norm_coeff would give 2; every result must be the normal form's
    reg = Context.of_rank(3).reg
    rng = random.Random(2101)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except ExactDivisionError:
            return ExactDivisionError

    for case in range(80):
        rows, ncols = _sparse_matrix(reg, rng, 1 + case % 3, 2, case % 4 == 0, 4, 2)
        raw = [{j: Poly(reg, {e: Fraction(c) for e, c in p.terms.items()}) for j, p in row.items()} for row in rows]
        for row, raw_row in zip(rows, raw):
            for j, p in row.items():
                q = raw_row[j]
                assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert outcome(symbolic_rank, reg, raw) == outcome(symbolic_rank, reg, rows)
        got, expect = kernel_basis(reg, raw, ncols), kernel_basis(reg, rows, ncols)
        assert got == expect and [list(map(str, v)) for v in got] == [list(map(str, v)) for v in expect]
        n = min(len(rows), ncols)
        square = [{j: p for j, p in row.items() if j < n} for row in rows[:n]]
        raw_square = [{j: p for j, p in row.items() if j < n} for row in raw[:n]]
        d = det(reg, raw_square)
        assert d == det(reg, square) and str(d) == str(det(reg, square))
        echelons = Echelon(ncols), Echelon(ncols)
        for row, raw_row in zip(rows, raw):
            assert echelons[0].add_row(raw_row) == echelons[1].add_row(row)


def test_det_symbolic_vandermonde():
    ctx = Context.of_rank(3)
    g = [Poly.symbol(ctx.reg, n) for n in ctx.gen_names]
    one = Poly.const(ctx.reg, 1)
    rows = _sparse(ctx.reg, [[one, gi, gi * gi] for gi in g])
    d = det(ctx.reg, rows)
    expect = (g[1] - g[0]) * (g[2] - g[0]) * (g[2] - g[1])
    assert d == expect


def test_det_singular_and_empty():
    ctx = _ctx()
    reg = ctx.reg
    g1 = Poly.symbol(reg, "g1")
    rows = [{0: g1, 1: g1}, {0: g1, 1: g1}]
    assert det(reg, rows).is_zero()
    assert det(reg, []) == Poly.const(reg, 1)
    # one row: its entry, or zero for an empty row
    assert det(reg, [{0: g1}]) == g1
    assert det(reg, [{}]).is_zero()
    assert det(reg, [{}, {0: g1, 1: g1}]).is_zero()
    # the size is len(rows): a column index outside range(len(rows)) is not
    # a square matrix
    for bad in (
        [{0: g1, 2: g1}, {1: g1}],
        [{1: g1}],
        [{0: g1}, {0: g1, 1: g1}, {3: g1}],
        [{-1: g1}, {0: g1}],
    ):
        with pytest.raises(ValueError, match="must be square"):
            det(reg, bad)


def _prepare_row(row, unit_var=None):
    """One row {col: Poly} through `_Prepared`, read back as Polys: the
    stripped row and its degree top, or ({}, None) for a row that vanishes.
    The prepared terms are laid out in the fields that hold the row's
    exponents, which hold every degree top."""
    if not row:
        return {}, None
    reg = next(iter(row.values())).reg
    prep = linalg._Prepared(len(reg), [row], unit_var)
    if not prep.rows:
        return {}, None
    pk = scalars._fit(len(reg), row.values())
    (packed,) = prep.pack(pk)
    return {j: pk.unpack(reg, terms) for j, terms in packed.items()}, prep.tops[0]


def _up_to_sign(got, expect):
    """Whether a row is expect or expect negated: one sign for the row."""
    return got == expect or got == {j: -p for j, p in expect.items()}


def test_prepare_row_removes_common_factor():
    ctx = _ctx()
    g1 = Poly.symbol(ctx.reg, "g1")
    g2 = Poly.symbol(ctx.reg, "g2")
    two = Poly.const(ctx.reg, 2)
    row = {0: two * g1 * g2, 2: two * g1 * (g1 + g2)}
    out, top = _prepare_row(row)
    assert out[0] == g2 and out[2] == g1 + g2
    assert top[:2] == [1, 1]
    # a lone entry is its own monomial gcd and content; its sign stays
    row = {1: -(two * g1)}
    out, _ = _prepare_row(row)
    assert out == {1: Poly.const(ctx.reg, -1)}
    # the content is positive, so a row keeps its sign (`_primitive` signs
    # kernel vectors; see test_primitive_vectors_are_canonical)
    row = {0: -(two * g1), 1: two * g2}
    out, _ = _prepare_row(row)
    assert out[0] == -g1 and out[1] == g2
    assert _prepare_row({}) == ({}, None)
    assert _prepare_row({0: Poly.zero(ctx.reg)}) == ({}, None)


def test_prepare_row_keeps_non_monomial_common_factor():
    # only the monomial gcd and the rational content go: a common factor
    # that is not a monomial cannot change a rank over the fraction field
    ctx = _ctx()
    g1 = Poly.symbol(ctx.reg, "g1")
    g2 = Poly.symbol(ctx.reg, "g2")
    one = Poly.const(ctx.reg, 1)
    f = g1 + one
    row = {0: f.scale(-2), 3: (f * g2).scale(4), 5: (f * g1 * g2).scale(6)}
    out, _ = _prepare_row(row)
    assert out == {0: -f, 3: (f * g2).scale(2), 5: (f * g1 * g2).scale(3)}
    # a monomial and a non-monomial factor together: the monomial goes
    row = {1: f * g1 * g2, 2: (f * g1 * g1).scale(Fraction(1, 2))}
    out, _ = _prepare_row(row)
    assert out == {1: (f * g2).scale(2), 2: f * g1}
    for r in (row, out):
        assert _up_to_sign(_prepare_row(dict(r))[0], _reference_strip_row(dict(r)))


def test_primitive_vectors_are_canonical():
    ctx = _ctx()
    reg = ctx.reg
    g1 = Poly.symbol(reg, "g1")
    g2 = Poly.symbol(reg, "g2")
    zero, two = Poly.zero(reg), Poly.const(reg, 2)
    f = g1 + Poly.const(reg, 1)
    # the first nonzero entry gets a positive graded-lex lead
    assert _primitive([zero, -(two * g1), two * g2]) == (zero, g1, -g2)
    assert _primitive([-(two * g1)]) == (Poly.const(reg, 1),)
    # the gcd of the entries goes, then the rational content
    vec = [f.scale(-2), (f * g2).scale(4), (f * g1 * g2).scale(6)]
    assert _primitive(vec) == (Poly.const(reg, 1), g2.scale(-2), (g1 * g2).scale(-3))
    assert _primitive([g1.scale(Fraction(-1, 2)), (g1 * g1).scale(Fraction(3, 4))]) == (
        Poly.const(reg, 2), g1.scale(-3))
    # every kernel vector of the seeded matrices is in that form, which a
    # nonzero rational or polynomial multiple of it shares
    reg, cases = _kernel_corpus()
    vectors = [v for rows, ncols in cases for v in kernel_basis(reg, rows, ncols)]
    assert len(vectors) > 50
    scale = Poly.symbol(reg, "g2").scale(Fraction(-3, 2))
    factor = Poly.symbol(reg, "g1") + Poly.const(reg, 3)
    signs = set()
    for vec in vectors:
        nonzero = [p for p in vec if not p.is_zero()]
        assert _gcd_many(nonzero) == Poly.const(reg, 1)
        coeffs = [c for p in nonzero for c in p.terms.values()]
        assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
        assert nonzero[0].lead()[1] > 0
        assert _primitive(vec) == vec
        assert _primitive([p * scale for p in vec]) == vec
        assert _primitive([p * factor for p in vec]) == vec
        signs.add(any(p.lead()[1] < 0 for p in nonzero))
    # some vectors hold an entry of negative lead: the sign is not trivially 1
    assert signs == {False, True}


def test_field_rref_shape():
    ctx = _ctx()
    rows = _sparse(ctx.reg, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rank, pivots, rref = field_rref(ctx.reg, rows, 3)
    assert rank == 2 and pivots == [0, 1]
    # pivot columns are unit columns
    for i, pc in enumerate(pivots):
        assert rref[i][pc].is_one()
        for k in range(rank):
            if k != i:
                assert rref[k][pc].is_zero()


# -- symbolic_rank and det on the packed-term kernel --------------------------


def _reference_strip_row(row):
    """Monomial-gcd and rational-content strip with a positive leading
    coefficient in the first column; a frozen copy of the strip that the
    row preparation applied when it still signed rows."""
    if not row:
        return row
    m = tuple(map(min, zip(*(e for p in row.values() for e in p.terms))))
    row = {j: Poly(p.reg, {tuple(map(int.__sub__, e, m)): c for e, c in p.terms.items()})
           for j, p in row.items()}
    num, den = 0, 1
    for p in row.values():
        for c in p.terms.values():
            c = Fraction(c)
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
    cont = Fraction(num, den)
    if row[min(row)].lead()[1] < 0:
        cont = -cont
    return {j: p.scale(1 / cont) for j, p in row.items()}


def _reference_field_bounds(nvars, rows):
    """_field_bounds as it was on rows of Polys, frozen: per variable, twice
    the sum over rows of the row's largest degree."""
    total = [0] * nvars
    for row in rows:
        for v in range(nvars):
            total[v] += max((e[v] for p in row for e in p.terms), default=0)
    return [2 * t for t in total]


def _normal_poly(reg, rng, nvars, fractions):
    """A random Poly over the first nvars variables; integral coefficients
    are ints, as every Poly operation leaves them."""
    p = Poly.zero(reg)
    for _ in range(rng.randint(1, 3)):
        e = [0] * len(reg)
        for v in range(nvars):
            e[v] = rng.randint(0, 2)
        c = Fraction(rng.randint(-6, 6) or 1, rng.randint(2, 3) if fractions and rng.random() < 0.5 else 1)
        p = p + Poly.monomial(reg, e, c)
    return p


def test_prepare_row_matches_strip_of_substituted_row():
    reg = Context.of_rank(3).reg
    nvars = len(reg)
    rng = random.Random(6060)
    seen = set()
    for case in range(400):
        unit_var = (None, 0, 2)[case % 3]
        fractions = case % 2 == 1
        constant_row = case % 5 == 0
        row = {}
        for j in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.15:
                row[j] = Poly.zero(reg)
            elif constant_row or kind < 0.3:
                row[j] = Poly.const(reg, Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))
            elif kind < 0.4 and unit_var is not None:
                # vanishes once the unit variable is set to 1
                p = _normal_poly(reg, rng, 3, fractions)
                e = [0] * nvars
                e[unit_var] = rng.randint(1, 2)
                row[j] = p * Poly.monomial(reg, e) - p
            else:
                row[j] = _normal_poly(reg, rng, 3, fractions)
        if unit_var is None:
            sub = dict(row)
        else:
            sub = {j: p.substitute({unit_var: 1}) for j, p in row.items()}
        sub = {j: p for j, p in sub.items() if not p.is_zero()}
        got, top = _prepare_row(row, unit_var)
        expect = _reference_strip_row(dict(sub))
        assert _up_to_sign(got, expect)
        assert list(got) == list(expect)
        for j, p in got.items():
            assert {e: type(c) for e, c in p.terms.items()} == {
                e: type(c) for e, c in expect[j].terms.items()
            }
        assert _prepare_row(dict(sub))[0] == got
        if got:
            # the row keeps its sign: divided by a positive content only
            assert (got[min(got)].lead()[1] > 0) == (sub[min(sub)].lead()[1] > 0)
        if not expect:
            assert top is None
            seen.add("empty")
            continue
        assert linalg._field_bounds(nvars, [top]) == _reference_field_bounds(nvars, [expect.values()])
        coeffs = [c for p in sub.values() for c in p.terms.values()]
        seen.add("fraction" if any(type(c) is Fraction for c in coeffs) else "int")
        seen.add("negative lead" if sub[min(sub)].lead()[1] < 0 else "positive lead")
        if len(sub) < len(row):
            seen.add("zero entry")
        if all(p.is_const() for p in sub.values()):
            seen.add("constant")
    assert seen == {"empty", "int", "fraction", "negative lead", "positive lead", "zero entry", "constant"}


def _prepared_in_kernel_fields(nvars, rows, unit_var=None):
    """The rows as `symbolic_rank` hands them to the elimination, and the
    fields of its first layout."""
    prep = linalg._Prepared(nvars, rows, unit_var)
    pk = linalg._Packing(linalg._field_bounds(nvars, prep.tops))
    return prep.pack(pk), pk.fields


def test_prepared_rows_match_the_old_preparation():
    # Poly rows are packed once on entry and prepared on packed terms; the
    # elimination gets what the Poly preparation and a packing gave it
    reg = Context.of_rank(3).reg
    nvars = len(reg)
    rng = random.Random(2024)
    seen = set()
    for case in range(300):
        nv = 1 + case % 3
        maxdeg, maxterms = ((3, 3), (2, 2), (2, 2))[nv - 1]
        rows, _ = _sparse_matrix(reg, rng, nv, maxdeg, case % 2 == 0, 5, maxterms)
        unit_var = (None, 0, nv - 1)[case % 3]
        got, fields = _prepared_in_kernel_fields(nvars, rows, unit_var)
        expect, expect_fields = packed_reference(nvars, rows, unit_var)
        assert fields == expect_fields and len(got) == len(expect)
        assert all(map(packed_up_to_sign, got, expect))
        assert [list(r) for r in got] == [list(r) for r in expect]
        for row, ref in zip(got, expect):
            for j, terms in row.items():
                # the frozen preparation left raw Fraction(2, 1) coefficients
                # of _sparse_poly in place where it did not scale a row; the
                # elimination's puts every coefficient in normal form
                assert [type(c) for c in terms.values()] == [type(_norm_coeff(ref[j][m])) for m in terms]
        seen.add("unit" if unit_var is not None else "plain")
        seen.add("dropped row" if len(got) < sum(1 for r in rows if r) else "all rows")
    assert seen == {"unit", "plain", "dropped row", "all rows"}


def _reference_symbolic_rank(reg, rows):
    """symbolic_rank as it was before the packed-term kernel, on Poly entries;
    frozen here as the step-for-step reference of the elimination."""
    work = []
    for row in rows:
        r = _reference_strip_row({j: p for j, p in row.items() if not p.is_zero()})
        if r:
            work.append(r)
    divisors = [None] * len(work)  # None stands for 1
    act = list(range(len(work)))
    rank = 0
    while act:
        best = None
        for ri in act:
            for j, p in work[ri].items():
                k = len(p.terms)
                if best is None or k < best[0]:
                    best = (k, ri, j)
        if best is None:
            break
        _, pr, pc = best
        prow = work[pr]
        piv = prow[pc]
        act.remove(pr)
        rank += 1
        for ri in act:
            r = work[ri]
            c = r.get(pc)
            if c is None:
                continue
            d = divisors[ri]
            new = {}
            for j, v in r.items():
                if j == pc:
                    continue
                t = v * piv
                u = prow.get(j)
                if u is not None:
                    t = t - u * c
                if d is not None and not t.is_zero():
                    t = t.exact_div(d)
                if not t.is_zero():
                    new[j] = t
            for j, u in prow.items():
                if j != pc and j not in r:
                    t = u * c
                    if d is not None:
                        t = t.exact_div(d)
                    if not t.is_zero():
                        new[j] = -t
            work[ri] = new
            divisors[ri] = piv
        act = [ri for ri in act if work[ri]]
    return rank


def _sparse_poly(reg, rng, nvars, maxdeg, fractions, maxterms=3):
    terms = {}
    for _ in range(rng.randint(1, maxterms)):
        e = [0] * len(reg)
        for v in range(nvars):
            e[v] = rng.randint(0, maxdeg)
        c = rng.randint(-5, 5) or 1
        if fractions and rng.random() < 0.5:
            c = Fraction(c, rng.randint(2, 4))
        terms[tuple(e)] = c
    return Poly(reg, {e: c for e, c in terms.items() if c})


def _sparse_matrix(reg, rng, nvars, maxdeg, fractions, size=5, maxterms=3):
    """Rows as sparse dicts, some of them zero; sometimes with dependent rows."""
    m, n = rng.randint(1, size), rng.randint(1, size)
    rows = []
    for _ in range(m):
        if rng.random() < 0.15:
            rows.append({})
            continue
        row = {}
        for j in range(n):
            if rng.random() < 0.6:
                row[j] = _sparse_poly(reg, rng, nvars, maxdeg, fractions, maxterms)
        rows.append(row)
    if len(rows) >= 2 and rng.random() < 0.4:
        # a combination of two rows makes the matrix rank-deficient
        e = [0] * len(reg)
        e[rng.randrange(nvars)] = rng.randint(0, 1)
        a = Poly.monomial(reg, e, rng.randint(1, 3))
        b = Poly.const(reg, rng.choice([-2, -1, 1, 2]))
        x, y = rows[0], rows[1]
        combo = {}
        for j in set(x) | set(y):
            p = a * x.get(j, Poly.zero(reg)) + b * y.get(j, Poly.zero(reg))
            if not p.is_zero():
                combo[j] = p
        rows.append(combo)
    return rows, n


def _check_rank_against_reference(reg, rows, ncols):
    try:
        expect = _reference_symbolic_rank(reg, [dict(r) for r in rows])
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            symbolic_rank(reg, [dict(r) for r in rows])
        return None
    got = symbolic_rank(reg, [dict(r) for r in rows])
    assert got == expect
    assert got == field_rank(reg, rows, ncols)
    return got


def test_symbolic_rank_matches_frozen_reference_and_field_rank():
    reg = Context.of_rank(4).reg
    rng = random.Random(20070)
    outcomes = set()
    for case in range(400):
        # the dense field oracle's multivariate gcds blow up quickly, so the
        # more variables, the fewer terms per entry
        nvars = 1 + case % 4
        maxdeg, maxterms = ((3, 3), (2, 2), (2, 1), (1, 1))[nvars - 1]
        rows, ncols = _sparse_matrix(reg, rng, nvars, maxdeg, case % 3 == 0, 4, maxterms)
        got = _check_rank_against_reference(reg, rows, ncols)
        nonzero = sum(1 for r in rows if r)
        outcomes.add("raised" if got is None else "full" if got == min(nonzero, ncols) else "deficient")
    # the cases reach full rank, rank deficiency and the known defect alike
    assert outcomes == {"full", "deficient", "raised"}


def _rank_or_error(reg, rows):
    try:
        return symbolic_rank(reg, [dict(r) for r in rows])
    except (ExactDivisionError, ScalarDivisionError) as exc:
        return type(exc)


def test_row_sign_content_and_monomial_factors_reach_no_result():
    # negating a row, or scaling it by a nonzero rational or a monomial, is a
    # unit scaling over the fraction field that the preparation strips (or,
    # for the sign, leaves to `_primitive`): the rank, the error and the
    # kernel vectors must not see it
    reg = Context.of_rank(3).reg
    rng = random.Random(8128)
    seen = set()
    for case in range(300):
        nvars = 1 + case % 3
        maxdeg, maxterms = ((3, 3), (2, 2), (2, 1))[nvars - 1]
        rows, ncols = _sparse_matrix(reg, rng, nvars, maxdeg, case % 3 == 0, 5, maxterms)
        scaled = []
        for row in rows:
            kind = rng.choice(("kept", "negated", "rational", "monomial"))
            if kind == "negated":
                factor = Poly.const(reg, -1)
            elif kind == "rational":
                factor = Poly.const(reg, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))
            elif kind == "monomial":
                # over every variable of the registry, not only the matrix's
                e = [rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in reg]
                factor = Poly.monomial(reg, e, rng.choice((-1, 1)))
            else:
                factor = Poly.const(reg, 1)
            scaled.append({j: p * factor for j, p in row.items()})
            if row:
                seen.add(kind)
        rank = _rank_or_error(reg, rows)
        assert _rank_or_error(reg, scaled) == rank
        got, expect = kernel_basis(reg, scaled, ncols), kernel_basis(reg, rows, ncols)
        assert got == expect and _exact_terms(got) == _exact_terms(expect)
        seen.add("raised" if isinstance(rank, type) else "kernel" if expect else "no kernel")
    assert seen == {"kept", "negated", "rational", "monomial", "raised", "kernel", "no kernel"}


def _narrow_fields(monkeypatch):
    """Start every packed call with one-bit fields and count its attempts."""
    attempts = []
    real_bounds = linalg._field_bounds
    real_packing = linalg._Packing

    def narrow(nvars, rows):
        return [min(b, 1) for b in real_bounds(nvars, rows)]

    def counting(bounds):
        attempts.append(bounds)
        return real_packing(bounds)

    monkeypatch.setattr(linalg, "_field_bounds", narrow)
    monkeypatch.setattr(linalg, "_Packing", counting)
    return attempts


def _overflow_cases():
    reg = Context.of_rank(3).reg
    rng = random.Random(4242)
    cases = []
    for case in range(60):
        nvars = 1 + case % 3
        maxdeg, maxterms = ((3, 3), (2, 2), (2, 1))[nvars - 1]
        rows, ncols = _sparse_matrix(reg, rng, nvars, maxdeg, case % 2 == 0, 5, maxterms)
        try:
            expect = _reference_symbolic_rank(reg, [dict(r) for r in rows])
        except ExactDivisionError:
            expect = ExactDivisionError
        cases.append((rows, ncols, expect))
    return reg, cases


def _check_overflow_retries(reg, cases, attempts):
    retried = 0
    for rows, ncols, expect in cases:
        del attempts[:]
        if expect is ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                symbolic_rank(reg, [dict(r) for r in rows])
        else:
            assert symbolic_rank(reg, [dict(r) for r in rows]) == expect
        retried += len(attempts) > 1
    assert retried >= 20


def _usable(monkeypatch, cpus):
    """Let this process run on cpus CPUs, as `forks.second_cpu` reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_field_overflow_retries_with_wider_fields(monkeypatch):
    reg, cases = _overflow_cases()
    attempts = _narrow_fields(monkeypatch)
    _usable(monkeypatch, 1)
    _check_overflow_retries(reg, cases, attempts)
    # det: the same retry, the same determinant
    g = [Poly.symbol(reg, n) for n in ("g1", "g2", "g3")]
    one = Poly.const(reg, 1)
    rows = _sparse(reg, [[one, gi, gi * gi * gi] for gi in g])
    del attempts[:]
    d = det(reg, rows)
    assert len(attempts) > 1
    vander = (g[1] - g[0]) * (g[2] - g[0]) * (g[2] - g[1])
    assert d == vander * (g[0] + g[1] + g[2])


# -- the rank peer: the rows of one symbolic_rank split into two halves ------------
#
# With the floor at 0 every matrix is split, so each of these runs with two
# or more CPUs of the patched os.sched_getaffinity forks one peer; the ranks
# and errors must be those of one process.


@pytest.fixture
def peers_always(monkeypatch):
    monkeypatch.setattr(linalg, "_PEER_ROWS", 0)
    monkeypatch.setattr(linalg, "_PEER_COST", 0)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _steps(monkeypatch, side):
    """Count the pivot steps that side (`_Alone` or `_Half`) takes in this
    process; a forked peer counts its own steps, out of sight."""
    calls = []
    real = side.pivot

    def pivot(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(side, "pivot", pivot)
    return calls


def _outcome(monkeypatch, reg, rows, cpus, steps):
    _usable(monkeypatch, cpus)
    del steps[:]
    try:
        return symbolic_rank(reg, [dict(r) for r in rows]), len(steps)
    except ExactDivisionError as exc:
        return (type(exc), str(exc)), len(steps)


@pytest.mark.parametrize("cpus", [2, 3])
def test_peers_give_the_single_process_rank_and_error(monkeypatch, peers_always, cpus):
    reg = Context.of_rank(4).reg
    rng = random.Random(23)
    alone_steps = _steps(monkeypatch, linalg._Alone)
    caller_steps = _steps(monkeypatch, linalg._Half)
    outcomes = set()
    for case in range(120):
        nvars = 1 + case % 4
        maxdeg, maxterms = ((3, 3), (2, 2), (2, 1), (1, 1))[nvars - 1]
        rows, _ = _sparse_matrix(reg, rng, nvars, maxdeg, case % 3 == 0, 6, maxterms)
        alone = _outcome(monkeypatch, reg, rows, 1, alone_steps)
        # the same rank, or the same error raised at the same pivot step
        assert _outcome(monkeypatch, reg, rows, cpus, caller_steps) == alone
        outcomes.add(type(alone[0]))
    assert outcomes == {int, tuple}
    _no_child_left()


def test_field_overflow_in_a_peer_widens_the_fields(monkeypatch, peers_always):
    reg, cases = _overflow_cases()
    attempts = _narrow_fields(monkeypatch)
    from_peers = []
    real_pivot = linalg._Half.pivot

    def pivot(self, best, failed, work):
        try:
            return real_pivot(self, best, failed, work)
        except linalg._FieldOverflow:
            if failed is None:
                from_peers.append(None)
            raise

    monkeypatch.setattr(linalg._Half, "pivot", pivot)
    _usable(monkeypatch, 2)
    _check_overflow_retries(reg, cases, attempts)
    assert from_peers  # some overflows were a peer's
    _no_child_left()


class _Stop(BaseException):
    """Stands in for a signal handler that ends the run (a job timeout)."""


def _matrices(count):
    """count dense 6 x 6 matrices that the elimination ranks, with their ranks."""
    reg = Context.of_rank(3).reg
    rng = random.Random(7)
    found = []
    while len(found) < count:
        rows = [{j: _sparse_poly(reg, rng, 2, 2, False, 2) for j in range(6)} for _ in range(6)]
        try:
            found.append((rows, _reference_symbolic_rank(reg, [dict(r) for r in rows])))
        except ExactDivisionError:
            continue
    return reg, found


def test_no_peer_outlives_symbolic_rank(monkeypatch, peers_always):
    reg, found = _matrices(5)
    _no_child_left()
    # a return
    _usable(monkeypatch, 3)
    for rows, expect in found:
        assert symbolic_rank(reg, [dict(r) for r in rows]) == expect
        _no_child_left()
    # the known defect, raised in the caller
    g1 = Poly.symbol(reg, "g1")
    g2 = Poly.symbol(reg, "g2")
    defect = [
        {0: g2.scale(3), 1: g1.scale(-3), 2: Poly.const(reg, -2)},
        {2: Poly.const(reg, -4)},
        {0: g1, 1: g1.scale(2)},
    ]
    for cpus in (2, 3):
        _usable(monkeypatch, cpus)
        with pytest.raises(ExactDivisionError, match="division is not exact"):
            symbolic_rank(reg, [dict(r) for r in defect])
        _no_child_left()
    # a BaseException in the caller mid-elimination, while the peer waits
    caller = os.getpid()
    calls = []
    real_combine = linalg._combine

    def combine(*args):
        if os.getpid() == caller:
            calls.append(None)
            if len(calls) == 2:
                raise _Stop()
        return real_combine(*args)

    monkeypatch.setattr(linalg, "_combine", combine)
    _usable(monkeypatch, 2)
    with pytest.raises(_Stop):
        symbolic_rank(reg, [dict(r) for r in found[0][0]])
    assert len(calls) == 2
    _no_child_left()


def test_a_peer_that_dies_leaves_the_rank_to_the_caller(monkeypatch, peers_always):
    reg, found = _matrices(6)
    caller = os.getpid()
    real_combine = linalg._combine

    def combine(*args):
        if os.getpid() != caller:
            os._exit(0)  # dies without a word, mid-elimination
        return real_combine(*args)

    monkeypatch.setattr(linalg, "_combine", combine)
    packed = []  # the rows the caller's kernel starts from, per run
    real_kernel = linalg._rank_kernel

    def kernel(work, guard, side=None):
        if os.getpid() == caller:
            packed.append(list(work))
        return real_kernel(work, guard, side)

    monkeypatch.setattr(linalg, "_rank_kernel", kernel)
    _usable(monkeypatch, 2)
    for rows, expect in found:
        del packed[:]
        assert symbolic_rank(reg, [dict(r) for r in rows]) == expect
        _no_child_left()
        # the peered run, then one rerun alone from the same packed rows
        assert len(packed) == 2 and packed[1] == packed[0]


def test_the_lowest_failing_row_gives_the_error():
    # one step in which this half's row failed (a field overflow) and the
    # other half's row failed to divide: whichever half holds the lower
    # row, its error is raised
    for index, own_row, other_row, raised in (
        (0, 2, 1, ExactDivisionError),
        (0, 2, 3, linalg._FieldOverflow),
        (1, 3, 2, ExactDivisionError),
        (1, 3, 4, linalg._FieldOverflow),
    ):
        r, w = os.pipe()
        with open(w, "wb") as pipe:
            pickle.dump((None, (other_row, ExactDivisionError("division is not exact"))), pipe)
        sent, out = os.pipe()
        try:
            half = linalg._Half(index, out, r)
            with pytest.raises(raised):
                half.pivot((1, own_row, 0), (own_row, linalg._FieldOverflow()), [])
            # this half's report went to the other half first
            with open(sent, "rb", closefd=False) as pipe:
                assert pickle.load(pipe)[1][0] == own_row
        finally:
            for fd in (r, sent, out):
                os.close(fd)


def _perm_det_poly(reg, rows):
    n = len(rows)
    total = Poly.zero(reg)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Poly.const(reg, -1 if inversions % 2 else 1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_det_matches_permutation_oracle_multivariate():
    reg = Context.of_rank(3).reg
    rng = random.Random(8128)
    for case in range(60):
        n = rng.randint(2, 4)
        nvars = 1 + case % 3
        rows = [
            [
                Poly.zero(reg) if rng.random() < 0.25
                else _sparse_poly(reg, rng, nvars, 2, case % 2 == 0)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if case % 7 == 0:
            rows[-1] = list(rows[0])  # singular
        d = det(reg, _sparse(reg, rows))
        assert d == _perm_det_poly(reg, rows)
        assert str(d) == str(_perm_det_poly(reg, rows))


# -- packed exact division, through Poly.exact_div ------------------------------


def test_packed_division_recovers_quotient():
    reg = Context.of_rank(3).reg
    rng = random.Random(77)
    for case in range(80):
        nvars = 1 + case % 3
        q = _sparse_poly(reg, rng, nvars, 3, case % 2 == 0)
        d = _sparse_poly(reg, rng, nvars, 2, case % 3 == 0)
        assert (q * d).exact_div(d) == q
        if not d.is_const():
            with pytest.raises(ExactDivisionError):
                (q * d + Poly.const(reg, 1)).exact_div(d)


def test_packed_division_rejects_one_failing_field():
    reg = Context.of_rank(2).reg
    x = Poly.symbol(reg, "g1")
    y = Poly.symbol(reg, "g2")
    # only the g2 field lacks the degree; a plain subtraction of the packed
    # ints would borrow from the g1 field and go unnoticed
    with pytest.raises(ExactDivisionError):
        (x ** 3 * y).exact_div(x * y ** 2)
    with pytest.raises(ExactDivisionError):
        (x * y ** 3).exact_div(x ** 2 * y)
    assert (x ** 3 * y ** 2).exact_div(x * y ** 2) == x ** 2
    # the same with a leading monomial of a longer divisor
    one = Poly.const(reg, 1)
    with pytest.raises(ExactDivisionError):
        (x ** 3 * y).exact_div(x * y ** 2 + one)
    with pytest.raises(ExactDivisionError):
        (x * y ** 3 + x).exact_div(x ** 2 * y + y)
    assert ((x * y ** 2 + one) * (x ** 2 + y)).exact_div(x * y ** 2 + one) == x ** 2 + y


def test_packed_division_terminates_on_non_multiples():
    reg = Context.of_rank(2).reg
    one = Poly.const(reg, 1)
    x = Poly.symbol(reg, "g1")
    y = Poly.symbol(reg, "g2")
    # ascending-order division of 1 by 1 - x would emit 1 + x + x^2 + ...
    with pytest.raises(ExactDivisionError):
        one.exact_div(one - x)
    # x^3 / (x + y^3) drives g2 past its field: the guard bit proves the
    # division is not exact
    with pytest.raises(ExactDivisionError):
        (x ** 3).exact_div(x + y ** 3)
    # without that proof, the overflowed exponents of this non-multiple run
    # into the next field and come out as a "quotient"
    two = Poly.const(reg, 2)
    with pytest.raises(ExactDivisionError):
        (x ** 3 * y ** 2 - y ** 3).exact_div(two * y ** 3 - two * x)


def test_packed_division_by_fraction_constants_and_monomials():
    reg = Context.of_rank(2).reg
    x = Poly.symbol(reg, "g1")
    y = Poly.symbol(reg, "g2")
    p = x.scale(Fraction(1, 2)) + y.scale(Fraction(-3, 4)) + Poly.const(reg, 5)
    c = Poly.const(reg, Fraction(3, 4))
    q = p.exact_div(c)
    assert q == p.scale(Fraction(4, 3))
    assert q * c == p
    assert p.scale(Fraction(3, 4)).exact_div(c) == p
    assert all(type(v) is int for v in (x.scale(6) + y.scale(9)).exact_div(Poly.const(reg, 3)).terms.values())
    # a monomial divisor with a Fraction coefficient still checks exponents
    with pytest.raises(ExactDivisionError):
        p.exact_div(x.scale(Fraction(2, 3)))
    assert (x * p).scale(Fraction(2, 3)).exact_div(x.scale(Fraction(2, 3))) == p


def test_exact_division_sizes_fields_over_both_operands():
    reg = Context.of_rank(2).reg
    x = Poly.symbol(reg, "g1")
    y = Poly.symbol(reg, "g2")
    zero = Poly.zero(reg)
    # g2 occurs only in the divisor: fields sized over the dividend alone
    # would drop it and return 1
    with pytest.raises(ExactDivisionError):
        x.exact_div(x * y)
    with pytest.raises(ExactDivisionError):
        (x + Poly.const(reg, 1)).exact_div(x - y)
    assert zero.exact_div(x * y + Poly.const(reg, 3)) == zero
    with pytest.raises(ScalarDivisionError):
        x.exact_div(zero)
    with pytest.raises(ScalarDivisionError):
        zero.exact_div(zero)
    q = (x * y).scale(Fraction(5, 6)).exact_div(Poly.const(reg, Fraction(-5, 3)))
    assert q == (x * y).scale(Fraction(-1, 2)) and type(q.terms[(1, 1, 0, 0, 0, 0)]) is Fraction


# -- kernel_basis on the fraction-free engine -----------------------------------


def _reference_kernel_basis(reg, rows, ncols):
    """kernel_basis as it was on the dense field engine, frozen: the RREF
    kernel vector of each free column, denominators cleared, divided by the
    polynomial gcd and the rational content, first nonzero lead positive."""
    _, pivots, rref = field_rref(reg, rows, ncols)
    one = Scalar.make(Poly.const(reg, 1))
    zero = Scalar.make(Poly.zero(reg))
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -rref[i][f]
        den = Poly.const(reg, 1)
        for s in vec:
            if not s.is_zero():
                den = den * s.den.exact_div(_gcd_many([den, s.den]))
        polys = [Poly.zero(reg) if s.is_zero() else s.num * den.exact_div(s.den) for s in vec]
        g = _gcd_many([p for p in polys if not p.is_zero()])
        if not g.is_const():
            polys = [p if p.is_zero() else p.exact_div(g) for p in polys]
        num, dens = 0, 1
        for p in polys:
            for c in p.terms.values():
                c = Fraction(c)
                num = math.gcd(num, c.numerator)
                dens = dens * c.denominator // math.gcd(dens, c.denominator)
        cont = Fraction(num, dens)
        if next(p for p in polys if not p.is_zero()).lead()[1] < 0:
            cont = -cont
        if cont != 1:
            polys = [p.scale(1 / cont) for p in polys]
        out.append(tuple(polys))
    return out


def _exact_terms(vectors):
    """Vectors as comparable term lists that also tell an int from a Fraction."""
    return [
        [sorted((e, type(c).__name__, c) for e, c in p.terms.items()) for p in vec]
        for vec in vectors
    ]


def _uncertified(reg):
    """Matrices of full column rank that the modular certificate of
    `kernel_basis` cannot see: a denominator divisible by its prime, and a
    nonzero entry that vanishes at its point (g1 sits at _CERT_POINT)."""
    g1 = Poly.symbol(reg, "g1")
    return [
        (_sparse(reg, [[Fraction(1, linalg._CERT_PRIME), 1], [1, 0]]), 2),
        (_sparse(reg, [[g1 - Poly.const(reg, linalg._CERT_POINT)]]), 1),
    ]


def _kernel_corpus():
    """Seeded sparse matrices in 1-4 variables with integer, rational and
    polynomial entries, and the shapes an elimination can trip on: no rows,
    zero rows, zero entries, a zero matrix, zero columns, no columns, full
    column rank and rank deficiency; then full column rank with constant and
    polynomial entries, also where the modular certificate fails, and a
    deficient matrix with a denominator divisible by its prime."""
    reg = Context.of_rank(4).reg
    rng = random.Random(11235)
    zero = Poly.zero(reg)
    cases = [
        ([], 3),
        ([{}, {}], 2),
        ([{0: zero, 2: zero}, {1: zero}], 3),
        ([{}, {}], 0),
        (_sparse(reg, [[1, 2], [2, 4]]), 2),
        ([{1: Poly.symbol(reg, "g1")}], 3),
    ]
    for case in range(150):
        kind = case % 3
        nvars = 1 + case % 4
        if kind == 0:
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            dense = [[rng.choice([0, 0, 1, -1, rng.randint(-5, 5)]) for _ in range(n)] for _ in range(m)]
            if case % 4 == 0 and m >= 2:
                dense[-1] = [2 * a - b for a, b in zip(dense[0], dense[1])]
            cases.append((_sparse(reg, dense), n))
        elif kind == 1:
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            dense = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.6 else 0
                 for _ in range(n)]
                for _ in range(m)
            ]
            cases.append((_sparse(reg, dense), n))
        else:
            # fewer terms per entry the more variables: the frozen field
            # engine's multivariate gcds blow up quickly
            maxdeg, maxterms = ((3, 3), (2, 2), (2, 1), (1, 1))[nvars - 1]
            rows, n = _sparse_matrix(reg, rng, nvars, maxdeg, case % 2 == 0, 4, maxterms)
            if case % 5 == 0:
                n += 1  # a column that no row touches
            cases.append((rows, n))
    g1, g2 = Poly.symbol(reg, "g1"), Poly.symbol(reg, "g2")
    big = linalg._CERT_PRIME
    cases += [
        (_sparse(reg, [[2, -1, 0], [1, 1, 3], [0, 5, Fraction(1, 2)], [4, 0, 1]]), 3),
        (_sparse(reg, [[g1, 1, 0], [0, g2, g1 * g2], [g1 + g2, 0, 3]]), 3),
        (_sparse(reg, [[g1 * g1, Fraction(1, 3)], [g2, g1 - g2], [1, 0]]), 2),
        (_sparse(reg, [[Fraction(1, big), 1], [1, big]]), 2),
        *_uncertified(reg),
    ]
    return reg, cases


def test_kernel_basis_matches_frozen_reference():
    reg, cases = _kernel_corpus()
    seen = set()
    for rows, ncols in cases:
        got = kernel_basis(reg, rows, ncols)
        expect = _reference_kernel_basis(reg, rows, ncols)
        assert _exact_terms(got) == _exact_terms(expect)
        rank = ncols - len(got)
        nonzero = sum(1 for r in rows if any(not p.is_zero() for p in r.values()))
        if not rows:
            seen.add("no rows")
        if ncols and rank == 0:
            seen.add("no pivot")
        if not ncols:
            seen.add("no columns")
        if got and rank == min(nonzero, ncols):
            seen.add("full row rank")
        if not got:
            seen.add("full column rank")
        elif rank < min(nonzero, ncols):
            seen.add("deficient")
        for p in (p for r in rows for p in r.values() if not p.is_zero()):
            # a constant entry's one coefficient is an int or a Fraction
            seen.add(type(next(iter(p.terms.values()))).__name__ if p.is_const() else "Poly")
    assert seen >= {
        "no rows", "no pivot", "no columns", "full row rank", "full column rank",
        "deficient", "int", "Fraction", "Poly",
    }


def test_kernel_basis_certifies_an_empty_kernel_without_elimination(monkeypatch):
    # every empty kernel of the corpus but the planted uncertified ones is
    # certified modulo the prime, so it needs no elimination; those two and
    # every nonempty kernel still reach it
    reg, cases = _kernel_corpus()
    expected = [kernel_basis(reg, rows, ncols) for rows, ncols in cases]
    uncertified = _uncertified(reg)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel_basis ran the elimination")

    monkeypatch.setattr(linalg, "_fraction_free", refuse)
    certified = 0
    for (rows, ncols), expect in zip(cases, expected):
        if expect or (rows, ncols) in uncertified:
            with pytest.raises(AssertionError, match="elimination"):
                kernel_basis(reg, rows, ncols)
        else:
            assert kernel_basis(reg, rows, ncols) == []
            certified += ncols > 0
    assert certified >= 40


def test_kernel_basis_with_no_pivot_returns_unit_vectors():
    reg = _ctx().reg
    one, zero = Poly.const(reg, 1), Poly.zero(reg)
    for rows in ([], [{}], [{}, {1: zero}], [{0: zero, 1: zero, 2: zero}]):
        assert kernel_basis(reg, rows, 3) == [
            (one, zero, zero), (zero, one, zero), (zero, zero, one)
        ]
    assert kernel_basis(reg, [], 0) == []


def test_kernel_basis_forms_no_scalar(monkeypatch):
    reg, cases = _kernel_corpus()
    expected = [kernel_basis(reg, rows, ncols) for rows, ncols in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("kernel_basis formed a Scalar")

    monkeypatch.setattr(Scalar, "make", staticmethod(refuse))
    for (rows, ncols), expect in zip(cases, expected):
        assert kernel_basis(reg, rows, ncols) == expect


def test_kernel_basis_degree_one_in_four_variables():
    # the dense field engine did not finish such a 4x4 matrix in 120 s
    reg = Context.of_rank(4).reg
    gens = [Poly.const(reg, 1)] + [Poly.symbol(reg, name) for name in reg]
    rng = random.Random(4444)

    def linear():
        return sum((g.scale(rng.randint(-3, 3)) for g in gens), Poly.zero(reg))

    for case in range(40):
        if case % 2:
            # a 4x2 constant matrix times a 2x4 linear one: rank at most 2
            u = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(4)]
            v = [[linear() for _ in range(4)] for _ in range(2)]
            dense = [[v[0][j].scale(a) + v[1][j].scale(b) for j in range(4)] for a, b in u]
            minors = (
                det(reg, _sparse(reg, [[dense[i][j] for j in cols] for i in rows_]))
                for rows_ in itertools.combinations(range(4), 2)
                for cols in itertools.combinations(range(4), 2)
            )
            assert any(not d.is_zero() for d in minors)
            rank = 2
        else:
            dense = [[linear() for _ in range(4)] for _ in range(4)]
            assert not det(reg, _sparse(reg, dense)).is_zero()
            rank = 4
        rows = [{j: p for j, p in enumerate(r) if not p.is_zero()} for r in dense]
        kern = kernel_basis(reg, rows, 4)
        assert len(kern) == 4 - rank
        for vec in kern:
            for row in rows:
                acc = Poly.zero(reg)
                for j, p in row.items():
                    acc = acc + p * vec[j]
                assert acc.is_zero()
            nz = [p for p in vec if not p.is_zero()]
            assert _gcd_many(nz).is_const()
            coeffs = [c for p in nz for c in p.terms.values()]
            assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1


# -- the known defect of symbolic_rank's delayed divisors ------------------------

# ExactDivisionError: after a skipped pivot step a row's delayed divisor does
# not divide its next numerator.  Smallest case among the 2,400 random
# matrices of test_rank_matches_field_oracle_poly's generator with seeds
# 0-39 (60 matrices each): seed 8, matrix 40.  Its rank over the field is 3.


@pytest.mark.xfail(strict=True, raises=ExactDivisionError, reason="delayed-divisor defect")
def test_known_defect_smallest_random_matrix():
    ctx = _ctx()
    g1 = Poly.symbol(ctx.reg, "g1")
    g2 = Poly.symbol(ctx.reg, "g2")
    rows = [
        {0: g2.scale(3), 1: g1.scale(-3), 2: Poly.const(ctx.reg, -2)},
        {2: Poly.const(ctx.reg, -4)},
        {0: g1, 1: g1.scale(2)},
    ]
    assert field_rank(ctx.reg, rows, 3) == 3
    assert symbolic_rank(ctx.reg, [dict(r) for r in rows]) == 3


def test_minor_gcd_matches_enumeration_with_free_columns(monkeypatch):
    # m x n matrices N B with m - n in {2, 3}, so minors of Y with t >= 2 are
    # read: det B divides every maximal minor, and so does the monomial g1
    # scaling the first column, which keeps the gcd from turning constant
    # before the last minor; a singular B makes every minor zero
    ctx = _ctx()
    reg = ctx.reg
    rng = random.Random(4242)
    dets = []
    monkeypatch.setattr(linalg, "det", lambda r, rows: dets.append(len(rows)) or det(r, rows))
    g1 = Poly.symbol(reg, "g1")
    outcomes = set()
    for case in range(24):
        n = 2 + case % 2
        m = n + 2 + (case // 2) % 2
        N = [[_rand_poly(ctx, rng) for _ in range(n)] for _ in range(m)]
        B = [[_rand_poly(ctx, rng) for _ in range(n)] for _ in range(n)]
        rows = []
        for r in N:
            row = {}
            for j in range(n):
                p = Poly.zero(reg)
                for k in range(n):
                    p = p + r[k] * B[k][j]
                if j == 0:
                    p = p * g1
                if not p.is_zero():
                    row[j] = p
            rows.append(row)
        expect = minor_gcd_by_enumeration(reg, rows, n)
        assert linalg.minor_gcd(reg, rows, n) == expect, case
        outcomes.add("zero" if expect.is_zero() else "const" if expect.is_const() else "poly")
    assert outcomes == {"zero", "poly"}
    assert set(dets) == {2, 3}
    # the maximal minors of the transpose of [[x, 0, 0, y], [0, x, y, 0]] are
    # x^2, xy, 0, 0, -xy and -y^2: only the t = 2 minor -y^2 = det(Y) / D
    # brings the gcd from x down to 1
    x, y = g1, Poly.symbol(reg, "g2")
    rows = [{0: x}, {1: x}, {1: y}, {0: y}]
    assert linalg.minor_gcd(reg, rows, 2) == Poly.const(reg, 1) == minor_gcd_by_enumeration(reg, rows, 2)

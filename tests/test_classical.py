"""Verma dims, singular vectors, and quotient dimensions at rank 1.

The level-2 existence condition is checked against a fully hand-derived
2x2 oracle built from the defining brackets:
    d_1 d_{-2} v = -3 d_{-1} v
    d_1 d_{-1}^2 v = (-4h+2) d_{-1} v
    d_2 d_{-2} v = (-4h + c/2) v
    d_2 d_{-1}^2 v = 6h v
whose determinant is -16h^2 + 2ch - 10h - c.

Two independent oracles cover the d_1, d_2 stack that find_singular uses:
the Kac determinant formula for the existence conditions, and a frozen copy
of the full stack d_1..d_n with its combinatorial minor gcd.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gvir import classical
from gvir.classical import (
    TruncatedVermaModule,
    partition_count,
    partitions,
    verma_dims,
)
from gvir.linalg import Echelon, kernel_basis, minor_gcd
from gvir.scalars import Context, Poly, Scalar
from oracles import field_rank, minor_gcd_by_enumeration


def _verma(L=4, **bindings):
    ctx = Context.of_rank(1, **bindings)
    return ctx, TruncatedVermaModule(ctx, L)


def test_partitions_match_dp_count():
    for n in range(13):
        got = list(partitions(n))
        assert len(got) == len(set(got)) == partition_count(n)
        for w in got:
            assert sum(w) == n and all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def test_verma_dims_frozen():
    assert verma_dims(8) == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert verma_dims(4) == [1, 1, 2, 3, 5]
    assert verma_dims(0) == [1]
    with pytest.raises(ValueError):
        verma_dims(-1)


def test_sign_convention_dedicated():
    # [d_1, d_{-1}] = -2 d_0 under the (n-m) convention, so d_1 d_{-1} v = -2h v
    ctx, M = _verma()
    v = M.highest_vector()
    out = M.act(1, M.act(-1, v))
    assert set(out) == {()}
    assert out[()] == ctx.parse("-2*h")


def test_action_realizes_brackets_random():
    # d_j d_m - d_m d_j = (m-j) d_{j+m} + delta (j^3-j)/12 c on random vectors
    ctx, M = _verma(L=6)
    rng = random.Random(424242)
    words = [(), (1,), (2, 1), (3,), (2, 2), (1, 1, 1)]
    for _ in range(120):
        j = rng.randint(-3, 3)
        m = rng.randint(-3, 3)
        w = words[rng.randint(0, len(words) - 1)]
        u = {w: ctx.one()}
        lhs = {}
        for k, s in M.act(j, M.act(m, u)).items():
            lhs[k] = s
        for k, s in M.act(m, M.act(j, u)).items():
            lhs[k] = lhs.get(k, ctx.zero()) - s
        rhs = {k: ctx.scalar(m - j) * s for k, s in M.act(j + m, u).items()}
        if j == -m:
            central = ctx.scalar(Fraction(j**3 - j, 12)) * ctx.c
            for k, s in u.items():
                rhs[k] = rhs.get(k, ctx.zero()) + central * s
        keys = set(lhs) | set(rhs)
        for k in keys:
            assert lhs.get(k, ctx.zero()) == rhs.get(k, ctx.zero()), (j, m, w)


def test_weight_bookkeeping():
    ctx, M = _verma()
    for n in range(5):
        for w in M.basis(n):
            out = M.act(0, {w: ctx.one()})
            assert out == {w: ctx.h - ctx.scalar(n)} or (
                n == 0 and ctx.h.is_zero() and out == {}
            )
    assert M.weight(3) == ctx.parse("h - 3")


def test_level1_condition_is_h():
    ctx, M = _verma()
    rep = M.find_singular(1)
    assert rep.kernel_dim() == 0
    assert rep.conditions == [Poly.symbol(ctx.reg, "h")]


def test_level1_kernel_at_h0():
    ctx, M = _verma(h=0)
    rep = M.find_singular(1)
    assert rep.kernel_dim() == 1
    (vec,) = rep.vectors
    assert set(vec) == {(1,)}
    # verified by direct action, not by construction
    assert M.act(1, vec) == {}


def test_level2_condition_matches_hand_oracle():
    ctx, M = _verma()
    rep = M.find_singular(2)
    assert rep.kernel_dim() == 0
    h = Poly.symbol(ctx.reg, "h")
    c = Poly.symbol(ctx.reg, "c")
    one = Poly.const(ctx.reg, 1)
    expected_det = (
        Poly.const(ctx.reg, -16) * h * h
        + Poly.const(ctx.reg, 2) * c * h
        + Poly.const(ctx.reg, -10) * h
        - c
    )
    _, prim = expected_det.primitive_int()
    assert rep.conditions == [prim]
    # the same matrix, rebuilt from the docstring oracle entries
    rows = [
        {0: Poly.const(ctx.reg, -3), 1: Poly.const(ctx.reg, -4) * h + 2 * one},
        {0: Poly.const(ctx.reg, -4) * h + c.scale(Fraction(1, 2)), 1: Poly.const(ctx.reg, 6) * h},
    ]
    from gvir.linalg import det

    assert det(ctx.reg, rows) == expected_det


def test_level2_kernel_on_vanishing_locus():
    # h=1, c=26 solves 16h^2 - 2ch + 10h + c = 0
    assert 16 - 2 * 26 + 10 + 26 == 0
    ctx, M = _verma(h=1, c=26)
    rep = M.find_singular(2)
    assert rep.kernel_dim() == 1
    (vec,) = rep.vectors
    assert M.act(1, vec) == {} and M.act(2, vec) == {}
    # no accidental level-1 or level-3 degeneration at this point
    assert M.find_singular(1).kernel_dim() == 0
    assert M.find_singular(3).kernel_dim() == 0


def test_kernel_dims_match_dense_oracle():
    for c, h in [(0, 0), (26, 1), (1, Fraction(1, 2)), (Fraction(-3, 2), 0)]:
        ctx, M = _verma(L=4, c=c, h=h)
        for n in (1, 2, 3):
            rows = M.raising_rows(n)
            ncols = partition_count(n)
            rank = field_rank(ctx.reg, rows, ncols)
            assert M.find_singular(n).kernel_dim() == ncols - rank


def test_quotient_dims_generic_point():
    ctx, M = _verma(L=5, c=Fraction(17, 3), h=Fraction(5, 7))
    assert M.quotient_dims_after_singular() == verma_dims(5)
    assert not M.is_trivial_quotient()


def test_quotient_dims_h0():
    # submodule generated by d_{-1}v is a Verma at level 1: dims p(n)-p(n-1)
    ctx, M = _verma(L=4, c=26, h=0)
    dims = M.quotient_dims_after_singular()
    assert dims == [1, 0, 1, 1, 2]
    assert not M.is_trivial_quotient(dims)


def test_quotient_dims_level2_point():
    ctx, M = _verma(L=4, c=26, h=1)
    dims = M.quotient_dims_after_singular()
    assert dims == [1, 1, 1, 2, 3]  # p(n) - p(n-2)


def test_quotient_trivial_module_at_origin():
    ctx, M = _verma(L=4, c=0, h=0)
    dims = M.quotient_dims_after_singular()
    assert dims == [1, 0, 0, 0, 0]
    assert M.is_trivial_quotient(dims)


def test_quotient_dims_add_no_row_to_a_full_level(monkeypatch):
    # at c = h = 0 every positive level dies; once a level is full, later
    # singular vectors must not be moved into it
    ctx, M = _verma(L=6, c=0, h=0)
    add_row = Echelon.add_row
    calls = []

    def counted(self, row):
        calls.append(self.is_full())
        return add_row(self, row)

    monkeypatch.setattr(Echelon, "add_row", counted)
    assert M.quotient_dims_after_singular() == [1, 0, 0, 0, 0, 0, 0]
    assert calls and not any(calls)


def test_quotient_level_cap_zero():
    ctx, M = _verma(L=0, c=0, h=0)
    assert M.quotient_dims_after_singular() == [1]


def test_validation_errors():
    ctx, M = _verma(L=3)
    with pytest.raises(ValueError):
        M.find_singular(0)
    with pytest.raises(ValueError):
        M.find_singular(4)
    with pytest.raises(ValueError):
        M.quotient_dims_after_singular()  # h, c unbound
    with pytest.raises(ValueError):
        TruncatedVermaModule(ctx, -1)


# -- Kac determinant oracle -------------------------------------------------------
#
# With c = 13 - 6(t + 1/t), the Kac determinant at level n vanishes to first
# order in h exactly at h_{r,s}(t) = ((r^2-1) t + (s^2-1)/t)/4 - (rs-1)/2 for
# rs = n (the new factors at level n).  The package's d_n is -L_n, so its
# highest weight is -h in the usual normalization: c stays, h -> -h.

KAC_T = [Fraction(4, 3), Fraction(2, 5), Fraction(7, 2), Fraction(3), Fraction(5, 7), Fraction(-2)]


def _kac_c(t):
    return 13 - 6 * (t + 1 / t)


def _kac_h(r, s, t):
    return ((r * r - 1) * t + Fraction(s * s - 1) / t) / 4 - Fraction(r * s - 1, 2)


def _uni_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _at_kac_point(reg, poly, t):
    """poly(c = c(t), h -> -h) as h-coefficients, lowest degree first."""
    ic, ih = reg.index("c"), reg.index("h")
    out = {}
    for exps, coeff in poly.terms.items():
        assert all(e == 0 for i, e in enumerate(exps) if i not in (ic, ih))
        eh = exps[ih]
        out[eh] = out.get(eh, 0) + coeff * _kac_c(t) ** exps[ic] * (-1) ** eh
    coeffs = [Fraction(out.get(d, 0)) for d in range(max(out) + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_conditions_match_kac_determinant_factors():
    # level 7 is the first whose minor gcd reads t >= 2 minors (k = 3), each
    # divided exactly by a power of the last pivot
    ctx, M = _verma(L=7)
    for n in range(1, 8):
        (condition,) = M.find_singular(n).conditions
        pairs = [(r, n // r) for r in range(1, n + 1) if n % r == 0]
        for t in KAC_T:
            got = _at_kac_point(ctx.reg, condition, t)
            kac = [Fraction(1)]
            for r, s in pairs:
                kac = _uni_mul(kac, [-_kac_h(r, s, t), Fraction(1)])
            assert len(got) == len(kac), (n, t)
            K = got[-1]
            assert K != 0 and got == [K * x for x in kac], (n, t)


# -- frozen full stack d_1..d_n -------------------------------------------------------
#
# The stacked raising matrix and its minor gcd as they were before the stack
# was cut to d_1, d_2: every raising map d_1..d_n, and the gcd of every
# maximal minor.  find_singular must give the same condition text and the
# same kernel vectors at every binding.


def _full_stack_rows(M, n):
    cols = {w: i for i, w in enumerate(M.basis(n))}
    rows = []
    reg = M.ctx.reg
    for k in range(1, n + 1):
        targets = {w: {} for w in M.basis(n - k)}
        for w, i in cols.items():
            for w2, c2 in M.act(k, {w: M.ctx.one()}).items():
                # raising maps have polynomial entries
                assert c2.den == Poly.const(reg, 1)
                targets[w2][i] = c2.num
        rows.extend(targets[w] for w in M.basis(n - k))
    return rows


def _full_stack_report(M, n):
    reg = M.ctx.reg
    basis = M.basis(n)
    rows = _full_stack_rows(M, n)
    vectors = [
        {w: Scalar.make(p) for w, p in zip(basis, vec) if not p.is_zero()}
        for vec in kernel_basis(reg, rows, len(basis))
    ]
    return minor_gcd_by_enumeration(reg, rows, len(basis)), vectors


# quotient dims at levels 0..5 before the stack was cut, keyed by (c, h):
# the benchmark's Kac points, two points on vanishing loci, and two points
# drawn as (randint(-9, 9) / randint(1, 5)) pairs from random.Random(20261018)
FULL_STACK_QUOTIENT_DIMS = {
    ("1/2", "-1/16"): [1, 1, 1, 2, 2, 3],
    ("1/2", "-1/2"): [1, 1, 1, 1, 2, 2],
    ("0", "-5/8"): [1, 1, 1, 2, 3, 4],
    ("0", "-1/3"): [1, 1, 2, 2, 4, 5],
    ("3/7", "2/5"): [1, 1, 2, 3, 5, 7],
    ("26", "1"): [1, 1, 1, 2, 3, 4],
    ("0", "0"): [1, 0, 0, 0, 0, 0],
    ("-1", "-7/4"): [1, 1, 2, 3, 5, 7],
    ("7/5", "-3"): [1, 1, 2, 3, 5, 7],
}


@pytest.mark.parametrize(
    "bindings",
    [{}, {"c": Fraction(1, 2)}, {"c": 0}]
    + [{"c": Fraction(c), "h": Fraction(h)} for c, h in FULL_STACK_QUOTIENT_DIMS],
    ids=lambda b: ",".join(f"{k}={v}" for k, v in b.items()) or "free",
)
def test_two_operator_stack_matches_full_stack(bindings):
    ctx, M = _verma(L=5, **bindings)
    for n in range(1, 6):
        rep = M.find_singular(n)
        condition, vectors = _full_stack_report(M, n)
        assert str(rep.conditions[0]) == str(condition), n
        assert rep.vectors == vectors, n
        assert M.singular_vectors(n) == vectors, n
    if "h" in bindings:
        key = (str(bindings["c"]), str(bindings["h"]))
        assert M.quotient_dims_after_singular() == FULL_STACK_QUOTIENT_DIMS[key]


def test_raising_rows_keep_d1_d2_only():
    # level n has p(n-1) + p(n-2) rows, so the minor count is 1, 1, 1, 1, 8, 12
    ctx, M = _verma(L=6)
    counts = []
    for n in range(1, 7):
        rows = M.raising_rows(n)
        assert len(rows) == partition_count(n - 1) + partition_count(n - 2)
        counts.append(len(list(itertools.combinations(rows, partition_count(n)))))
    assert counts == [1, 1, 1, 1, 8, 12]


@pytest.mark.parametrize(
    "bindings",
    [{}, {"c": Fraction(1, 2)}, {"c": 0}, {"c": Fraction(1, 2), "h": Fraction(-1, 16)}],
    ids=lambda b: ",".join(f"{k}={v}" for k, v in b.items()) or "free",
)
def test_minor_gcd_matches_combinatorial_minors(bindings):
    # the transpose elimination against every maximal minor of the d_1, d_2
    # stack; at (1/2, -1/16) the stack loses rank at levels 2 and 4
    ctx, M = _verma(L=6, **bindings)
    conditions = []
    for n in range(1, 7):
        rows = M.raising_rows(n)
        ncols = partition_count(n)
        expect = minor_gcd_by_enumeration(ctx.reg, rows, ncols)
        assert minor_gcd(ctx.reg, rows, ncols) == expect, n
        conditions.append(str(expect))
    if "h" in bindings:
        assert conditions == ["1", "0", "1", "0", "1", "1"]


@pytest.mark.parametrize(
    "bindings, zero_conditions",
    [
        ({}, []),
        ({"c": Fraction(1, 2)}, []),
        ({"c": Fraction(1, 2), "h": Fraction(-1, 16)}, [2, 4]),
        ({"c": 0, "h": 0}, [1, 2, 5]),
    ],
    ids=["free", "c=1/2", "c=1/2,h=-1/16", "c=0,h=0"],
)
def test_find_singular_skips_the_kernel_under_a_nonzero_condition(monkeypatch, bindings, zero_conditions):
    # a nonzero condition is a nonzero maximal minor, so the kernel is empty
    # and kernel_basis is not run; the reports stay those of the full kernel.
    # The expected kernels come from a second module: the counted one must
    # start with no level built, or its kernel memo would hide the calls
    _, M = _verma(L=5, **bindings)
    _, reference = _verma(L=5, **bindings)
    expect = {n: reference.singular_vectors(n) for n in range(1, 6)}
    calls = []

    def counted(reg, rows, ncols):
        calls.append(ncols)
        return kernel_basis(reg, rows, ncols)

    monkeypatch.setattr(classical, "kernel_basis", counted)
    zero_levels = []
    for n in range(1, 6):
        del calls[:]
        rep = M.find_singular(n)
        assert rep.vectors == expect[n], n
        if rep.conditions[0].is_zero():
            zero_levels.append(n)
            assert calls == [partition_count(n)], n
        else:
            assert calls == [] and rep.vectors == [], n
    assert zero_levels == zero_conditions

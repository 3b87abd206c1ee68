"""Windowed induced modules: action, bases, quotient dimensions, supports."""

import os
import pickle
import random
import threading
import time
from fractions import Fraction

import pytest

from gvir import induced, linalg, scalars
from gvir.algebra import AlgebraElement, TriangularPart, bracket
from gvir.groups import Group, gzero
from gvir.induced import (
    InducedModule,
    QuotientDims,
    Window,
    double_factorial_odd,
)
from gvir.interseries import IntermediateSeriesModule
from gvir.linalg import symbolic_rank
from gvir.scalars import Context, ExactDivisionError, Packed, Poly, Scalar
from oracles import field_rank, packed_reference, packed_up_to_sign, poly_action, poly_probe_rows, prepare_row


def rank2_module(L=1, N=1, **bindings):
    ctx = Context.of_rank(2, **bindings)
    return InducedModule(ctx, Group.of_rank(2), (0, 1), Window.make(L, N))


def add_into(out, key, s):
    prev = out.get(key)
    t = s if prev is None else prev + s
    if t.is_zero():
        out.pop(key, None)
    else:
        out[key] = t


def as_poly(mod, p):
    """A coefficient of the module's action as a Poly; it must be a nonzero
    Packed in the module's layout."""
    assert type(p) is Packed and p.pk is mod._pk and not p.is_zero()
    return p.poly(mod.ctx.reg)


def poly_rows(mod, rows):
    return [{j: as_poly(mod, p) for j, p in row.items()} for row in rows]


def apply_gen(mod, gen, vec):
    """mod._act on a combination with Poly coefficients; every coefficient
    the action returns is a nonzero Packed, read back as a Poly."""
    out = {}
    for mono, s in vec.items():
        for m2, s2 in mod._act(gen, mono).items():
            add_into(out, m2, s * as_poly(mod, s2))
    return out


def as_scalars(vec):
    return {mono: Scalar.make(p) for mono, p in vec.items()}


def eval_point(poly, vals):
    tot = Fraction(0)
    for e, c in poly.terms.items():
        t = Fraction(c)
        for k, ek in enumerate(e):
            if ek:
                t *= vals[k] ** ek
        tot += t
    return tot


# -- window and membership -----------------------------------------------------


def test_window_defaults_and_validation():
    w = Window.make(2, 3)
    assert w.top_radius == 5
    assert Window.make(1, 1, 7).top_radius == 7
    with pytest.raises(ValueError):
        Window.make(-1, 1)
    with pytest.raises(ValueError):
        Window.make(1, 0)


def test_part_membership():
    mod = rank2_module()
    strict = TriangularPart("strict_plus_level", splitting=mod.split)
    lev = TriangularPart("plus_level", splitting=mod.split)
    assert strict.contains_index((0, 1))
    assert lev.contains_index((3, 0))
    assert not strict.contains_index((3, 0))
    assert not lev.contains_index((0, -1))
    assert strict.contains_index((2, 2))


# -- bases ----------------------------------------------------------------------


def test_level_basis_shapes():
    mod = rank2_module(L=2, N=1)
    # level 0: the top line alone
    assert mod.basis_at(0, (4,)) == [((), (4,))]
    # level 1 at N=1: one factor (1, u), |u| <= 1
    b1 = mod.basis_at(1, (0,))
    assert [f for f, _ in b1] == [((1, (-1,)),), ((1, (0,)),), ((1, (1,)),)]
    for f, mu in b1:
        assert mu == (-f[0][1][0],)
    # level 2 at N=1: three (2, u) plus six nondecreasing (1,u)(1,u') pairs
    b2 = mod.basis_at(2, (0,))
    assert len(b2) == 9
    assert all(sum(k for k, _ in f) == 2 for f, _ in b2)
    # factors are nondecreasing in (k, u)
    for f, _ in b2:
        assert list(f) == sorted(f)


def test_basis_window_is_weight_anchored():
    mod = rank2_module(L=1, N=1)
    far = mod.basis_at(1, (40,))
    near = mod.basis_at(1, (0,))
    assert len(far) == len(near)
    # same factor multisets, top index translated along with the weight
    assert [f for f, _ in far] == [f for f, _ in near]
    assert [mu[0] - 40 for _, mu in far] == [mu[0] for _, mu in near]


def test_basis_excludes_dropped_top_line():
    mod = rank2_module(L=1, N=1, alpha=(1, 0), beta=1)
    assert mod.top_excluded == (-1,)
    row = [mod.basis_at(0, (x,)) for x in range(-2, 3)]
    assert [len(b) for b in row] == [1, 0, 1, 1, 1]
    # level-1 monomials never use the dropped line either
    for f, mu in mod.basis_at(1, (0,)):
        assert mu != (-1,)


# -- action ----------------------------------------------------------------------


def test_raising_kills_top_and_top_action_formula():
    mod = rank2_module()
    ctx = mod.ctx

    def iota(t, y):
        return ctx.embed(mod.split.compose(t, y))

    # level +1 generator on the top line
    assert mod._act((1, (2,)), ((), (3,))) == {}
    # level 0 generator: the intermediate-series coefficient, as a Packed
    out = mod._act((0, (2,)), ((), (3,)))
    top = IntermediateSeriesModule(ctx, mod.group)
    coeff, _ = top.act(mod.split.compose(0, (2,)), mod.split.compose(0, (3,)))
    ((mono, p),) = out.items()
    assert mono == ((), (5,))
    p = as_poly(mod, p)
    assert Scalar.make(p) == coeff
    assert p == ctx.alpha.num + iota(0, (3,)).num + iota(0, (2,)).num * ctx.beta.num
    # lowering generator prepends a factor
    ((mono, p),) = mod._act((-1, (2,)), ((), (3,))).items()
    assert mono == (((1, (2,)),), (3,)) and as_poly(mod, p) == Poly.const(ctx.reg, 1)


def test_mixed_bracket_action_example():
    # d_{y+b} applied to d_{x-b} (x) v_mu collapses to a top action with the
    # bracket coefficient iota(x-b) - iota(y+b)
    mod = rank2_module()
    ctx = mod.ctx
    y, x, mu = (1,), (2,), (3,)
    out = mod._act((1, y), (((1, x),), mu))
    compose = mod.split.compose
    br = ctx.embed(compose(-1, x)) - ctx.embed(compose(1, y))
    top, _ = IntermediateSeriesModule(ctx, mod.group).act(compose(0, (3,)), compose(0, mu))
    ((mono, p),) = out.items()
    assert mono == ((), (6,))
    p = as_poly(mod, p)
    assert Scalar.make(p) == br * top
    assert p == (ctx.embed(compose(-1, x)).num - ctx.embed(compose(1, y)).num) * (
        ctx.alpha.num + ctx.embed(compose(0, mu)).num + ctx.embed(compose(0, (3,))).num * ctx.beta.num
    )
    # the memoized embedding of y + t b
    for t, z in ((-1, x), (1, y), (0, mu)):
        assert mod._embed_gen(t, z) is mod._embed_gen(t, z)
        assert mod._embed_gen(t, z).poly(ctx.reg) == ctx.embed(compose(t, z)).num


@pytest.mark.parametrize("rank,b,trials", [(2, (0, 1), 40), (3, (0, 0, 1), 8)])
def test_action_is_a_lie_module_action(rank, b, trials):
    ctx = Context.of_rank(rank)
    G = Group.of_rank(rank)
    mod = InducedModule(ctx, G, b, Window.make(2, 2))
    rng = random.Random(40 + rank)
    r0 = mod.g0_rank

    def rand_gen():
        return (rng.randint(-2, 2), tuple(rng.randint(-1, 1) for _ in range(r0)))

    def rand_mono():
        nfac = rng.randint(0, 2)
        fs = tuple(
            sorted(
                (rng.randint(1, 2), tuple(rng.randint(-1, 1) for _ in range(r0)))
                for _ in range(nfac)
            )
        )
        return (fs, tuple(rng.randint(-1, 1) for _ in range(r0)))

    # a coefficient with a denominator: act_on_induced is linear over the field
    weight = ctx.one() / (ctx.gen(0) + ctx.alpha)
    nonzero = 0
    for _ in range(trials):
        ga, gb = rand_gen(), rand_gen()
        mono = rand_mono()
        vec = {mono: Poly.const(ctx.reg, 1)}
        lhs = apply_gen(mod, ga, apply_gen(mod, gb, vec))
        for mono2, s in apply_gen(mod, gb, apply_gen(mod, ga, vec)).items():
            add_into(lhs, mono2, -s)
        za = mod.split.compose(*ga)
        zb = mod.split.compose(*gb)
        br = bracket(AlgebraElement.d(ctx, G, za), AlgebraElement.d(ctx, G, zb))
        rhs, _ = mod.act_on_induced(br, {mono: ctx.one()})
        assert all(type(s) is Scalar for s in rhs.values())
        assert as_scalars(lhs) == rhs
        scaled, _ = mod.act_on_induced(br, {mono: weight})
        assert scaled == {m: weight * s for m, s in rhs.items()}
        nonzero += bool(rhs)
    assert nonzero >= trials // 2


def test_action_widens_the_layout_for_longer_monomials():
    # an L=1 module lays out degree 2; a monomial with four factors needs
    # degree 5, so the layout widens and the memos of packed values restart
    mod = rank2_module(L=1, N=1)
    assert mod._degree == 2 and mod.dims_at(1, (0,), 1) == 3
    mono = (((1, (-1,)), (1, (0,)), (1, (1,)), (2, (0,))), (1,))
    oracle = poly_action(mod)
    for gen in ((3, (1,)), (2, (-1,)), (0, (2,))):
        got = {m: as_poly(mod, p) for m, p in mod._act(gen, mono).items()}
        assert got and got == oracle.lmul((-gen[0], gen[1]), mono)
    assert mod._degree == 5 and len(mod._act_memo) > 0
    mod._dims_memo.clear()
    assert mod.dims_at(1, (0,), 1) == 3


def test_central_element_acts_as_zero():
    mod = rank2_module()
    ctx = mod.ctx
    vec = {(((1, (0,)),), (2,)): ctx.one()}
    out, escaped = mod.act_on_induced(AlgebraElement.central(ctx, mod.group, 5), vec)
    assert out == {} and not escaped


def test_act_on_induced_escape_flag():
    mod = rank2_module(L=1, N=1)
    ctx = mod.ctx
    vec = {((), (0,)): ctx.one()}
    # a lowering with a G0 shift beyond the factor box escapes the window
    far = AlgebraElement.d(ctx, mod.group, mod.split.compose(-1, (4,)))
    out, escaped = mod.act_on_induced(far, vec)
    assert out and escaped
    near = AlgebraElement.d(ctx, mod.group, mod.split.compose(-1, (1,)))
    out, escaped = mod.act_on_induced(near, vec)
    assert out and not escaped


# -- quotient dimensions -----------------------------------------------------------


def test_level0_row_matches_top_module_row():
    # generic top: all ones
    mod = rank2_module(L=1, N=1)
    q = mod.quotient_dims()
    assert set(q.level_row(0).values()) == {1}
    # reduced top: same row as the rank-1 intermediate-series sub-quotient
    mod2 = rank2_module(L=1, N=1, alpha=(2, 0), beta=1)
    q2 = mod2.quotient_dims()
    a0 = mod2.split.g0_coords((2, 0))
    top_ctx = Context.of_rank(1, alpha=a0, beta=1)
    top = IntermediateSeriesModule(top_ctx, Group.of_rank(1))
    window = [x for (x,) in sorted(q2.level_row(0))]
    expected = {(y[0],): d for y, d in top.dims_row([(x,) for x in window])}
    assert {x: d for x, d in q2.level_row(0).items()} == expected


def test_generic_dims_are_translation_constant_and_frozen_values():
    mod = rank2_module(L=2, N=1)
    q = mod.quotient_dims()
    for i, expected in [(0, 1), (1, 3), (2, 9)]:
        row = q.level_row(i)
        assert set(row.values()) == {expected}
    assert all(q.stable.values())
    assert q.bound_ok()
    # direct per-weight computation agrees with the constant-row fast path
    assert mod.dims_at(1, (2,), 1) == 3
    assert mod.dims_at(2, (-3,), 1) == 9


def test_dims_monotone_in_box_radius():
    mod = rank2_module(L=2, N=1)
    q = mod.quotient_dims()
    assert all(q.entries[k] <= q.next_entries[k] for k in q.entries)


def test_dims_respect_double_factorial_bound():
    assert [double_factorial_odd(i) for i in range(4)] == [1, 3, 15, 105]
    mod = rank2_module(L=2, N=1)
    q = mod.quotient_dims()
    for (i, _), d in q.entries.items():
        assert d <= double_factorial_odd(i)


def test_reduced_top_dims_table():
    mod = rank2_module(L=1, N=1, alpha=(2, 0), beta=1)
    q = mod.quotient_dims()
    assert q.entries[(0, (-2,))] == 0
    assert set(q.level_row(1).values()) == {2}
    assert all(q.stable.values())

    mod0 = rank2_module(L=1, N=1, alpha=0, beta=0)
    q0 = mod0.quotient_dims()
    assert q0.entries[(0, (0,))] == 0
    assert set(q0.level_row(1).values()) == {2}


def test_alpha_g0_coordinates_and_unit_var():
    # alpha = iota(a) with a at b-level 0 gives G0 coordinates; a nonzero
    # b-level, a nonzero rational or a free alpha gives none
    ctx = Context.of_rank(3, alpha=(2, -1, 0))
    mod = InducedModule(ctx, Group.of_rank(3), (0, 0, 1), Window.make(1, 1))
    assert mod.split.compose(0, mod.alpha_g0) == (2, -1, 0) and mod.unit_var == 2
    for alpha in ((1, 0, 1), (0, 0, -2)):
        ctx = Context.of_rank(3, alpha=alpha)
        mod = InducedModule(ctx, Group.of_rank(3), (0, 0, 1), Window.make(1, 1))
        assert mod.alpha_g0 is None and mod.top_excluded is None
        assert mod.unit_var == 2  # every entry stays homogeneous
    assert rank2_module(alpha=0).alpha_g0 == (0,)
    assert rank2_module(alpha=Fraction(1, 2)).alpha_g0 is None
    assert rank2_module(alpha=Fraction(1, 2)).unit_var is None
    assert rank2_module().alpha_g0 is None and rank2_module().unit_var == 1


def test_rank3_level1_dims():
    ctx = Context.of_rank(3)
    mod = InducedModule(ctx, Group.of_rank(3), (0, 0, 1), Window.make(1, 1))
    assert mod.dims_at(1, (0, 0), 1) == 3
    assert mod.dims_at(1, (0, 0), 2) == 3


def test_dims_against_independent_field_oracle_level1():
    mod = rank2_module(L=1, N=2)
    cols = mod.basis_at(1, (1,), 2)
    rows = mod._probe_rows(1, (1,), cols, 2)
    assert symbolic_rank(mod.ctx.reg, [dict(r) for r in rows]) == field_rank(
        mod.ctx.reg, poly_rows(mod, rows), len(cols)
    )


def _coefficient_types(rows):
    """Per entry, its terms (monomial, coefficient type) in monomial order;
    entries are packed term dicts."""
    return [{j: sorted((m, type(c).__name__) for m, c in t.items()) for j, t in r.items()} for r in rows]


@pytest.mark.parametrize(
    "rank, L, bindings",
    [
        (2, 2, {}),
        (3, 1, {}),
        (2, 2, {"alpha": [1, 0], "beta": 0}),
        (2, 2, {"alpha": [1, 0], "beta": 1}),
        (2, 2, {"alpha": [1, 0], "beta": 2}),
        (2, 2, {"alpha": Fraction(1, 2), "beta": 1}),
        # three-operator probes: the first whose prefixes recurse
        (2, 3, {}),
    ],
    ids=[
        "free-rank2", "free-rank3", "reducible-beta0", "reducible-beta1", "alpha-beta2", "alpha-half",
        "free-rank2-L3",
    ],
)
def test_probe_rows_match_frozen_row_by_row_copy(rank, L, bindings):
    ctx = Context.of_rank(rank, **bindings)
    b = (0,) * (rank - 1) + (1,)
    mod = InducedModule(ctx, Group.of_rank(rank), b, Window.make(L, 1))
    if "alpha" in bindings:
        # the weights around the top reach the dropped line of a reducible top
        weights = [(v,) for v in range(-2, 3)]
    else:
        weights = [gzero(mod.g0_rank)]
    reducible = bindings.get("alpha") == [1, 0] and bindings["beta"] in (0, 1)
    assert (mod.top_excluded is not None) == reducible
    # a nonzero rational alpha: no generator is set to 1 in the rank
    assert mod.unit_var == (None if bindings.get("alpha") == Fraction(1, 2) else rank - 1)
    nonempty = 0
    # radius 2 at level 3 builds 93 rows, slowly in the row-by-row copy
    radii = (1, 2) if L <= 2 else (1,)
    for radius in radii:
        for i in range(L + 1):
            for x in weights:
                cols = mod.basis_at(i, x, radius)
                packed = mod._probe_rows(i, x, cols, radius)
                got = poly_rows(mod, packed)
                expect = poly_probe_rows(mod, i, x, cols, radius)
                # the same rows in the same order, columns inserted in the
                # same order, and equal Poly values; the coefficient types are
                # those of the rows symbolic_rank receives, read before any
                # unpacking, against the Poly rows packed in the same layout
                assert got == expect
                assert [list(r) for r in got] == [list(r) for r in expect]
                assert _coefficient_types([{j: p.terms for j, p in r.items()} for r in packed]) == (
                    _coefficient_types([{j: mod._pk.pack(p) for j, p in r.items()} for r in expect])
                )
                nonempty += bool(got)
    assert nonempty >= len(radii) * (L + 1)


@pytest.mark.parametrize(
    "rank, b, bindings, L",
    [
        (2, (0, 1), {"alpha": (1, 0), "beta": 0}, 2),
        (2, (0, 1), {"alpha": (1, 0), "beta": Fraction(1, 2)}, 2),
        (2, (0, 1), {"alpha": (1, 0)}, 2),
        (2, (1, -1), {"beta": Fraction(1, 2)}, 2),
        (2, (1, 2), {"beta": 2}, 1),
        (2, (0, 1), {"alpha": Fraction(1, 2), "beta": 1}, 2),
        (3, (0, 0, 1), {}, 1),
        (3, (0, 0, 1), {"alpha": (1, 0, 0), "beta": 0}, 1),
    ],
    ids=["reducible", "beta-half", "beta-free", "free-beta-half", "free-beta2", "alpha-half", "rank3", "rank3-bound"],
)
def test_prepared_probe_rows_match_the_old_way(rank, b, bindings, L):
    # the packed probe rows, prepared on packed terms for the elimination,
    # against rows built the old way: the action on Poly coefficients, row
    # by row, then the Poly preparation and a packing
    ctx = Context.of_rank(rank, **bindings)
    mod = InducedModule(ctx, Group.of_rank(rank), b, Window.make(L, 1))
    nvars = len(ctx.reg)
    weights = [gzero(mod.g0_rank)] if mod.alpha_free else mod.report_weights(L)[:3]
    checked = 0
    for radius in (1, 2):
        for i in range(L + 1):
            for x in weights:
                cols = mod.basis_at(i, x, radius)
                rows = mod._probe_rows(i, x, cols, radius)
                prep = linalg._Prepared(nvars, rows, mod.unit_var)
                pk = linalg._Packing(linalg._field_bounds(nvars, prep.tops))
                expect, fields = packed_reference(nvars, poly_probe_rows(mod, i, x, cols, radius), mod.unit_var)
                got = prep.pack(pk)
                assert pk.fields == fields and len(got) == len(expect)
                assert all(map(packed_up_to_sign, got, expect))
                assert _coefficient_types(got) == _coefficient_types(expect)
                checked += bool(expect)
    assert checked >= 2 * L


def test_a_layout_too_narrow_raises_and_never_wraps(monkeypatch):
    # exponents two apart in one field: the product sets the guard bit
    pk = scalars._Packing([1, 1])
    reg = Context.of_rank(1).reg[:2]
    g = Packed.of(pk, Poly.monomial(reg, (1, 0)))
    assert (g * Packed.of(pk, Poly.monomial(reg, (0, 1)))).poly(reg) == Poly.monomial(reg, (1, 1))
    with pytest.raises(scalars._FieldOverflow):
        g * g
    # a module whose layout holds degree 1 only, kept from widening: the
    # level-2 probe entries (degree up to 4) raise instead of wrapping
    mod = rank2_module(L=2, N=1, alpha=(1, 0), beta=0)
    mod._degree = 0
    mod._fit(1)
    monkeypatch.setattr(mod, "_fit", lambda degree: None)
    with pytest.raises(scalars._FieldOverflow):
        mod.dims_at(2, (0,), 1)


@pytest.mark.parametrize("beta", [Fraction(1, 2), 2, None], ids=["beta-half", "beta2", "beta-free"])
def test_known_defect_configs_still_raise(monkeypatch, beta):
    # the three delayed-divisor configs of the benchmark: b=[0,1],
    # alpha=[1,0], L=2, N=1; the packed path hands the elimination the same
    # rows, so it raises at the same step
    _one_cpu(monkeypatch)
    bindings = {"alpha": (1, 0)} | ({} if beta is None else {"beta": beta})
    with pytest.raises(ExactDivisionError, match="division is not exact"):
        rank2_module(L=2, N=1, **bindings).quotient_dims()


def test_induced_ranks_form_no_gcd(monkeypatch):
    # probe entries are polynomial by construction and rows are stripped of
    # monomials and rational content only, so no polynomial gcd is formed
    def no_gcd(a, b):
        raise AssertionError("the induced rank path formed a gcd")

    monkeypatch.setattr(scalars, "_gcd_prim", no_gcd)
    bound = rank2_module(L=1, N=1, alpha=(2, 0), beta=1).quotient_dims()
    assert bound.entries[(0, (-2,))] == 0
    assert set(bound.level_row(1).values()) == {2}
    assert all(bound.stable.values())
    free = rank2_module(L=2, N=1).quotient_dims()
    for i, expected in [(0, 1), (1, 3), (2, 9)]:
        assert set(free.level_row(i).values()) == {expected}
    # the patch is live: a quotient of two polynomials reaches it
    reg = free.module.ctx.reg
    with pytest.raises(AssertionError, match="formed a gcd"):
        Scalar.make(Poly.symbol(reg, "g1"), Poly.symbol(reg, "g2"))


@pytest.mark.xfail(strict=True, raises=ExactDivisionError, reason="delayed-divisor defect")
def test_known_defect_alpha_bound_beta_half():
    # the CLI config b=[0,1], alpha=[1,0], beta=1/2, L=2, N=1 exits 3: a
    # delayed divisor of symbolic_rank does not divide its next numerator
    mod = rank2_module(L=2, N=1, alpha=(1, 0), beta=Fraction(1, 2))
    table = mod.quotient_dims()
    assert table.to_json()["entry_count"] > 0


@pytest.mark.xfail(strict=True, raises=ExactDivisionError, reason="delayed-divisor defect")
def test_known_defect_alpha_bound_beta_half_level1():
    # the same defect at L=1, N=1 (about 0.02 s): a change to the probe
    # matrices or to the elimination that moves the defect shows here
    mod = rank2_module(L=1, N=1, alpha=(1, 0), beta=Fraction(1, 2))
    table = mod.quotient_dims()
    assert table.to_json()["entry_count"] > 0


@pytest.mark.xfail(strict=True, raises=ExactDivisionError, reason="delayed-divisor defect")
def test_known_defect_alpha_zero_beta_half_level1():
    # alpha = 0 reaches the defect too: the CLI config b=[0,1], alpha=[0,0],
    # beta=1/2, L=1, N=1 exits 3
    mod = rank2_module(L=1, N=1, alpha=(0, 0), beta=Fraction(1, 2))
    table = mod.quotient_dims()
    assert table.to_json()["entry_count"] > 0


def test_dims_bound_specialized_rank():
    # a rational specialization of the probe matrix can only lose rank
    mod = rank2_module(L=2, N=1)
    rng = random.Random(11)
    vals = [Fraction(rng.randint(2, 400), rng.randint(1, 11)) for _ in mod.ctx.reg]
    for (i, x) in [(1, (0,)), (2, (0,))]:
        cols = mod.basis_at(i, x, 1)
        rows = poly_rows(mod, mod._probe_rows(i, x, cols, 1))
        from gvir.linalg import Echelon
        from gvir.scalars import Poly

        ech = Echelon(len(cols))
        for r in rows:
            ech.add_row(
                {
                    j: Poly.const(mod.ctx.reg, eval_point(p, vals))
                    for j, p in r.items()
                    if eval_point(p, vals) != 0
                }
            )
        assert ech.rank <= mod.dims_at(i, x, 1)
        assert ech.rank == mod.dims_at(i, x, 1)  # deterministic generic point


# -- the windowed maximal submodule ------------------------------------------------


def test_level1_kernel_is_killed_by_pool_raisings():
    mod = rank2_module(L=1, N=2)
    ctx = mod.ctx
    kv = mod.kernel_at(1, (0,), 2)
    assert len(kv) == len(mod.basis_at(1, (0,), 2)) - 3
    for v in kv:
        assert v and all(type(s) is Scalar and not s.is_zero() for s in v.values())
        for y in range(-2, 3):
            raising = AlgebraElement.d(ctx, mod.group, mod.split.compose(1, (y,)))
            assert mod.act_on_induced(raising, v) == ({}, False)
        # the same vectors cleared of denominators, through the Poly action
        den = Poly.const(ctx.reg, 1)
        for s in v.values():
            den = den * s.den
        cleared = {mono: s.num * den.exact_div(s.den) for mono, s in v.items()}
        for y in range(-2, 3):
            assert apply_gen(mod, (1, (y,)), cleared) == {}
    # a vector outside the kernel is not killed
    outside = {mono: ctx.one() for mono in mod.basis_at(1, (0,), 2)}
    raising = AlgebraElement.d(ctx, mod.group, mod.split.compose(1, (0,)))
    assert mod.act_on_induced(raising, outside)[0]


def test_level2_kernel_closed_under_raising_at_a_point():
    # raising a windowed J vector at level 2 lands in windowed J at level 1:
    # checked exactly at a deterministic rational point.  At N=1 the level-2
    # window has no kernel (9 columns, rank 9), so N=2 (20 columns, rank 9).
    mod = rank2_module(L=2, N=2)
    reg = mod.ctx.reg
    rng = random.Random(23)
    vals = [Fraction(rng.randint(2, 300), rng.randint(1, 7)) for _ in reg]
    i, x, N = 2, (0,), 2
    cols = mod.basis_at(i, x, N)
    rows = poly_rows(mod, mod._probe_rows(i, x, cols, N))
    # Fraction kernel of the specialized probe matrix
    dense = [[eval_point(r.get(j, None) or None, vals) if j in r else Fraction(0) for j in range(len(cols))] for r in rows]
    # gaussian elimination
    mat = [row[:] for row in dense]
    pivots = []
    rr = 0
    for c in range(len(cols)):
        piv = next((k for k in range(rr, len(mat)) if mat[k][c] != 0), None)
        if piv is None:
            continue
        mat[rr], mat[piv] = mat[piv], mat[rr]
        inv = 1 / mat[rr][c]
        mat[rr] = [v * inv for v in mat[rr]]
        for k in range(len(mat)):
            if k != rr and mat[k][c] != 0:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[rr])]
        pivots.append(c)
        rr += 1
    free = [c for c in range(len(cols)) if c not in pivots]
    assert len(free) == len(cols) - mod.dims_at(i, x, N) == 11
    for f in free:
        vec = {cols[f]: Fraction(1)}
        for k, pc in enumerate(pivots):
            if mat[k][f] != 0:
                vec[cols[pc]] = -mat[k][f]
        # apply a raising and evaluate every level-1 probe on the image
        for y in [(-1,), (0,), (1,)]:
            img = {}
            for mono, w in vec.items():
                for m2, s2 in mod._act((1, y), mono).items():
                    img[m2] = img.get(m2, Fraction(0)) + w * eval_point(as_poly(mod, s2), vals)
            img = {m: v for m, v in img.items() if v != 0}
            for y2 in [(-1,), (0,), (1,)]:
                val = Fraction(0)
                for mono, w in img.items():
                    got = mod._act((1, y2), mono)
                    for (fs, nu), s2 in got.items():
                        assert fs == ()
                        val += w * eval_point(as_poly(mod, s2), vals)
                assert val == 0


# -- support and strings -------------------------------------------------------------


def test_support_patterns():
    q = rank2_module(L=1, N=1).quotient_dims()
    assert q.support_check() == {"verdict": "pattern_A", "violations": []}
    qb = rank2_module(L=1, N=1, alpha=(1, 0), beta=1).quotient_dims()
    assert qb.support_check()["verdict"] == "pattern_B"
    q0 = rank2_module(L=1, N=1, alpha=0, beta=0).quotient_dims()
    assert q0.support_check()["verdict"] == "pattern_B"


def test_string_boundedness_directions():
    q = rank2_module(L=1, N=1).quotient_dims()
    assert q.string_boundedness((1, 0)) == "bounded"
    assert q.string_boundedness((0, 1)) == "truncated_above"
    assert q.string_boundedness((1, 1)) == "truncated_above"
    # b = (0, 1) and g = (2, -1) = 2 g1 - b: along g the level grows, so
    # the strings stop on the negative side
    assert q.string_boundedness((2, -1)) == "truncated_below"
    with pytest.raises(ValueError):
        q.string_boundedness((0, 0))


def test_string_boundedness_reads_the_stable_entries():
    q = rank2_module(L=1, N=1).quotient_dims()
    level1 = [k for k in q.entries if k[0] == 1]
    assert len(level1) > 3 and all(q.entries[k] for k in level1)
    # with every level-1 entry zero the support is the top row alone, and
    # a string along b is finite
    zeroed = dict(q.entries) | {k: 0 for k in level1}
    flat = QuotientDims(q.module, q.window, zeroed, zeroed, q.stable)
    assert flat.string_boundedness((0, 1)) == "bounded"
    assert flat.string_boundedness((1, 0)) == "bounded"
    # the same zeros flagged unstable are left out: the top row, with the
    # zero rows above it, is truncated above again
    unstable = dict(q.stable) | {k: False for k in level1}
    hidden = QuotientDims(q.module, q.window, zeroed, zeroed, unstable)
    assert hidden.string_boundedness((0, 1)) == "truncated_above"


def test_json_report_shape():
    q = rank2_module(L=1, N=1).quotient_dims()
    j = q.to_json()
    assert j["level_cap"] == 1 and j["box_radius"] == 1 and j["top_radius"] == 2
    assert j["support_check"]["verdict"] == "pattern_A"
    assert j["stable_count"] == j["entry_count"] == len(j["rows"])
    assert {r["level"] for r in j["rows"]} == {0, 1}
    assert j["max_dim_per_level"] == {"0": 1, "1": 3}


# -- helper processes of quotient_dims -------------------------------------------
#
# quotient_dims forks one helper when os.sched_getaffinity(0) holds a second
# CPU and the table has at least two unranked keys, however many CPUs there
# are; the helper ranks keys from the back while the caller ranks them from
# the front, and no rank forks a rank peer while the helper lives.  Pinning
# the CPUs to {0} gives the single-process reference table.


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _table(rank, b, bindings, window):
    ctx = Context.of_rank(rank, **bindings)
    q = InducedModule(ctx, Group.of_rank(rank), b, window).quotient_dims()
    return q.entries, q.next_entries, q.stable


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls of this process, with two usable CPUs."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


REDUCIBLE_L2 = (2, (0, 1), {"alpha": (1, 0), "beta": 0}, Window.make(2, 1))


@pytest.fixture
def logged(monkeypatch):
    """A list of (pid, entry) pairs that a test appends to in either process;
    the helper's own pairs travel back in the pickle it sends and join the
    caller's list."""
    log = []
    real_send, real_recv = induced.send, induced.recv

    def send(fd, done):
        real_send(fd, (done, [e for e in log if e[0] == os.getpid()]))

    def recv(pipe):
        done, theirs = real_recv(pipe)
        log.extend(theirs)
        return done

    monkeypatch.setattr(induced, "send", send)
    monkeypatch.setattr(induced, "recv", recv)
    return log


@pytest.fixture
def claims(monkeypatch, logged):
    """The keys each process ranks (the memo misses of dims_at), in order,
    as (pid, key) pairs in `logged`."""
    real_dims_at = InducedModule.dims_at

    def dims_at(self, i, x, radius=None):
        if (i, tuple(x), radius) not in self._dims_memo:
            logged.append((os.getpid(), (i, tuple(x), radius)))
        return real_dims_at(self, i, x, radius)

    monkeypatch.setattr(InducedModule, "dims_at", dims_at)
    return logged


def _sides(log):
    """The caller's and the helper's entries of a `logged` list."""
    caller = os.getpid()
    return [e for pid, e in log if pid == caller], [e for pid, e in log if pid != caller]


def _ends_meet(claims, module):
    """The caller ranked a prefix of an alpha-bound table's keys in table
    order, the helper a suffix from the back, and they met: no key is left,
    and at most the one where they met was ranked twice."""
    N = module.window.box_radius
    keys = [(i, x, r) for i in range(module.window.level_cap + 1) for x in module.report_weights(i) for r in (N, N + 1)]
    mine, theirs = _sides(claims)
    assert mine == keys[: len(mine)] and theirs == keys[::-1][: len(theirs)]
    assert len(keys) <= len(mine) + len(theirs) <= len(keys) + 1


@pytest.mark.parametrize(
    "rank, b, bindings, window",
    [
        REDUCIBLE_L2,
        (2, (0, 1), {"alpha": (1, 0), "beta": 1}, Window.make(2, 1)),
        (2, (0, 1), {"alpha": (0, 1), "beta": Fraction(1, 2)}, Window.make(1, 1)),
        (2, (1, 2), {"alpha": (1, 1)}, Window.make(1, 1)),
        (3, (0, 0, 1), {"alpha": (1, 0, 0), "beta": 0}, Window.make(1, 1, 1)),
        (2, (0, 1), {"alpha": Fraction(1, 2), "beta": 0}, Window.make(1, 2)),
    ],
    ids=["reducible-beta0-L2", "reducible-beta1-L2", "alpha-outside-g0", "beta-free", "rank3", "alpha-rational"],
)
def test_helpers_give_the_single_process_table(monkeypatch, forks, claims, rank, b, bindings, window):
    module = InducedModule(Context.of_rank(rank, **bindings), Group.of_rank(rank), b, window)
    tables = {}
    for cpus in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        claims.clear()
        before = len(forks)
        tables[cpus] = _table(rank, b, bindings, window)
        # every table of at least two keys forks exactly one helper, at 2
        # and 3 CPUs alike, and the two rank it from opposite ends
        assert len(forks) - before == 1
        _no_child_left()
        _ends_meet(claims, module)
    _one_cpu(monkeypatch)
    before = len(forks)
    alone = _table(rank, b, bindings, window)
    assert len(forks) == before
    assert tables[2] == alone and tables[3] == alone
    entries, next_entries, stable = alone
    assert set(entries) == set(next_entries) == set(stable) and any(entries.values())


def test_the_two_ends_meet_once_in_every_run(monkeypatch, forks, claims):
    # the claims race: over many runs of a small table, wherever the two
    # sides meet, they meet once, and the table is the one-CPU table
    table = (2, (0, 1), {"alpha": (0, 1), "beta": Fraction(1, 2)}, Window.make(1, 1))
    _one_cpu(monkeypatch)
    expect = _table(*table)
    module = InducedModule(Context.of_rank(2, **table[2]), Group.of_rank(2), table[1], table[3])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for _ in range(30):
        del claims[:]
        assert _table(*table) == expect
        _ends_meet(claims, module)
    assert len(forks) == 30
    _no_child_left()


def _above_peer_floor(reg, rows, unit_var):
    """The prepared matrix's size against the peer floor, counted here on
    the rows read back as Polys and prepared the old way."""
    rows = [{j: p.poly(reg) for j, p in row.items()} for row in rows]
    work = [r for r in (prepare_row(row, unit_var)[0] for row in rows) if r]
    terms = sum(len(p.terms) for row in work for p in row.values())
    occurring = {v for row in work for p in row.values() for e in p.terms for v, k in enumerate(e) if k}
    return len(work) >= linalg._PEER_ROWS and terms * len(occurring) >= linalg._PEER_COST


def _reduced_above_peer_floor(rows, pk):
    """The floor read on the reduced packed rows of the layout pk: a variable
    counts when some term has a nonzero exponent in its field."""
    terms = [m for row in rows for t in row.values() for m in t]
    occurring = [s for _, s, limit in pk.fields if any(m >> s & (limit - 1) for m in terms)]
    return len(rows) >= linalg._PEER_ROWS and len(terms) * len(occurring) >= linalg._PEER_COST


def test_alpha_free_table_forks_one_helper_and_no_peer(monkeypatch, forks, logged):
    # the table's keys are its levels at radii N and N+1, and its top level
    # holds nearly all the cost: the caller and one helper rank from the two
    # ends, and while the helper lives no rank forks a rank peer, however
    # many CPUs are usable.  At beta = 2 the 24-row top matrix is above the
    # floor but its reduced matrix is not; beta free keeps a reduced matrix
    # above it, which would fork a peer alone.  Its bounds close it, so they
    # decline here until the last check
    seen = {}
    real_rank, real_inner, real_reduced = induced.symbolic_rank, linalg._rank, linalg._reduced
    real_bounds = linalg._proven_rank

    def declines(rows, fields, guard):
        seen["closed"] = real_bounds(rows, fields, guard) is not None
        return None

    def rank(reg, rows, unit_var=None):
        # per rank, in the process that ranks it: forks, above the floor,
        # reduced, reduced above the floor, whether the bounds would close it
        before = len(forks)
        seen.clear()
        d = real_rank(reg, rows, unit_var=unit_var)
        reduced = seen.get("reduced")
        above = reduced is not None and _reduced_above_peer_floor(reduced, seen["pk"])
        entry = (len(forks) - before, _above_peer_floor(reg, rows, unit_var), reduced is not None, above)
        logged.append((os.getpid(), (*entry, seen.get("closed", False))))
        return d

    def inner(packed, pk):
        seen["pk"] = pk
        return real_inner(packed, pk)

    def reduced(rows):
        out = seen["reduced"] = real_reduced(rows)
        assert len(out) < len(rows)  # the probe rows are redundant over Q
        return out

    monkeypatch.setattr(induced, "symbolic_rank", rank)
    monkeypatch.setattr(linalg, "_rank", inner)
    monkeypatch.setattr(linalg, "_reduced", reduced)
    monkeypatch.setattr(linalg, "_proven_rank", declines)
    tables = {}
    for cpus in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for beta in (2, None):
            del logged[:]
            before = len(forks)
            q = rank2_module(L=2, N=1, beta=beta).quotient_dims()
            tables[cpus, beta] = q.entries, q.next_entries, q.stable
            ranks = [e for _, e in logged]
            # three levels at two radii; the two sides may both rank one
            assert 6 <= len(ranks) <= 7
            # the pre-pass runs exactly on the matrices above the floor
            assert all(was_reduced == above for _, above, was_reduced, *_ in ranks)
            assert any(above for _, above, *_ in ranks)
            assert any(still for *_, still, _ in ranks) == (beta is None)
            # the bounds would have closed each reduced matrix above the floor
            assert all(closed for *_, still, closed in ranks if still)
            # the helper is the one fork: no rank of either process forks
            assert all(n == 0 for n, *_ in ranks)
            assert len(forks) - before == 1
            _no_child_left()
    assert [len(set(q.level_row(i).values())) for i in range(3)] == [1, 1, 1]
    # alone, as one key, the beta-free top matrix forks one rank peer
    del logged[:]
    before = len(forks)
    rank2_module(L=2, N=1).dims_at(2, (0,), 2)
    assert [e[:4] for _, e in logged] == [(1, True, True, True)] and len(forks) == before + 1
    _no_child_left()
    monkeypatch.setattr(induced, "symbolic_rank", real_rank)
    _one_cpu(monkeypatch)
    for beta in (2, None):
        before = len(forks)
        alone = rank2_module(L=2, N=1, beta=beta).quotient_dims()
        assert len(forks) == before
        assert tables[2, beta] == tables[3, beta] == (alone.entries, alone.next_entries, alone.stable)
    # with its bounds, two CPUs fork the helper alone, for the same tables
    monkeypatch.setattr(linalg, "_proven_rank", real_bounds)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for beta in (2, None):
        before = len(forks)
        q = rank2_module(L=2, N=1, beta=beta).quotient_dims()
        assert len(forks) == before + 1
        assert (q.entries, q.next_entries, q.stable) == tables[2, beta]


def test_alpha_bound_table_forks_one_helper_at_three_cpus(monkeypatch, forks):
    # a call forks one child at most: at three usable CPUs a table forks one
    # helper, and the caller's ranks, made while it is live, fork no peer
    # even with the peer floors at 0
    _one_cpu(monkeypatch)
    expect = _table(*REDUCIBLE_L2)
    monkeypatch.setattr(linalg, "_PEER_ROWS", 0)
    monkeypatch.setattr(linalg, "_PEER_COST", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _table(*REDUCIBLE_L2) == expect
    assert forks == [os.getpid()]
    _no_child_left()


@pytest.mark.parametrize("failure", ["exit", "garbage"])
def test_helper_that_reports_nothing_still_gives_the_table(monkeypatch, forks, failure):
    _one_cpu(monkeypatch)
    expect = _table(*REDUCIBLE_L2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = os.getpid()
    if failure == "exit":
        real_dims_at = InducedModule.dims_at

        def dims_at(self, *args):
            if os.getpid() != caller:
                os._exit(0)  # dies without a word
            return real_dims_at(self, *args)

        monkeypatch.setattr(InducedModule, "dims_at", dims_at)
    else:
        # the helper's pickle ends early, as if it died mid-write
        monkeypatch.setattr(induced, "send", lambda fd, obj: os.write(fd, pickle.dumps(obj)[:-2]))
    assert _table(*REDUCIBLE_L2) == expect
    assert len(forks) == 1
    _no_child_left()


def test_a_caller_with_live_helpers_forks_no_peers(monkeypatch, forks):
    # with the peer floor at 0 every rank of two usable CPUs splits its rows;
    # but the caller ranks its end of the table, and then the keys of a
    # helper that reported nothing, while that helper is live, so the helper
    # is the one fork
    _one_cpu(monkeypatch)
    expect = _table(*REDUCIBLE_L2)
    monkeypatch.setattr(linalg, "_PEER_ROWS", 0)
    monkeypatch.setattr(linalg, "_PEER_COST", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(induced, "send", lambda fd, obj: None)
    assert _table(*REDUCIBLE_L2) == expect
    assert len(forks) == 1
    _no_child_left()
    # without the helper the caller ranks every key, and each of its large
    # ranks forks a peer
    monkeypatch.setattr(induced, "second_cpu", lambda: False)
    assert _table(*REDUCIBLE_L2) == expect
    assert len(forks) > 2
    _no_child_left()


@pytest.mark.parametrize("blocker", ["one-cpu", "live-thread"])
def test_one_cpu_or_a_live_thread_never_forks(monkeypatch, blocker):
    def fork():
        raise AssertionError("quotient_dims forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if blocker == "one-cpu" else {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if blocker == "live-thread":
        thread.start()
    try:
        entries, _, stable = _table(*REDUCIBLE_L2)
    finally:
        release.set()
        if blocker == "live-thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert entries[(0, (-1,))] == 0 and all(stable.values())


DEFECT_L1 = {"L": 1, "N": 1, "alpha": (1, 0), "beta": Fraction(1, 2)}


@pytest.mark.parametrize("end", ["caller", "helper"])
def test_the_known_defect_raises_the_one_cpu_error_from_either_end(monkeypatch, forks, claims, end):
    # the defect table's failing keys are level 1 at weight -1, radii 1 and
    # 2, in the middle of its 24 keys.  The helper, from the back, meets the
    # second one first and stops there, so the caller meets the first one in
    # its own claims and raises before it reads the pipe.  With the second
    # one ranked beforehand (its memo entry set; the run raises before any
    # table reads it) and a caller that starts late, the helper claims the
    # first failing key, fails on it and sends what it finished, and the
    # caller meets that key in its table-order sweep.  Either way the run
    # raises what one process raises
    first, second = (1, (-1,), 1), (1, (-1,), 2)

    def run():
        module = rank2_module(**DEFECT_L1)
        if end == "helper":
            module._dims_memo[second] = 0
        with pytest.raises(ExactDivisionError) as raised:
            module.quotient_dims()
        return module, raised.value

    _one_cpu(monkeypatch)
    _, alone = run()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller, real_dims_at = os.getpid(), InducedModule.dims_at

    def dims_at(self, *args):
        if end == "helper" and os.getpid() == caller and len(self._dims_memo) == 1:
            time.sleep(1.0)  # the caller starts late
        return real_dims_at(self, *args)

    monkeypatch.setattr(InducedModule, "dims_at", dims_at)
    del claims[:]
    module, got = run()
    assert type(got) is type(alone) and str(got) == str(alone)
    assert len(forks) == 1
    _no_child_left()
    keys = [(i, x, r) for i in range(2) for x in module.report_weights(i) for r in (1, 2)]
    if end == "helper":
        keys.remove(second)
    mine, theirs = _sides(claims)
    # the caller ranks the keys in front of the first failing key, then it
    assert mine == keys[: keys.index(first) + 1]
    if end == "caller":
        assert theirs == []  # the caller raised while the helper ranked
    else:
        assert theirs == keys[::-1][: len(keys) - keys.index(first)]


class _Stop(BaseException):
    """Stands in for a signal handler that ends the run (a job timeout)."""


def test_no_helper_outlives_quotient_dims(monkeypatch, forks):
    _no_child_left()
    # a normal return
    _table(*REDUCIBLE_L2)
    assert len(forks) == 1
    _no_child_left()
    # the known defect raises in the caller, with its own type
    with pytest.raises(ExactDivisionError, match="division is not exact"):
        rank2_module(**DEFECT_L1).quotient_dims()
    assert len(forks) == 2
    _no_child_left()
    # a BaseException in the caller while the helper still ranks its end
    caller = os.getpid()
    calls = []
    real_dims_at = InducedModule.dims_at

    def dims_at(self, *args):
        if os.getpid() == caller:
            calls.append(args)
            if len(calls) == 3:
                raise _Stop()
        return real_dims_at(self, *args)

    monkeypatch.setattr(InducedModule, "dims_at", dims_at)
    with pytest.raises(_Stop):
        _table(*REDUCIBLE_L2)
    assert len(forks) == 3
    _no_child_left()

"""End-to-end acceptance battery.

Nine numbered checks, one per shipped guarantee, each printing a single
PASS/FAIL line (visible with ``pytest -s`` or in the captured-output section
of a verbose run).  Every check is oracle- or property-based: expected values
come from independent hand derivations or brute-force enumerations, never
from the code under test.

The induced-module sweep (check 6) runs exact symbolic rank computations at
level 2 and takes about a minute; everything else finishes in seconds.
"""

import random
from fractions import Fraction

from gvir.algebra import AlgebraElement
from gvir.classical import TruncatedVermaModule, verma_dims
from gvir.classify import (
    classify,
    descriptor_from_induced,
    descriptor_from_interseries,
    descriptor_from_verma,
)
from gvir.groups import Group, gadd
from gvir.induced import InducedModule, Window
from gvir.interseries import IntermediateSeriesModule
from gvir.linalg import det
from gvir.scalars import Context, Poly


def _verdict(num, title, body):
    try:
        body()
    except BaseException:
        print(f"acceptance {num}: FAIL  {title}")
        raise
    print(f"acceptance {num}: PASS  {title}")


def _coords(rng, rank, radius=3):
    return tuple(rng.randint(-radius, radius) for _ in range(rank))


# -- 1: Lie-algebra axioms ------------------------------------------------------------


def test_1_bracket_axioms():
    def body():
        for rank, seed in ((2, 101), (3, 102)):
            ctx, G = Context.of_rank(rank), Group.of_rank(rank)
            rng = random.Random(seed)
            for trial in range(250):
                x = _coords(rng, rank)
                # force central-term pairs x = -y on a fixed fraction of trials
                y = tuple(-c for c in x) if trial % 5 == 0 else _coords(rng, rank)
                z = _coords(rng, rank)
                dx, dy, dz = (AlgebraElement.d(ctx, G, t) for t in (x, y, z))
                assert (dx.bracket(dy) + dy.bracket(dx)).is_zero()
                jacobi = (
                    dx.bracket(dy.bracket(dz))
                    + dy.bracket(dz.bracket(dx))
                    + dz.bracket(dx.bracket(dy))
                )
                assert jacobi.is_zero()

    _verdict(1, "bracket antisymmetry + Jacobi, 500 random triples, ranks 2 and 3", body)


# -- 2: module axioms -----------------------------------------------------------------


def test_2_intermediate_series_module_axioms():
    def body():
        ctx, G = Context.of_rank(2), Group.of_rank(2)  # alpha, beta stay symbolic
        V = IntermediateSeriesModule(ctx, G)
        rng = random.Random(202)
        for trial in range(500):
            x = _coords(rng, 2)
            z = tuple(-c for c in x) if trial % 7 == 0 else _coords(rng, 2)
            y = _coords(rng, 2)
            # [d_x, d_z] v_y = (z - x) d_{x+z} v_y, the central term acting as 0
            lhs = (ctx.embed(z) - ctx.embed(x)) * V.act(gadd(x, z), y)[0]
            c_zy, t_zy = V.act(z, y)
            c_xy, t_xy = V.act(x, y)
            rhs = c_zy * V.act(x, t_zy)[0] - c_xy * V.act(z, t_xy)[0]
            assert V.act(x, t_zy)[1] == V.act(z, t_xy)[1]
            assert lhs == rhs

    _verdict(2, "module axiom on 500 random actions with symbolic alpha, beta", body)


# -- 3: reducibility grid -------------------------------------------------------------


def test_3_reducibility_grid_and_closure():
    def body():
        grid = []
        rng = random.Random(303)
        for abind in ("free", [1, 0], 0):
            for bbind in ("free", 0, 1):
                kw = {}
                if abind != "free":
                    kw["alpha"] = abind
                if bbind != "free":
                    kw["beta"] = bbind
                V = IntermediateSeriesModule(Context.of_rank(2, **kw), Group.of_rank(2))
                expected = abind != "free" and bbind in (0, 1)
                assert V.is_reducible() is expected
                desc = V.subquotient()
                grid.append(desc.kind)
                if not expected:
                    assert desc.kind == "whole"
                    continue
                assert desc.kind == (
                    "quotient_by_trivial" if bbind == 0 else "submodule_off_zero"
                )
                # the dropped line is exactly y = -a
                a = (1, 0) if abind == [1, 0] else (0, 0)
                assert desc.excluded == tuple(-c for c in a)
                # closure: random actions never leak onto the dropped line
                for _ in range(60):
                    y = _coords(rng, 2)
                    if y == desc.excluded:
                        continue
                    x = _coords(rng, 2)
                    coeff, target = V.act_reduced(x, y)
                    assert target == gadd(x, y)
                    if target == desc.excluded:
                        assert coeff.is_zero()
        assert grid.count("whole") == 5 and len(grid) == 9

    _verdict(3, "reducible iff alpha in G and beta in {0,1}; sub-quotients closed", body)


# -- 4: Verma dimensions --------------------------------------------------------------


def test_4_verma_dimension_table():
    def body():
        dims = verma_dims(8)
        assert dims == [1, 1, 2, 3, 5, 7, 11, 15, 22]

        # independent oracle: brute-force count of weakly decreasing part lists
        def count(n, cap):
            if n == 0:
                return 1
            return sum(count(n - k, k) for k in range(min(n, cap), 0, -1))

        assert dims == [count(n, n) for n in range(9)]

    _verdict(4, "Verma level dimensions 0..8 match the partition-count oracle", body)


# -- 5: singular vectors --------------------------------------------------------------


def test_5_singular_vector_conditions():
    def body():
        # level 1: the existence condition is exactly h, so kernel iff h = 0
        ctx = Context.of_rank(1)
        M = TruncatedVermaModule(ctx, 2)
        rep1 = M.find_singular(1)
        assert rep1.kernel_dim() == 0
        (_, prim_h) = Poly.symbol(ctx.reg, "h").primitive_int()
        assert rep1.conditions == [prim_h]
        M0 = TruncatedVermaModule(Context.of_rank(1, h=0), 2)
        rep0 = M0.find_singular(1)
        assert rep0.kernel_dim() == 1
        assert M0.act(1, rep0.vectors[0]) == {}
        assert TruncatedVermaModule(Context.of_rank(1, h=3), 2).find_singular(
            1
        ).kernel_dim() == 0

        # level 2: condition against a dense 2x2 determinant oracle whose
        # entries were derived by hand from [d_m, d_n] = (n-m) d_{m+n} + delta:
        #   d_1 d_{-2} v = -3 d_{-1} v        d_1 d_{-1}^2 v = (-4h+2) d_{-1} v
        #   d_2 d_{-2} v = (-4h + c/2) v      d_2 d_{-1}^2 v = 6h v
        reg = ctx.reg
        h = Poly.symbol(reg, "h")
        c = Poly.symbol(reg, "c")
        rows = [
            {0: Poly.const(reg, -3), 1: Poly.const(reg, -4) * h + Poly.const(reg, 2)},
            {0: Poly.const(reg, -4) * h + c.scale(Fraction(1, 2)), 1: Poly.const(reg, 6) * h},
        ]
        oracle = det(reg, rows)
        _, prim = oracle.primitive_int()
        rep2 = M.find_singular(2)
        assert rep2.kernel_dim() == 0
        assert rep2.conditions == [prim]
        # a point on the vanishing locus of the oracle really has a kernel
        at_point = oracle.substitute({reg.index("h"): 1, reg.index("c"): 26})
        assert at_point.is_zero()
        Mp = TruncatedVermaModule(Context.of_rank(1, h=1, c=26), 2)
        repp = Mp.find_singular(2)
        assert repp.kernel_dim() == 1
        vec = repp.vectors[0]
        assert Mp.act(1, vec) == {} and Mp.act(2, vec) == {}

    _verdict(5, "level-1 kernel iff h=0; level-2 condition matches 2x2 oracle", body)


# -- 6: induced dimension bounds ------------------------------------------------------


def test_6_induced_dimension_bounds():
    def body():
        G = Group.of_rank(2)
        cap = {0: 1, 1: 3, 2: 15}  # (2i+1)!!
        for N in (1, 2, 3):
            ctx = Context.of_rank(2)  # generic: alpha, beta free
            q = InducedModule(ctx, G, (0, 1), Window.make(2, N)).quotient_dims()
            assert q.bound_ok()
            stable_dims = {i: set() for i in cap}
            for (i, x), d in q.entries.items():
                if q.stable[(i, x)]:
                    assert d <= cap[i]
                    stable_dims[i].add(d)
            # the window is not vacuous: stable entries exist at every level
            assert all(stable_dims[i] for i in cap)
            # level-0 row agrees with the dimension row of the inducing module
            top = IntermediateSeriesModule(Context.of_rank(1), Group.of_rank(1))
            expected = dict(top.dims_row(sorted(q.level_row(0))))
            assert q.level_row(0) == expected

    _verdict(6, "stable induced dims obey (2i+1)!! at levels 0..2 for N in {1,2,3}", body)


# -- 7: support pattern and strings ---------------------------------------------------


def test_7_support_pattern_and_string_boundedness():
    def body():
        ctx, G = Context.of_rank(2), Group.of_rank(2)
        q = InducedModule(ctx, G, (0, 1), Window.make(1, 2)).quotient_dims()
        check = q.support_check()
        assert check["verdict"] == "pattern_A"
        assert check["violations"] == []
        # no supported weight ever sits at a positive level
        assert all(i >= 0 for (i, _x), d in q.entries.items() if d)
        for g in ((1, 0), (-2, 0), (3, 0)):
            assert q.string_boundedness(g) == "bounded"
        for g in ((0, 1), (1, 1), (-2, 1)):
            assert q.string_boundedness(g) == "truncated_above"
        # along 2 g1 - b the level grows, so the strings stop on the negative side
        assert q.string_boundedness((2, -1)) == "truncated_below"

    _verdict(7, "generic support is pattern_A; strings bounded in G0, cut above along b", body)


# -- 8: classification round-trip -----------------------------------------------------


def test_8_classification_round_trip():
    def body():
        total = 0

        # intermediate-series tables, the full 3x3 binding grid
        for abind in ("free", [1, 0], 0):
            for bbind in ("free", 0, 1):
                kw = {}
                if abind != "free":
                    kw["alpha"] = abind
                if bbind != "free":
                    kw["beta"] = bbind
                V = IntermediateSeriesModule(Context.of_rank(2, **kw), Group.of_rank(2))
                rep = classify(descriptor_from_interseries(V))
                assert rep.case == "intermediate_series", (kw, rep.case)
                total += 1

        # truncated Verma tables over G = Z
        for L in (4, 5, 6, 7, 8):
            M = TruncatedVermaModule(Context.of_rank(1), L)
            rep = classify(descriptor_from_verma(M))
            assert rep.case == "highest_weight", (L, rep.case)
            total += 1

        # induced tables: recover the inducing direction and subgroup exactly
        corpus = [
            ((0, 1), 2, ((1, 0),)),
            ((1, 0), 2, ((0, 1),)),
            ((0, 0, 1), 3, ((1, 0, 0), (0, 1, 0))),
        ]
        for b, rank, g0 in corpus:
            N = 2 if rank == 2 else 1
            mod = InducedModule(
                Context.of_rank(rank), Group.of_rank(rank), b, Window.make(1, N)
            )
            rep = classify(descriptor_from_induced(mod.quotient_dims()))
            assert rep.case == "induced_type", (b, rep.case)
            assert tuple(rep.detected_b) == b
            assert tuple(map(tuple, rep.detected_G0_basis)) == g0
            total += 1

        assert total == 9 + 5 + 3

    _verdict(8, "classification recovers the family (and b, G0) on all 17 built tables", body)


# -- 9: window stability --------------------------------------------------------------


def test_9_window_stability():
    def body():
        G = Group.of_rank(2)
        for kw in ({}, {"alpha": [1, 0], "beta": 1}):
            tables = {}
            for N in (2, 3):
                ctx = Context.of_rank(2, **kw)
                tables[N] = InducedModule(
                    ctx, G, (0, 1), Window.make(1, N)
                ).quotient_dims()
            q2, q3 = tables[2], tables[3]
            # every entry flagged stable at N=2 is reproduced at N=3
            for key, d in q2.entries.items():
                if q2.stable[key] and key in q3.entries:
                    assert q3.entries[key] == d
            # instability, if any, only on the boundary of the report box
            for q in (q2, q3):
                w = q.window
                for (i, x), ok in q.stable.items():
                    if not ok:
                        edge = i * w.box_radius + w.top_radius
                        assert max(abs(c) for c in x) == edge, (i, x)

    _verdict(9, "stable entries agree between N=2 and N=3; instability only on box edge", body)

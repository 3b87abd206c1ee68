"""Action formula, reducibility grid, and sub-quotient closure tests."""

import itertools
import random

import pytest

from gvir.groups import Group, gadd, gneg
from gvir.interseries import (
    SUPPORT_PUNCTURED,
    SUPPORT_SHIFTED,
    IntermediateSeriesModule,
)
from gvir.scalars import Context


def _mod(n=2, **bindings):
    ctx = Context.of_rank(n, **bindings)
    return ctx, IntermediateSeriesModule(ctx, Group.of_rank(n))


def test_action_formula_symbolic():
    ctx, M = _mod()
    coeff, target = M.act((1, 0), (0, 1))
    assert target == (1, 1)
    assert coeff == ctx.parse("alpha + g2 + g1*beta")


def test_action_trivial_line_alpha0_beta0():
    # d_x v_0 = (0 + 0 + 0) v_x for every x when alpha = beta = 0
    ctx, M = _mod(alpha=0, beta=0)
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        coeff, target = M.act(x, (0, 0))
        assert coeff.is_zero() and target == x


def test_action_nothing_hits_v0_alpha0_beta1():
    ctx, M = _mod(alpha=0, beta=1)
    coeff, target = M.act((1, 0), (-1, 0))
    assert target == (0, 0) and coeff.is_zero()
    rng = random.Random(4)
    for _ in range(20):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        if x == (0, 0):
            continue
        coeff, _ = M.act(x, gneg(x))
        assert coeff.is_zero()


def test_module_axiom_random_symbolic():
    # [d_x, d_z] v_y = d_x (d_z v_y) - d_z (d_x v_y), center acting as 0
    ctx, M = _mod()
    rng = random.Random(20240601)
    for _ in range(80):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        z = tuple(rng.randint(-3, 3) for _ in range(2))
        y = tuple(rng.randint(-3, 3) for _ in range(2))
        lhs_coeff, lhs_target = M.act(gadd(x, z), y)
        lhs = (ctx.embed(z) - ctx.embed(x)) * lhs_coeff
        c1, t1 = M.act(z, y)
        c2, t2 = M.act(x, t1)
        c3, t3 = M.act(x, y)
        c4, t4 = M.act(z, t3)
        assert t2 == t4 == lhs_target
        assert lhs == c1 * c2 - c3 * c4


def test_reducibility_grid():
    G1 = (1, 0)
    cases = {
        (None, None): False,
        (None, 0): False,
        (None, 1): False,
        (0, None): False,
        (0, 0): True,
        (0, 1): True,
        (G1, None): False,
        (G1, 0): True,
        (G1, 1): True,
    }
    for (a, b), expect in cases.items():
        _, M = _mod(alpha=a, beta=b)
        assert M.is_reducible() is expect, (a, b)
    # beta not in {0,1} and non-member alpha both block reducibility
    _, M = _mod(alpha=G1, beta="1/2")
    assert not M.is_reducible()
    _, M = _mod(alpha="2/3", beta=0)
    assert not M.is_reducible()


def test_subquotient_descriptors():
    _, M = _mod()
    d = M.subquotient()
    assert d.kind == "whole" and d.support == SUPPORT_SHIFTED and d.excluded is None

    _, M = _mod(alpha=0, beta=0)
    d = M.subquotient()
    assert d.kind == "quotient_by_trivial"
    assert d.support == SUPPORT_PUNCTURED and d.excluded == (0, 0)

    _, M = _mod(alpha=0, beta=1)
    d = M.subquotient()
    assert d.kind == "submodule_off_zero"
    assert d.support == SUPPORT_PUNCTURED and d.excluded == (0, 0)

    _, M = _mod(alpha=(2, -1), beta=1)
    d = M.subquotient()
    assert d.excluded == (-2, 1)

    j = d.to_json()
    assert j["kind"] == "submodule_off_zero" and j["excluded_index"] == [-2, 1]


def test_subquotient_closure_random():
    rng = random.Random(99)
    for a, b in [((0, 0), 0), ((0, 0), 1), ((2, -1), 0), ((2, -1), 1)]:
        ctx, M = _mod(alpha=a, beta=b)
        desc = M.subquotient()
        ex = desc.excluded
        # the dropped line spans a trivial submodule in the quotient case
        if desc.kind == "quotient_by_trivial":
            for _ in range(30):
                x = tuple(rng.randint(-3, 3) for _ in range(2))
                coeff, _ = M.act(x, ex)
                assert coeff.is_zero()
        # in both cases nothing escapes the reduced basis with a nonzero coeff
        for _ in range(30):
            x = tuple(rng.randint(-3, 3) for _ in range(2))
            y = tuple(rng.randint(-3, 3) for _ in range(2))
            if y == ex:
                continue
            coeff, target = M.act_reduced(x, y)
            if target == ex:
                assert coeff.is_zero()
        with pytest.raises(ValueError):
            M.act_reduced((1, 0), ex)


def test_weight_dims_at_most_one_and_uniform_off_zero():
    window = list(itertools.product(range(-2, 3), repeat=2))
    grid = [None, 0, (1, 0)]
    for a in grid:
        for b in [None, 0, 1]:
            ctx, M = _mod(alpha=a, beta=b)
            desc = M.subquotient()
            dims = dict(M.dims_row(window))
            assert set(dims.values()) <= {0, 1}
            # nonzero-weight spaces all share the same dimension
            off_zero = [v for y, v in dims.items() if y != desc.excluded]
            assert set(off_zero) == {1}
            if desc.excluded is not None:
                assert dims[desc.excluded] == 0


def test_weight_values():
    ctx, M = _mod()
    w = M.weight((1, -1))
    assert w == ctx.parse("alpha + g1 - g2")
    ctx, M = _mod(alpha=(1, 0))
    assert M.weight((0, 1)) == ctx.parse("g1 + g2")

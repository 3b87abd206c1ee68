"""Bracket, grading, and PBW straightening tests.

The defining relations use the convention [d_x, d_y] = (y-x) d_{x+y}
+ delta_{x,-y} (x^3-x)/12 C, so [d_{g1}, d_{-g1}] carries -2*g1 on d_0.
"""

import random
from fractions import Fraction

from gvir.algebra import (
    AlgebraElement,
    TriangularPart,
    pbw_normalize,
    render_d,
    render_pbw,
)
from gvir.groups import Group, colex_key, gadd, gneg, split
from gvir.scalars import Context


def _setup(n=2):
    ctx = Context.of_rank(n)
    return ctx, Group.of_rank(n)


def test_bracket_generic_pair():
    ctx, G = _setup()
    a = AlgebraElement.d(ctx, G, (1, 0))
    b = AlgebraElement.d(ctx, G, (0, 1))
    out = a.bracket(b)
    assert set(out.d_terms) == {(1, 1)}
    assert out.d_terms[(1, 1)] == ctx.parse("g2 - g1")
    assert out.c_coeff.is_zero()


def test_bracket_with_center_vanishes():
    ctx, G = _setup()
    a = AlgebraElement.d(ctx, G, (1, 0))
    c = AlgebraElement.central(ctx, G)
    assert a.bracket(c).is_zero()
    assert c.bracket(a).is_zero()
    assert c.bracket(c).is_zero()


def test_bracket_delta_pair_fires_central_term():
    ctx, G = _setup()
    a = AlgebraElement.d(ctx, G, (1, 0))
    b = AlgebraElement.d(ctx, G, (-1, 0))
    out = a.bracket(b)
    assert set(out.d_terms) == {(0, 0)}
    assert out.d_terms[(0, 0)] == ctx.parse("-2*g1")
    assert out.c_coeff == ctx.parse("(g1^3 - g1)/12")


def test_bracket_rank_one_classical_convention():
    # embedding m -> m*g1 and specializing g1 = 1 gives [d_1, d_-1] = -2 d_0
    ctx = Context.of_rank(1)
    G = Group.of_rank(1)
    a = AlgebraElement.d(ctx, G, (1,))
    b = AlgebraElement.d(ctx, G, (-1,))
    out = a.bracket(b)
    assert out.d_terms[(0,)].specialize({"g1": 1}) == -2
    assert out.c_coeff.specialize({"g1": 1}) == 0
    out2 = AlgebraElement.d(ctx, G, (2,)).bracket(AlgebraElement.d(ctx, G, (-2,)))
    assert out2.d_terms[(0,)].specialize({"g1": 1}) == -4
    assert out2.c_coeff.specialize({"g1": 1}) == Fraction(8 - 2, 12)


def test_antisymmetry_random():
    ctx, G = _setup()
    rng = random.Random(1234)
    for _ in range(60):
        a = _rand_elem(ctx, G, rng)
        b = _rand_elem(ctx, G, rng)
        assert (a.bracket(b) + b.bracket(a)).is_zero()
        assert a.bracket(a).is_zero()


def _rand_elem(ctx, G, rng, delta_partner=None):
    e = AlgebraElement.zero(ctx, G)
    for _ in range(rng.randint(1, 3)):
        x = tuple(rng.randint(-2, 2) for _ in range(G.rank))
        coeff = rng.choice([1, -1, 2, rng.randint(-3, 3), ctx.symbol("alpha")])
        e = e + AlgebraElement.d(ctx, G, x, coeff)
    if delta_partner is not None:
        e = e + AlgebraElement.d(ctx, G, gneg(delta_partner), 1)
    if rng.random() < 0.3:
        e = e + AlgebraElement.central(ctx, G, rng.randint(-2, 2))
    return e


def test_jacobi_random_with_delta_pairs():
    ctx, G = _setup()
    rng = random.Random(77)
    for _ in range(40):
        x = tuple(rng.randint(-2, 2) for _ in range(2))
        a = _rand_elem(ctx, G, rng)
        b = _rand_elem(ctx, G, rng, delta_partner=x)
        c = _rand_elem(ctx, G, rng) + AlgebraElement.d(ctx, G, x)
        j = (
            a.bracket(b.bracket(c))
            + b.bracket(c.bracket(a))
            + c.bracket(a.bracket(b))
        )
        assert j.is_zero()


def test_weight_of():
    ctx, G = _setup()
    assert AlgebraElement.d(ctx, G, (1, 0)).weight_of() == (1, 0)
    assert AlgebraElement.central(ctx, G).weight_of() == (0, 0)
    mixed = AlgebraElement.d(ctx, G, (1, 0)) + AlgebraElement.d(ctx, G, (0, 1))
    assert mixed.weight_of() == "mixed"
    # d_0 + C is still homogeneous of weight 0
    both = AlgebraElement.d(ctx, G, (0, 0)) + AlgebraElement.central(ctx, G)
    assert both.weight_of() == (0, 0)
    off = AlgebraElement.d(ctx, G, (1, 0)) + AlgebraElement.central(ctx, G)
    assert off.weight_of() == "mixed"


def test_grading_random():
    ctx, G = _setup()
    rng = random.Random(9)
    for _ in range(60):
        x = tuple(rng.randint(-2, 2) for _ in range(2))
        y = tuple(rng.randint(-2, 2) for _ in range(2))
        out = AlgebraElement.d(ctx, G, x).bracket(AlgebraElement.d(ctx, G, y))
        if out.is_zero():
            continue
        w = out.weight_of()
        assert w == gadd(x, y)
        if not out.c_coeff.is_zero():
            assert gadd(x, y) == (0, 0)


def test_pbw_one_swap():
    ctx, G = _setup()
    # g1 < g2 in the default order, so d_{g2} d_{g1} needs one swap
    out = pbw_normalize(ctx, G, [(0, 1), (1, 0)])
    assert out[(((1, 0), (0, 1)), 0)].is_one()
    assert out[(((1, 1),), 0)] == ctx.parse("g1 - g2")
    assert len(out) == 2


def test_pbw_sorted_word_unchanged():
    ctx, G = _setup()
    out = pbw_normalize(ctx, G, [(1, 0), (1, 0)])
    assert out == {(((1, 0), (1, 0)), 0): ctx.one()}
    out = pbw_normalize(ctx, G, [(1, 0), (0, 1)])
    assert out == {(((1, 0), (0, 1)), 0): ctx.one()}


def test_pbw_delta_swap_central_correction():
    ctx, G = _setup()
    # d_{g1} d_{-g1} = d_{-g1} d_{g1} - 2 g1 d_0 + (g1^3-g1)/12 C
    out = pbw_normalize(ctx, G, [(1, 0), (-1, 0)])
    assert out[(((-1, 0), (1, 0)), 0)].is_one()
    assert out[(((0, 0),), 0)] == ctx.parse("-2*g1")
    assert out[((), 1)] == ctx.parse("(g1^3 - g1)/12")
    assert len(out) == 3
    # cross-check the same identity through the Lie bracket itself
    br = AlgebraElement.d(ctx, G, (1, 0)).bracket(AlgebraElement.d(ctx, G, (-1, 0)))
    assert br.d_terms[(0, 0)] == out[(((0, 0),), 0)]
    assert br.c_coeff == out[((), 1)]


def test_pbw_central_symbols_commute():
    ctx, G = _setup()
    out = pbw_normalize(ctx, G, ["C", (0, 1), "C", (1, 0)])
    assert out[(((1, 0), (0, 1)), 2)].is_one()
    assert out[(((1, 1),), 2)] == ctx.parse("g1 - g2")


def _reference_pbw(ctx, G, word):
    """Independent straightener: swaps the LAST descent of the word until
    it is sorted; each C of the word is central and only counts."""
    out = {}
    letters = tuple(x for x in word if x != "C")
    stack = [(letters, len(word) - len(letters), ctx.one())]
    while stack:
        w, cp, coeff = stack.pop()
        desc = [k for k in range(len(w) - 1) if colex_key(w[k]) > colex_key(w[k + 1])]
        if not desc:
            key = (w, cp)
            s = out.get(key)
            s = coeff if s is None else s + coeff
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
            continue
        i = desc[-1]
        x, y = w[i], w[i + 1]
        stack.append((w[:i] + (y, x) + w[i + 2 :], cp, coeff))
        factor = ctx.embed(y) - ctx.embed(x)
        if not factor.is_zero():
            stack.append((w[:i] + (gadd(x, y),) + w[i + 2 :], cp, coeff * factor))
        if not any(gadd(x, y)):
            ex = ctx.embed(x)
            central = (ex**3 - ex) / 12
            if not central.is_zero():
                stack.append((w[:i] + w[i + 2 :], cp + 1, coeff * central))
    return out


def test_pbw_confluence_random_words():
    # the shapes of the benchmark's PBW words: rank 1 over [-3, 3] and
    # rank 2 over [-2, 2]^2, lengths 2-5, sometimes with a C
    rng = random.Random(31)
    central_terms = 0
    for rank, radius in ((1, 3), (2, 2)):
        ctx, G = _setup(rank)
        for _ in range(40):
            length = rng.randint(2, 5)
            word = [tuple(rng.randint(-radius, radius) for _ in range(rank)) for _ in range(length)]
            if rng.random() < 0.3:
                word.insert(rng.randrange(length + 1), "C")
            a = pbw_normalize(ctx, G, word)
            b = _reference_pbw(ctx, G, word)
            assert a == b, word
            central_terms += any(cp > word.count("C") for _, cp in a)
    # the delta-pair central correction is exercised, not just the swaps
    assert central_terms >= 10


def test_triangular_parts():
    ctx, G = _setup()
    plus = TriangularPart("plus")
    minus = TriangularPart("minus")
    assert plus.contains_index((1, 0)) and plus.contains_index((-3, 1))
    assert not plus.contains_index((0, 0)) and not plus.contains_index((3, -1))
    assert minus.contains_index((-1, 0)) and not minus.contains_index((0, 0))
    # neither one-sided part contains the center
    center = AlgebraElement.central(ctx, G)
    assert not plus.contains(center) and not minus.contains(center)

    sp = split(G, (0, 1))
    lev = TriangularPart("plus_level", splitting=sp)
    strict = TriangularPart("strict_plus_level", splitting=sp)
    assert lev.contains_index((5, 0)) and lev.contains_index((5, 2))
    assert not lev.contains_index((5, -1))
    assert strict.contains_index((5, 2)) and not strict.contains_index((5, 0))
    assert lev.contains(center) and not strict.contains(center)
    mixed = AlgebraElement.d(ctx, G, (4, 0)) + AlgebraElement.central(ctx, G)
    assert lev.contains(mixed) and not strict.contains(mixed)


def test_render():
    ctx, G = _setup()
    e = AlgebraElement.d(ctx, G, (2, -3))
    assert e.render() == "d[2,-3]"
    assert render_d((2, -3)) == "d[2,-3]"
    e = e.scale(-1) + AlgebraElement.central(ctx, G, ctx.parse("1/2"))
    assert e.render() == "-d[2,-3] + (1/2)*C"
    out = pbw_normalize(ctx, G, [(0, 1), (1, 0)])
    txt = render_pbw(out)
    assert "d[1,0]*d[0,1]" in txt and "d[1,1]" in txt
    assert render_pbw({}) == "0"
    assert AlgebraElement.zero(ctx, G).render() == "0"


def test_rendered_coefficients_parse_back_under_custom_names():
    # every coefficient of a bracket or a PBW normal form, rendered, parses
    # back to itself at ranks 1-3 with generator names that are not g1..gn;
    # Context refuses names outside the grammar, which would not read back
    rng = random.Random(97)
    checks = 0
    for names, radius in ((("t",), 3), (("x", "y_1"), 2), (("a", "B2", "_c"), 1)):
        ctx = Context(names)
        G = Group(len(names), names)
        rank = len(names)

        def index():
            return tuple(rng.randint(-radius, radius) for _ in range(rank))

        coeffs = []
        for _ in range(60):
            x = index()
            y = tuple(-k for k in x) if rng.random() < 0.3 else index()
            out = AlgebraElement.d(ctx, G, x).bracket(AlgebraElement.d(ctx, G, y))
            coeffs += [*out.d_terms.values(), out.c_coeff]
        for _ in range(40):
            word = [index() for _ in range(rng.randint(2, 4))]
            coeffs += pbw_normalize(ctx, G, word).values()
        for s in coeffs:
            assert ctx.parse(str(s)) == s, (names, str(s))
        checks += len(coeffs)
    assert checks >= 700

"""Exact field arithmetic: canonical forms, gcd reduction, parsing."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from gvir import scalars
from gvir.scalars import (
    Context,
    ParseError,
    Poly,
    Scalar,
    ScalarDivisionError,
    SpecializationError,
)
from oracles import gcd_prs


@pytest.fixture
def ctx():
    return Context.of_rank(2)


def _rand_scalar(ctx, rng, maxterms=3, nonzero=False):
    reg = ctx.reg
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, maxterms)):
            e = tuple(rng.randint(0, 2) if i < 2 else 0 for i in range(len(reg)))
            terms[e] = rng.randint(-4, 4)
        p = Poly(reg, {e: c for e, c in terms.items() if c})
        s = Scalar.make(p)
        if not nonzero or not s.is_zero():
            return s


def test_construction_and_equality(ctx):
    g1, g2 = ctx.gen(0), ctx.gen(1)
    assert g1 + g2 == g2 + g1
    assert (g1 - g1).is_zero()
    assert ctx.scalar(0).is_zero()
    assert ctx.one().is_one()
    assert g1 != g2


def test_field_axioms_randomized(ctx):
    rng = random.Random(101)
    for _ in range(200):
        a = _rand_scalar(ctx, rng)
        b = _rand_scalar(ctx, rng)
        d = _rand_scalar(ctx, rng)
        assert (a + b) * d == a * d + b * d
        assert a * b == b * a
        assert (a + b) + d == a + (b + d)
        assert a + (-a) == ctx.zero()
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inv() == ctx.one()


def test_gcd_cancellation_example(ctx):
    # (g1^2 - g2^2)/(g1 - g2) reduces to g1 + g2
    g1, g2 = ctx.gen(0), ctx.gen(1)
    s = (g1 * g1 - g2 * g2) / (g1 - g2)
    assert s == g1 + g2
    assert s._den_is_one()


def test_difference_is_the_sum_with_the_negation(ctx):
    # one term loop serves both: the same result, coefficient types included
    rng = random.Random(4242)
    for _ in range(300):
        a, b = _rand_scalar(ctx, rng), _rand_scalar(ctx, rng)
        if rng.random() < 0.3:
            b = b / _rand_scalar(ctx, rng, nonzero=True)
        if rng.random() < 0.2:
            b = a
        for x, y in ((a.num, b.num), (a, b)):
            got, expect = x - y, x + (-y)
            assert got == expect and str(got) == str(expect)
        assert (a.num - b.num).terms.keys() == (a.num + (-b.num)).terms.keys()
        assert all(type(c) is int or c.denominator != 1 for c in (a.num - b.num).terms.values())
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert a - q == a + (-q) and q - a == -(a - q)


def test_constant_times_poly_is_a_scale(ctx):
    rng = random.Random(5353)
    reg = ctx.reg
    for _ in range(100):
        p = _rand_scalar(ctx, rng).num
        k = rng.choice([1, -1, 3, Fraction(2, 3), Fraction(-6, 2)])
        const = Poly.const(reg, k)
        assert const * p == p * const == p.scale(k)
        assert all(type(c) is int or c.denominator != 1 for c in (const * p).terms.values())
        assert (const * Poly.zero(reg)).is_zero() and (Poly.zero(reg) * const).is_zero()


def test_canonical_form_uniqueness(ctx):
    rng = random.Random(7)
    for _ in range(120):
        a = _rand_scalar(ctx, rng)
        b = _rand_scalar(ctx, rng, nonzero=True)
        c = _rand_scalar(ctx, rng, nonzero=True)
        s1 = a / b
        s2 = (a * c) / (b * c)
        # equal as fractions implies identical stored representation
        assert s1 == s2
        assert s1.num == s2.num and s1.den == s2.den
        assert hash(s1) == hash(s2)


def test_denominator_is_monic(ctx):
    g1, g2 = ctx.gen(0), ctx.gen(1)
    s = g2 / (ctx.scalar(3) * g1 + ctx.scalar(3))
    # leading coefficient of den under graded lex must be 1
    _, lc = s.den.lead()
    assert lc == 1
    assert s == g2 / (g1 + 1) / 3


def test_gcd_prim_properties(ctx):
    rng = random.Random(13)
    reg = ctx.reg
    zero = Poly.zero(reg)
    gcd = scalars._gcd_prim
    assert gcd(zero, zero) == zero
    for _ in range(60):
        f = _rand_scalar(ctx, rng, nonzero=True).num
        g = _rand_scalar(ctx, rng, nonzero=True).num
        h = _rand_scalar(ctx, rng, nonzero=True).num
        d = gcd(f * h, g * h)
        # primitive with a positive lead, divides both, divisible by h
        assert d.primitive_int() == (1, d)
        (f * h).exact_div(d)
        (g * h).exact_div(d)
        _, hp = h.primitive_int()
        assert gcd(d, hp) == hp
        d.exact_div(hp)
        # a zero input gives the primitive part of the other one
        assert gcd(zero, f * h) == gcd(f * h, zero) == (f * h).primitive_int()[1]


def test_zero_division_raises(ctx):
    with pytest.raises(ScalarDivisionError):
        ctx.one() / ctx.zero()
    with pytest.raises(ScalarDivisionError):
        ctx.zero().inv()


def test_specialize_linear_form(ctx):
    # x^3 - x at x = g1, then g1 -> 2 gives 6
    x = ctx.gen(0)
    val = (x ** 3 - x).specialize({"g1": 2})
    assert val == 6


def test_specialize_denominator_vanishes(ctx):
    alpha = ctx.symbol("alpha")
    y = ctx.gen(1)
    s = (alpha + y) / alpha
    with pytest.raises(SpecializationError):
        s.specialize({"alpha": 0})
    ok = s.specialize({"alpha": 1, "g2": 3})
    assert ok == 4


def test_rational_function_arithmetic_matches_specialization(ctx):
    # operands with nontrivial denominators take the general branch of each
    # field operation; at seeded rational points every result specializes
    # to the same operation on the specialized operands
    g1, g2 = ctx.gen(0), ctx.gen(1)
    one = ctx.one()
    quotients = [one / g1, (g1 - g2) / (g1 * g2), (g1 + one) / (g2 - 2), g1 * g1 / (g1 + g2), g2]
    assert one / g1 + one / g2 == (g1 + g2) / (g1 * g2)
    assert one / g2 - one / g1 == quotients[1]
    assert quotients[1] * (g1 * g2) == g1 - g2
    assert (one / g1) / (one / g2) == g2 / g1
    rng = random.Random(1729)
    checked = 0
    for _ in range(12):
        point = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for name in ("g1", "g2")}
        try:
            values = [q.specialize(point) for q in quotients]
        except SpecializationError:
            continue
        for (a, va), (b, vb) in itertools.product(zip(quotients, values), repeat=2):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                if op is operator.truediv and vb.is_zero():
                    continue
                assert op(a, b).specialize(point) == op(va, vb), (a, b, op, point)
                checked += 1
    # most points avoid every denominator
    assert checked > 900


def test_power_matches_repeated_products_and_inverses(ctx, monkeypatch):
    # s ** n read from the canonical form against n products of s (or of
    # its inverse), each normalized by Scalar.make; n >= 0 needs no make
    rng = random.Random(8111)
    make = Scalar.make
    calls = []

    def counted(num, den=None):
        calls.append(den)
        return make(num, den)

    for _ in range(60):
        s = _rand_scalar(ctx, rng, nonzero=True) / _rand_scalar(ctx, rng, nonzero=True)
        for n in range(-3, 6):
            expect = ctx.one()
            for _ in range(abs(n)):
                expect = expect * (s if n > 0 else s.inv())
            monkeypatch.setattr(Scalar, "make", staticmethod(counted))
            del calls[:]
            got = s**n
            monkeypatch.setattr(Scalar, "make", staticmethod(make))
            assert got == expect, (s, n)
            assert got.den.lead()[1] == 1
            assert n < 0 or not calls, (s, n)
    zero = ctx.zero()
    assert zero**0 == 1 and (zero**3).is_zero()
    with pytest.raises(ScalarDivisionError):
        zero ** -1


@pytest.mark.parametrize("spec", ["3", "-3", "+3", "3/4", "-12/5", "007/2"])
def test_binding_strings_in_the_grammar(spec):
    assert Context.of_rank(1, c=spec).binding("c").value == Fraction(spec)


@pytest.mark.parametrize(
    "spec", ["1e5000", "1.5", " 3", "3 ", "1_000", "٣", "3/-4", "1/0", "inf", "9" * 5000]
)
def test_binding_strings_outside_the_grammar(spec):
    # only an optional sign, ASCII digits and an optional /digits; Fraction
    # alone takes exponents ("1e99999999", which it would expand, is checked
    # in a fresh process with a timeout in test_cli)
    with pytest.raises(ValueError, match="bad binding for c"):
        Context.of_rank(1, c=spec)


def test_binding_kind_is_checked():
    with pytest.raises(ValueError, match="unknown binding kind"):
        scalars.Binding("symbolic")
    assert scalars.Binding("free") == scalars.Binding("free", None)


def test_binding_fixed_at_construction():
    ctx = Context.of_rank(2, alpha=Fraction(1, 2), beta=0)
    assert ctx.alpha == Fraction(1, 2)
    assert ctx.beta.is_zero()
    assert ctx.binding("alpha").kind == "rational"
    ctx2 = Context.of_rank(2, alpha=(1, 0))
    assert ctx2.binding("alpha").kind == "element"
    assert ctx2.alpha == ctx2.gen(0)


@pytest.mark.parametrize(
    "alpha, expect",
    [
        (None, None),  # free
        ("free", None),
        (0, (0, 0)),  # the rational 0 is iota(0)
        ("0", (0, 0)),
        (Fraction(1, 2), None),  # a nonzero rational is not structurally in G
        (1, None),
        ((1, -2), (1, -2)),
        ({"element": [0, 3]}, (0, 3)),
    ],
)
def test_alpha_element_for_every_binding_kind(alpha, expect):
    assert Context.of_rank(2, alpha=alpha).alpha_element() == expect


def test_render_parse_roundtrip(ctx):
    rng = random.Random(29)
    for _ in range(80):
        a = _rand_scalar(ctx, rng)
        b = _rand_scalar(ctx, rng, nonzero=True)
        s = a / b
        assert ctx.parse(str(s)) == s


def test_render_canonical_order(ctx):
    g1, g2 = ctx.gen(0), ctx.gen(1)
    s = g2 + g1 * g1 * 2 - 3
    assert str(s) == "2*g1^2 + g2 - 3"
    assert str(ctx.zero()) == "0"
    assert str(-g1) == "-g1"


def test_parse_errors(ctx):
    with pytest.raises(ParseError):
        ctx.parse("g1 + + *")
    with pytest.raises(KeyError):
        ctx.parse("q17")
    with pytest.raises(ParseError):
        ctx.parse("g1 $ g2")
    # number tokens are ASCII digits only: int() would take "١٢" as 12
    # and raise a bare ValueError on "²", which str.isdigit also accepts
    for text in ("²", "١٢", "g1 + ٣", "2^²"):
        with pytest.raises(ParseError):
            ctx.parse(text)
    # names are ASCII too, so a non-ASCII letter or digit is the same
    # ParseError with or without a space before it
    for text in ("g1²", "g1 ²", "g1١", "é", "gé + 1"):
        with pytest.raises(ParseError):
            ctx.parse(text)
    # nesting deeper than the recursion limit is a ParseError too
    with pytest.raises(ParseError):
        ctx.parse("(" * 3000 + "g1" + ")" * 3000)
    with pytest.raises(ParseError):
        ctx.parse("-(" * 3000 + "1" + ")" * 3000)
    assert ctx.parse("(" * 50 + "g1" + ")" * 50) == ctx.gen(0)


def test_parse_rational_and_power(ctx):
    assert ctx.parse("3/4") == Fraction(3, 4)
    assert ctx.parse("(g1 + g2)^2") == (ctx.gen(0) + ctx.gen(1)) ** 2
    assert ctx.parse("-g1^2") == -(ctx.gen(0) ** 2)
    assert ctx.parse("2**3") == 8


def test_float_rejected(ctx):
    with pytest.raises(TypeError):
        Poly.const(ctx.reg, 0.5)


def test_reserved_names():
    with pytest.raises(ValueError):
        Context(("alpha", "g2"))


def _frozen_substitute(poly, values):
    """Poly.substitute as it was before the one-pass version (one Poly product
    and one Poly sum per term), frozen here as its reference."""
    reg = poly.reg
    cache = {}

    def powval(i, p):
        key = (i, p)
        if key not in cache:
            v = values[i]
            if not isinstance(v, Poly):
                v = Poly.const(reg, v)
            cache[key] = v ** p
        return cache[key]

    out = Poly.zero(reg)
    for e, c in poly.terms.items():
        rest = [0] * len(e)
        term = None
        for i, p in enumerate(e):
            if p and i in values:
                term = powval(i, p) if term is None else term * powval(i, p)
            else:
                rest[i] = p
        mono = Poly.monomial(reg, rest, c)
        out = out + (mono if term is None else mono * term)
    return out


def _rand_poly(reg, rng, nvars, maxdeg, maxterms):
    terms = {}
    for _ in range(rng.randint(0, maxterms)):
        e = tuple(rng.randint(0, maxdeg) if i < nvars else 0 for i in range(len(reg)))
        c = rng.randint(-5, 5)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(2, 5))
        terms[e] = c
    return Poly(reg, {e: c for e, c in terms.items() if c})


def test_substitute_matches_frozen_reference():
    reg = Context.of_rank(3).reg
    rng = random.Random(5150)
    kinds = set()
    for case in range(360):
        nvars = 1 + case % 4
        p = _rand_poly(reg, rng, nvars, 3, 6)
        values = {}
        for i in rng.sample(range(nvars), rng.randint(1, nvars)):
            kind = rng.choice(["int", "fraction", "zero", "poly", "poly", "zero_poly"])
            kinds.add(kind)
            if kind == "int":
                values[i] = rng.choice([-2, -1, 1, 2, 3])
            elif kind == "fraction":
                values[i] = Fraction(rng.choice([-3, -1, 1, 5]), rng.randint(2, 4))
            elif kind == "zero":
                values[i] = rng.choice([0, Fraction(0)])
            elif kind == "poly":
                values[i] = _rand_poly(reg, rng, len(reg), 2, 3)
            else:
                values[i] = Poly.zero(reg)
        got = p.substitute(values)
        expect = _frozen_substitute(p, values)
        assert got == expect
        assert str(got) == str(expect)
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
    assert kinds == {"int", "fraction", "zero", "poly", "zero_poly"}


def test_substitute_keeps_unmapped_symbols_and_merges_terms(ctx):
    reg = ctx.reg
    g1, g2 = Poly.symbol(reg, "g1"), Poly.symbol(reg, "g2")
    alpha = Poly.symbol(reg, "alpha")
    p = g1 * g2 + g1 * g1 * alpha - g2 * alpha
    # g2 := 1 merges g1*g2 into g1 and -g2*alpha into -alpha
    assert p.substitute({reg.index("g2"): 1}) == g1 + g1 * g1 * alpha - alpha
    # a polynomial value may mention the substituted symbol itself
    assert p.substitute({reg.index("g1"): g1 + g2}) == (g1 + g2) * g2 + (g1 + g2) * (g1 + g2) * alpha - g2 * alpha
    assert p.substitute({}) == p
    with pytest.raises(TypeError):
        p.substitute({0: 1.5})


# -- heuristic gcd against the primitive PRS reference ----------------------------


def _gcd_case(reg, rng, nvars):
    """Two polynomials in the first nvars symbols with a planted common
    factor, and which of the features the planting used."""
    features = set()

    def poly(maxterms):
        while True:
            p = _rand_poly(reg, rng, nvars, 2, maxterms)
            if not p.is_zero():
                return p

    common = poly(3)
    a, b = poly(3) * common, poly(3) * common
    if rng.random() < 0.4:
        e = tuple(rng.randint(0, 2) if i < nvars else 0 for i in range(len(reg)))
        a = a * Poly.monomial(reg, e)
        b = b * Poly.monomial(reg, tuple(max(0, x - rng.randint(0, 1)) for x in e))
        features.add("monomial")
    if rng.random() < 0.4:
        k = rng.choice([2, 3, 6, 12])
        a, b = a.scale(k), b.scale(k * rng.choice([1, 5]))
        features.add("content")
    if rng.random() < 0.4:
        a = -a
        features.add("negative")
    if any(type(c) is Fraction for c in a.terms.values()):
        features.add("fraction")
    return a, b, common, features


def test_heuristic_gcd_matches_prs_reference():
    # uni-, bi- and trivariate pairs; the heuristic gcd must agree with the
    # PRS, and the planted factor must divide it
    reg = Context.of_rank(3).reg
    rng = random.Random(20261018)
    seen = set()
    for case in range(240):
        nvars = 1 + case % 3
        a, b, common, features = _gcd_case(reg, rng, nvars)
        seen |= features | {nvars}
        got = scalars._gcd_prim(a, b)
        expect = gcd_prs(a, b)
        assert got == expect and str(got) == str(expect), (a, b)
        for f in (a, b):
            f.exact_div(got)
        got.exact_div(common)
    assert seen == {1, 2, 3, "monomial", "content", "negative", "fraction"}


def test_heuristic_gcd_keeps_integer_content_of_images():
    # h (2c^2 - 3h) and 2h^2 (2c^2 - 3h): evaluating h leaves images whose gcd
    # has integer content, which a primitive-only recursion would lose
    reg = Context.of_rank(1).reg
    c, h = Poly.symbol(reg, "c"), Poly.symbol(reg, "h")
    f = Poly.const(reg, 2) * c * c - Poly.const(reg, 3) * h
    a, b = h * f, Poly.const(reg, 2) * h * h * f
    assert scalars._gcd_prim(a, b) == h * f == gcd_prs(a, b)


@pytest.mark.parametrize("bivariate", [False, True], ids=["univariate", "bivariate"])
def test_heuristic_gcd_runs_past_points_with_a_stray_factor(bivariate):
    # a = g (x + 1), b = g (x + 1 + m) with x the evaluated variable and m
    # divisible by xi + 1 at each of the first seven points xi: every one of
    # those images has the stray factor xi + 1, so the digits rebuild a,
    # which does not divide b; the gcd still comes, from a later point
    reg = Context.of_rank(2).reg
    g1, g2 = Poly.symbol(reg, "g1"), Poly.symbol(reg, "g2")
    one, three = Poly.const(reg, 1), Poly.const(reg, 3)
    points = [8]
    for _ in range(6):
        points.append(points[-1] * 73794 // 27011)
    assert points == [8, 21, 57, 155, 423, 1155, 3155]
    m = Poly.const(reg, math.lcm(*(xi + 1 for xi in points)))
    x, g = (g2, g1 * g1 + three * g2) if bivariate else (g1, g1 * g1 + three)
    a, b = g * (x + one), g * (x + one + m)
    got = scalars._heu_gcd(a, b)
    assert got == g == gcd_prs(a, b)
    assert scalars._gcd_prim(a, b) == g


def _gcd_chain(polys):
    """The pairwise `_gcd_prim` chain, with `_gcd_many`'s early exit and its
    one-input rule."""
    g = None
    for p in polys:
        g = p if g is None else scalars._gcd_prim(g, p)
        if g.is_const() and not g.is_zero():
            return Poly.const(g.reg, 1)
    return g


def test_gcd_many_matches_the_pairwise_chain(monkeypatch):
    # the divisibility step must give the normalized gcd of the chain, on
    # inputs where the running gcd does and does not divide a later entry,
    # on single inputs and on zeros
    reg = Context.of_rank(3).reg
    rng = random.Random(60613)
    prim = scalars._gcd_prim
    steps = []
    seen = set()

    def poly(maxterms=3):
        while True:
            p = _rand_poly(reg, rng, 1 + rng.randrange(3), 2, maxterms)
            if not p.is_zero():
                return p

    for case in range(200):
        common = poly()
        first = (common * poly()).scale(rng.choice([1, -1, Fraction(-3, 2), 6]))
        polys = [first]
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(["multiple", "multiple", "cofactor", "zero"])
            if kind == "multiple":
                polys.append((first * poly(2)).scale(rng.choice([1, -2, Fraction(1, 3)])))
            elif kind == "cofactor":
                polys.append(common * poly())
            else:
                polys.append(Poly.zero(reg))
        if case % 10 == 0:
            polys.insert(0, Poly.zero(reg))
        if case % 25 == 0:
            polys = [Poly.zero(reg)] * rng.randint(1, 2)
        expect = _gcd_chain(polys)
        monkeypatch.setattr(scalars, "_gcd_prim", lambda a, b: steps.append(1) or prim(a, b))
        del steps[:]
        got = scalars._gcd_many(iter(polys))
        monkeypatch.setattr(scalars, "_gcd_prim", prim)
        assert got == expect and str(got) == str(expect), polys
        if len(polys) == 1:
            assert got is polys[0]
            seen.add("single")
        elif len(steps) < len(polys) - 1 and not expect.is_const():
            seen.add("divides")
        if steps and not expect.is_const():
            seen.add("does not divide")
        if any(p.is_zero() for p in polys):
            seen.add("zero")
    assert seen == {"single", "divides", "does not divide", "zero"}

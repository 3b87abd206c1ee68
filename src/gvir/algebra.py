"""The generalized Virasoro algebra on a finitely generated group G.

Basis {C} u {d_x : x in G} with
    [d_x, d_y] = (y - x) d_{x+y} + delta_{x,-y} (x^3 - x)/12 C,
where x, y inside coefficients mean the embedded complex values; these
structure constants are written once, in `structure_constants`.  C is
central.  Elements are finite linear combinations with exact Scalar
coefficients; everything here is immutable and side-effect free, so
independent brackets can be evaluated concurrently.

One total order on G is used throughout, the colex order of
`groups.colex_key`: it sorts the factors of PBW monomials and of rendered
elements, and its positive and negative cones are the triangular parts
"plus" and "minus".  The level parts come from a splitting G = G0 (+) Zb.

PBW straightening has one implementation, `Straightener`: memoized left
multiplication of a generator onto a sorted monomial on a top, by
x f R = f (x R) + [x, f] R.  Its owner supplies only the factor order, the
bracket and the action on the top, and a coefficient type with +, * and
is_zero: `pbw_normalize` (top: a power of C) and the Verma module of
`classical` use Poly, the induced module of `induced` packed polynomials
(`scalars.Packed`), and all of them turn coefficients into Scalars only in
results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .groups import colex_key, gadd, gsub, is_zero
from .scalars import Poly, Scalar


class AlgebraElement:
    """A finite combination sum a_x d_x + a_c C with Scalar coefficients."""

    __slots__ = ("ctx", "group", "d_terms", "c_coeff")

    def __init__(self, ctx, group, d_terms=None, c_coeff=None):
        self.ctx = ctx
        self.group = group
        terms = {}
        for x, s in (d_terms or {}).items():
            x = group.validate(x)
            s = ctx.scalar(s)
            if not s.is_zero():
                terms[x] = s
        self.d_terms = terms
        self.c_coeff = ctx.scalar(c_coeff) if c_coeff is not None else ctx.zero()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx, group):
        return AlgebraElement(ctx, group)

    @staticmethod
    def d(ctx, group, coords, coeff=1):
        return AlgebraElement(ctx, group, {tuple(coords): ctx.scalar(coeff)})

    @staticmethod
    def central(ctx, group, coeff=1):
        return AlgebraElement(ctx, group, None, ctx.scalar(coeff))

    # -- vector space ------------------------------------------------------

    def is_zero(self):
        return not self.d_terms and self.c_coeff.is_zero()

    def __add__(self, other):
        terms = dict(self.d_terms)
        for x, s in other.d_terms.items():
            terms[x] = terms[x] + s if x in terms else s
        return AlgebraElement(self.ctx, self.group, terms, self.c_coeff + other.c_coeff)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = self.ctx.scalar(s)
        return AlgebraElement(
            self.ctx,
            self.group,
            {x: v * s for x, v in self.d_terms.items()},
            self.c_coeff * s,
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.d_terms == other.d_terms and self.c_coeff == other.c_coeff

    def __hash__(self):
        return hash((frozenset(self.d_terms.items()), self.c_coeff))

    # -- Lie structure -----------------------------------------------------

    def bracket(self, other):
        """[self, other]; the center brackets to zero with everything."""
        ctx = self.ctx
        embed = lru_cache(maxsize=None)(lambda x: ctx.embed(x).num)
        out = {}
        cc = ctx.zero()
        for x, a in self.d_terms.items():
            for y, b in other.d_terms.items():
                for z, p in structure_constants(embed, x, y):
                    v = a * b * Scalar.make(p)
                    if z == CENTER:
                        cc = cc + v
                    else:
                        out[z] = out[z] + v if z in out else v
        return AlgebraElement(ctx, self.group, out, cc)

    def weight_of(self):
        """Common ad(d_0)-weight, or the string "mixed".

        d_x has weight x and C has weight 0, so a combination is homogeneous
        exactly when all d-indices agree (and equal 0 if C also appears).
        """
        zero = self.group.zero()
        if not self.d_terms:
            return zero
        ws = set(self.d_terms)
        if len(ws) > 1:
            return "mixed"
        (w,) = ws
        if not self.c_coeff.is_zero() and w != zero:
            return "mixed"
        return w

    # -- rendering ---------------------------------------------------------

    def render(self):
        if self.is_zero():
            return "0"
        parts = []
        for x in sorted(self.d_terms, key=colex_key):
            parts.append(_coeff_prefix(self.d_terms[x]) + render_d(x))
        if not self.c_coeff.is_zero():
            parts.append(_coeff_prefix(self.c_coeff) + "C")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.render()}>"


def render_d(coords):
    return "d[" + ",".join(str(a) for a in coords) + "]"


def _coeff_prefix(s):
    if s.is_one():
        return ""
    if s == -1:
        return "-"
    txt = str(s)
    if s.is_rational() and Fraction(s.rational_value()).denominator == 1:
        return f"{txt}*"
    return f"({txt})*"


def bracket(a, b):
    return a.bracket(b)


def weight_of(a):
    return a.weight_of()


# -- triangular decompositions ------------------------------------------------


class TriangularPart:
    """Membership test for one triangular slice of the algebra.

    selector "plus" / "minus": d_x with x strictly positive / negative in the
    colex order of G (no center).
    selector "plus_level": all of level >= 0 with respect to a splitting
    G = G0 (+) Zb, together with the center.
    selector "strict_plus_level": level >= 1 only, center excluded.
    """

    SELECTORS = ("plus", "minus", "plus_level", "strict_plus_level")

    def __init__(self, selector, splitting=None):
        if selector not in self.SELECTORS:
            raise ValueError(f"unknown selector {selector!r}")
        if selector.endswith("level") and splitting is None:
            raise ValueError(f"selector {selector!r} needs a splitting")
        self.selector = selector
        self.splitting = splitting

    def contains_index(self, coords):
        """Does d_coords lie in this part?"""
        zero = (0,) * len(coords)
        if self.selector == "plus":
            return colex_key(coords) > zero
        if self.selector == "minus":
            return colex_key(coords) < zero
        lvl = self.splitting.level(coords)
        if self.selector == "plus_level":
            return lvl >= 0
        return lvl >= 1

    def allows_center(self):
        return self.selector == "plus_level"

    def contains(self, elem):
        if not elem.c_coeff.is_zero() and not self.allows_center():
            return False
        return all(self.contains_index(x) for x in elem.d_terms)


# -- PBW straightening ---------------------------------------------------------

CENTER = "C"
_TWELFTH = Fraction(1, 12)


def structure_constants(embed, x, y, vanishes=Poly.is_zero):
    """[d_x, d_y] = (y - x) d_{x+y} + delta_{x,-y} (x^3 - x)/12 C as
    (label, value) pairs, CENTER labelling C; embed maps an index to its
    embedded value, additively, so y - x is embedded once, and the values
    for which vanishes holds are left out.  The values are Polys, or
    rationals for a constant embedding with vanishes=operator.not_.

    `AlgebraElement.bracket` and `pbw_normalize` read it with Poly values,
    the Verma module (G = Z) with rationals.  `induced` keeps its own: C
    acts there as 0 and its labels are (level, G0 coordinates) pairs, so
    sharing it would branch on the caller.
    """
    out = []
    z = gadd(x, y)
    factor = embed(gsub(y, x))
    if not vanishes(factor):
        out.append((z, factor))
    if is_zero(z):
        ex = embed(x)
        central = (ex * ex * ex - ex) * _TWELFTH
        if not vanishes(central):
            out.append((CENTER, central))
    return out


def accumulate(out, key, coeff):
    """out[key] += coeff, dropping the key once the sum vanishes."""
    prev = out.get(key)
    s = coeff if prev is None else prev + coeff
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class Straightener:
    """Memoized left multiplication of a generator onto PBW monomials.

    A monomial is (factors, top): factor labels sorted in the owner's order,
    on a top (a vector label, or a power of C).  The owner's three rules:
    before(x, f), whether x may stand left of the factor f; bracket(x, f),
    [x, f] as (label, coefficient) pairs, CENTER standing for C; top(x, t),
    x (possibly CENTER) on the empty monomial, as {monomial: coefficient}.
    The step x f R = f (x R) + [x, f] R is the usual induction of the PBW
    theorem, so the recursion ends; results are memoized in `memo`.
    """

    def __init__(self, one, before, bracket, top):
        self.one = one
        self.before = before
        self.bracket = bracket
        self.top = top
        self.memo = {}

    def lmul(self, x, mono):
        factors, top = mono
        if not factors:
            return self.top(x, top)
        f1 = factors[0]
        if self.before(x, f1):
            return {((x,) + factors, top): self.one}
        key = (x, mono)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        before = self.before
        rest = (factors[1:], top)
        out = {}
        for (fs, t), c in self.lmul(x, rest).items():
            if not fs or before(f1, fs[0]):
                # a factor stands on any top, left of any factor it precedes
                accumulate(out, ((f1,) + fs, t), c)
            else:
                for m, c2 in self.lmul(f1, (fs, t)).items():
                    accumulate(out, m, c * c2)
        for y, cy in self.bracket(x, f1):
            if y == CENTER:
                # C is central: it acts on the top and commutes past R
                part = {(rest[0], t): c for (_, t), c in self.top(CENTER, top).items()}
            else:
                part = self.lmul(y, rest)
            for m, c in part.items():
                accumulate(out, m, cy * c)
        self.memo[key] = out
        return out

    def act(self, x, vec):
        """x applied to a combination {monomial: coefficient}."""
        out = {}
        for mono, c in vec.items():
            for m, c2 in self.lmul(x, mono).items():
                accumulate(out, m, c * c2)
        return out


def pbw_normalize(ctx, group, word):
    """Straighten a product of d_x / C symbols into the sorted PBW basis.

    word items are group-element coordinate tuples (meaning d_x) or the
    string "C".  Returns {(factors, c_power): Scalar} where factors is a
    nondecreasing tuple under the colex order.  C is central, so every C of
    the word and of a bracket only raises the C power; the d_x are
    left-multiplied onto 1 from the right end of the word.
    """
    one = Poly.const(ctx.reg, 1)
    base = []
    c_power = 0
    for item in word:
        if item == "C":
            c_power += 1
        else:
            base.append(group.validate(item))
    # each index is embedded once per call
    embed = lru_cache(maxsize=None)(lambda x: ctx.embed(x).num)

    def before(x, f):
        return colex_key(x) <= colex_key(f)

    def top(x, cp):
        if x == CENTER:
            return {((), cp + 1): one}
        return {((x,), cp): one}

    kernel = Straightener(one, before, partial(structure_constants, embed), top)
    vec = {((), c_power): one}
    for x in reversed(base):
        vec = kernel.act(x, vec)
    return {mono: Scalar.make(p) for mono, p in vec.items()}


def render_pbw(terms):
    """Deterministic text form of a PBW combination."""
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda k: (len(k[0]), [colex_key(x) for x in k[0]], k[1]))
    parts = []
    for factors, cp in keys:
        bits = [render_d(x) for x in factors] + ["C"] * cp
        if bits:
            parts.append(_coeff_prefix(terms[(factors, cp)]) + "*".join(bits))
        else:
            parts.append(str(terms[(factors, cp)]))
    return " + ".join(parts)

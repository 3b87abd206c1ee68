"""Exact coefficient arithmetic for the whole package.

Everything downstream computes over the field Q(g1,...,gn, alpha, beta, c, h):
sparse multivariate polynomials over Q together with their fraction field.
Group generators stay formal indeterminates, which makes them Q-linearly
independent by construction; alpha, beta, c and h may each be bound to a
value (a rational, or for alpha the embedded value of a group element) when a
Context is created.  Its registry, carried by every Poly, is the tuple of
symbol names (generators, then SYMBOLS), one exponent slot per name.

A Scalar is always stored in canonical form -- num/den with gcd(num, den) = 1
and den monic under the graded-lex term order -- so structural equality
decides mathematical equality and is_zero is exact.  Arithmetic reads that
form: a sum and a difference share one term loop (`Poly._plus`), and
s**n (n >= 0) is num**n / den**n, canonical with no gcd.  No floating
point anywhere.

Polynomials have one exact division, `_divide`, heap-ordered on packed
monomials: `Poly.exact_div`, the gcd certificate and every fraction-free
step of `linalg` run it.  They have one gcd, the heuristic gcd of Char,
Geddes & Gonnet (`_gcd_prim`), which tries evaluation points until that
division certifies its answer.

`Packed` is a polynomial on packed monomials with the ring operations of
PBW straightening; the induced module computes its action on it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_


class ScalarError(ArithmeticError):
    """Base class for exact-arithmetic failures."""


class ScalarDivisionError(ScalarError, ZeroDivisionError):
    """Division or inversion by an exact zero."""


class SpecializationError(ScalarError):
    """A substitution made a denominator vanish."""


class ExactDivisionError(ScalarError):
    """Polynomial division that was expected to be exact left a remainder."""


class ParseError(ValueError):
    """Malformed polynomial/scalar text."""


def _grlex(e):
    # graded lex key: total degree first, then exponent vector, first slot strongest
    return (sum(e), e)


def _norm_coeff(q):
    # keep integer coefficients as ints (fast path); Fractions only when needed
    if type(q) is Fraction and q.denominator == 1:
        return int(q)
    return q


def _content(coeffs):
    """Positive rational content of nonzero int/Fraction coefficients: the
    gcd of their numerators over the lcm of their denominators, a
    `math.gcd` of ints when every coefficient is an int."""
    if all(type(c) is int for c in coeffs):
        return math.gcd(*coeffs)
    fracs = [Fraction(c) for c in coeffs]
    return Fraction(
        math.gcd(*(f.numerator for f in fracs)), math.lcm(*(f.denominator for f in fracs))
    )


class Poly:
    """Sparse multivariate polynomial over Q.

    terms maps exponent tuples (one slot per registry symbol) to nonzero
    int/Fraction coefficients.  Instances are immutable by convention.  The
    raw constructor expects coefficients in `_norm_coeff` form; the int fast
    paths rely on it for speed, not for values.
    """

    __slots__ = ("reg", "terms", "_hash")

    def __init__(self, reg, terms):
        self.reg = reg
        self.terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(reg):
        return Poly(reg, {})

    @staticmethod
    def const(reg, q):
        if isinstance(q, (bool, float)):
            raise TypeError(f"{q!r} is not an exact number; use int or Fraction")
        q = _norm_coeff(q if isinstance(q, (int, Fraction)) else Fraction(q))
        if q == 0:
            return Poly(reg, {})
        return Poly(reg, {(0,) * len(reg): q})

    @staticmethod
    def symbol(reg, name):
        if name not in reg:
            raise KeyError(f"unknown symbol {name!r}; registry has {reg}")
        e = [0] * len(reg)
        e[reg.index(name)] = 1
        return Poly(reg, {tuple(e): 1})

    @staticmethod
    def monomial(reg, exps, coeff=1):
        coeff = _norm_coeff(coeff)
        if coeff == 0:
            return Poly(reg, {})
        return Poly(reg, {tuple(exps): coeff})

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def const_value(self):
        if not self.terms:
            return Fraction(0)
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return Fraction(c)

    def variables(self):
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(i)
        return used

    def lead(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        m = max(self.terms, key=_grlex)
        return m, self.terms[m]

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if self.reg is not other.reg and self.reg != other.reg:
            raise ValueError("polynomials from different registries")

    def _plus(self, other, subtract=False):
        """self + other, or self - other with subtract: one term loop, so a
        difference builds no negated copy."""
        self._check(other)
        out = dict(self.terms)
        terms = other.terms.items()
        if subtract:
            terms = ((e, -c) for e, c in terms)
        for e, c in terms:
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm_coeff(s)
            else:
                out.pop(e, None)
        return Poly(self.reg, out)

    __add__ = _plus

    def __neg__(self):
        return Poly(self.reg, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # one term times a Poly: a scale, shifted unless the term is a
            # constant; distinct terms stay distinct, so nothing cancels
            ((e1, c1),) = a.items()
            if not any(e1):
                return Poly(self.reg, {e: _norm_coeff(c1 * c) for e, c in b.items()})
            return Poly(
                self.reg, {tuple(map(int.__add__, e1, e)): _norm_coeff(c1 * c) for e, c in b.items()}
            )
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(int.__add__, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        for e in list(out):
            out[e] = _norm_coeff(out[e])
        return Poly(self.reg, out)

    __rmul__ = __mul__

    def scale(self, q):
        if q == 0:
            return Poly(self.reg, {})
        return Poly(self.reg, {e: _norm_coeff(c * q) for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial; use Scalar")
        result = Poly.const(self.reg, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- equality / hashing / display ----------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.reg == other.reg and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.reg, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical text order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            syms = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in zip(self.reg, e) if p
            )
            neg = c < 0
            mag = -c if neg else c
            if syms:
                body = syms if mag == 1 else f"{mag}*{syms}"
            else:
                body = str(mag)
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"{' - ' if neg else ' + '}{body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"

    # -- content / division / substitution -----------------------------

    def content(self):
        """Positive rational content (gcd of coefficients over Q); see
        `_content`."""
        return _content(self.terms.values())

    def primitive_int(self):
        """(factor, prim) with self = factor * prim; prim has coprime integer
        coefficients and positive graded-lex leading coefficient."""
        if not self.terms:
            return Fraction(0), self
        cont = self.content()
        _, lc = self.lead()
        if lc < 0:
            cont = -cont
        if type(cont) is int:
            if cont == 1:
                return 1, self
            return cont, Poly(self.reg, {e: c // cont for e, c in self.terms.items()})
        prim = Poly(self.reg, {e: _norm_coeff(Fraction(c) / cont) for e, c in self.terms.items()})
        return cont, prim

    def exact_div(self, d):
        """Exact polynomial quotient self/d; raises ExactDivisionError otherwise.

        The fields hold the degree tops of both operands, so every variable
        of either gets one and packing cannot overflow; an exact quotient
        needs no wider field.
        """
        if d.is_zero():
            raise ScalarDivisionError("polynomial division by zero")
        pk = _fit(len(self.reg), (self, d))
        return pk.unpack(self.reg, _divide(pk.pack(self), _descending(pk.pack(d)), pk.guard))

    def substitute(self, values):
        """Substitute polynomials/rationals for symbols.

        values maps symbol index -> Poly | int | Fraction.  Unmapped symbols
        stay formal.  One pass over the terms: a rational value multiplies
        the coefficient, and the powers of a polynomial value are computed
        once per call.
        """
        reg = self.reg
        rational = []
        poly = []
        for i, v in values.items():
            if isinstance(v, Poly):
                self._check(v)
                poly.append((i, v, {}))
            else:
                rational.append((i, _norm_coeff(Poly.const(reg, v).const_value())))
        out = {}
        for e, c in self.terms.items():
            rest = list(e)
            for i, v in rational:
                if e[i]:
                    c = c * v ** e[i]
                    rest[i] = 0
            if not c:
                continue
            acc = None
            for i, v, powers in poly:
                p = e[i]
                if p:
                    rest[i] = 0
                    pw = powers.get(p)
                    if pw is None:
                        pw = powers[p] = v ** p
                    acc = pw if acc is None else acc * pw
            base = tuple(rest)
            if acc is None:
                out[base] = out.get(base, 0) + c
            else:
                for m, a in acc.terms.items():
                    m = tuple(map(int.__add__, base, m))
                    out[m] = out.get(m, 0) + c * a
        return Poly(reg, {m: _norm_coeff(c) for m, c in out.items() if c})


# ---------------------------------------------------------------------------
# packed terms and the exact division on them
# ---------------------------------------------------------------------------
#
# A packed monomial is one int, a bit field and a guard bit per variable; the
# first variable sits in the most significant field, so integer order on
# packed monomials is lex order, and multiplying two monomials is adding two
# ints.  Two exponents below a field's guard bit add up without a carry into
# the next field, so a product that outgrows its field always shows as a set
# guard bit.


class _FieldOverflow(Exception):
    """A packed exponent outgrew its bit field."""


class _Packing:
    """Bit-field layout of the exponent vectors of one packed computation."""

    __slots__ = ("fields", "guard")

    def __init__(self, bounds):
        # bounds[i]: the largest exponent of variable i to hold; 0 means no field
        self.fields = []  # (variable, shift, 2 ** width)
        self.guard = 0
        shift = 0
        for i in reversed(range(len(bounds))):
            if bounds[i]:
                width = bounds[i].bit_length()
                self.fields.append((i, shift, 1 << width))
                self.guard |= 1 << (shift + width)
                shift += width + 1

    def pack(self, poly):
        out = {}
        for e, c in poly.terms.items():
            m = 0
            for i, shift, limit in self.fields:
                if e[i] >= limit:
                    raise _FieldOverflow
                m |= e[i] << shift
            out[m] = c
        return out

    def unpack(self, reg, terms):
        out = {}
        for m, c in terms.items():
            e = [0] * len(reg)
            for i, shift, limit in self.fields:
                e[i] = (m >> shift) & (limit - 1)
            out[tuple(e)] = _norm_coeff(c)
        return Poly(reg, out)


def _degree_top(nvars, polys):
    """Per variable, the largest exponent over the terms of the polys."""
    exps = [e for p in polys for e in p.terms]
    if not exps:
        return [0] * nvars
    return list(map(max, zip(*exps)))


def _fit(nvars, polys):
    """The layout whose fields just hold every exponent of the polys."""
    return _Packing(_degree_top(nvars, polys))


def _mul_into(acc, a, b):
    """acc += a * b on packed term dicts; zero sums stay until _settle."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    terms = b.items()
    for ma, ca in a.items():
        for mb, cb in terms:
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb
    return acc


def _settle(acc, guard, normal=False):
    """Drop zero terms; raise _FieldOverflow if a product set a guard bit.
    With normal, the coefficients come in `Poly`'s normal form (a Fraction
    of denominator 1 becomes an int)."""
    if normal:
        out = {m: c if type(c) is int else _norm_coeff(c) for m, c in acc.items() if c}
    else:
        out = {m: c for m, c in acc.items() if c}
    if reduce(or_, out, 0) & guard:
        raise _FieldOverflow
    return out


class Packed:
    """A polynomial on the packed monomials of one layout pk (a `_Packing`):
    terms maps packed monomials to nonzero int/Fraction coefficients in
    `Poly`'s normal form.  It has the ring operations `algebra.Straightener`
    needs (+, *, is_zero); a product that sets a guard bit raises
    _FieldOverflow, so an exponent past its field never wraps.  `Packed.of`
    and `poly` convert from and to Poly."""

    __slots__ = ("pk", "terms")

    def __init__(self, pk, terms):
        self.pk = pk
        self.terms = terms

    @staticmethod
    def of(pk, poly):
        return Packed(pk, pk.pack(poly))

    def poly(self, reg):
        return self.pk.unpack(reg, self.terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s if type(s) is int else _norm_coeff(s)
            else:
                del out[m]
        return Packed(self.pk, out)

    def __mul__(self, other):
        return Packed(self.pk, _settle(_mul_into({}, self.terms, other.terms), self.pk.guard, True))


def _descending(a):
    """Terms of a packed divisor, leading (largest) monomial first."""
    return sorted(a.items(), reverse=True)


def _qdiv(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _norm_coeff(Fraction(a) / b)


def _divide(f, d, guard):
    """Exact quotient of packed f by d (terms in descending order); f is
    consumed.  Raises ExactDivisionError when d does not divide f.

    Heap-ordered division (Monagan & Pearce 2007): the largest remaining
    monomial of f is always on top of a heap of the monomials still in f.
    d divides a monomial m iff no field of (m | guard) - lead borrows its
    guard bit.  If the division is exact, every product q_i * d_j stays
    inside the fields of f, so a product that sets a guard bit proves that
    it is not.
    """
    dm, dc = d[0]
    if len(d) == 1:
        out = {}
        for m, c in f.items():
            e = (m | guard) - dm
            if e & guard != guard:
                raise ExactDivisionError("division is not exact")
            out[e ^ guard] = _qdiv(c, dc)
        return out
    rest = d[1:]
    heap = [-m for m in f]
    heapify(heap)
    q = {}
    while heap:
        m = -heappop(heap)
        c = f.pop(m)
        if not c:
            continue
        e = (m | guard) - dm
        if e & guard != guard:
            raise ExactDivisionError("division is not exact")
        qm = e ^ guard
        qc = _qdiv(c, dc)
        q[qm] = qc
        for gm, gc in rest:
            t = qm + gm
            s = f.get(t)
            if s is None:
                if t & guard:
                    raise ExactDivisionError("division is not exact")
                f[t] = -qc * gc
                heappush(heap, -t)
            else:
                f[t] = s - qc * gc
    return q


# ---------------------------------------------------------------------------
# multivariate gcd: the heuristic gcd, run until its division certificate holds
# ---------------------------------------------------------------------------


def _gcd_many(polys):
    """gcd of an iterable of Polys (`_gcd_prim`); stops at the first
    constant gcd, so a lazy iterable is only read that far.  One input is
    returned as it is.

    Before each `_gcd_prim`, one exact division tests whether the running
    gcd g divides the next input p.  If it does, gcd(g, p) is g up to a
    rational unit, so g stays and only its normalized form (`primitive_int`,
    as `_gcd_prim` returns it) is taken; a failed division costs a packed
    division that stops at the first term it cannot divide.  The Verma minors
    of one level often share their gcd, so most of the chain ends there.
    """
    g = None
    for p in polys:
        if g is None:
            g = p
        elif g.is_zero():
            g = _gcd_prim(g, p)
        else:
            try:
                p.exact_div(g)
            except ExactDivisionError:
                g = _gcd_prim(g, p)
            else:
                g = g.primitive_int()[1]
        if g.is_const() and not g.is_zero():
            return Poly.const(g.reg, 1)
    return g


def _gcd_prim(a, b):
    """gcd of two Polys, primitive with integer coefficients and a positive
    graded-lex leading coefficient; with a zero input, the primitive part
    of the other one (zero for two zeros).

    The heuristic gcd GCDHEU of Char, Geddes & Gonnet (J. Symb. Comput. 7
    (1989) 31-48) on the primitive integer parts (`_heu_gcd`): it evaluates
    a variable at an integer xi >= 2 min(|a|, |b|) + 2, takes the gcd of
    the images and rebuilds a candidate from its xi-adic digits, which it
    accepts only when it divides both inputs exactly.  A rejected candidate
    only moves xi up, so every answer is the gcd and one always comes.
    """
    if a.is_zero():
        return b.primitive_int()[1]
    if b.is_zero():
        return a.primitive_int()[1]
    return _heu_gcd(a.primitive_int()[1], b.primitive_int()[1]).primitive_int()[1]


def _heu_gcd(a, b):
    """Full gcd, integer content included, of two nonzero Polys with integer
    coefficients.

    The last variable x that occurs is set to xi >= 2 min(|a|, |b|) + 2, |.|
    the largest coefficient size; the gcd gamma of the two images is taken
    by this routine one variable down (at the bottom, the gcd of the
    contents), and G(x) is rebuilt with the symmetric base-xi digits of
    gamma's coefficients, in (-xi/2, xi/2], as the coefficients of x^0,
    x^1, ...  When the primitive part of G divides a and b exactly, it is
    the gcd of their primitive parts, and times the gcd of their contents
    the full gcd (CGG's Theorem 1; xi starts at the bound and never
    shrinks).  The bound on xi and a gamma that is the full gcd of the
    images, content included, make it greatest: a gamma short of its
    content can rebuild a proper divisor that passes the division check.

    Otherwise xi grows by a factor of about 2.73 and the loop runs again.
    It ends: write a = g a', b = g b' with a', b' coprime.  Taken as
    polynomials in the other variables, a' and b' have coefficients in Z[x]
    with no common factor, so a combination of them with multipliers in
    Z[x] is a fixed nonzero integer r, and the integer gcd of the images
    a'(xi), b'(xi) divides r.  Apart from
    finitely many xi, where an image vanishes or the images share a factor
    in the other variables, gamma is then +-h g(xi) with h dividing r (by
    induction on the number of variables for the recursive gcd), and once
    xi > 2 |r| |g| the digits rebuild +-h g, which passes the certificate.
    """
    cont = math.gcd(a.content(), b.content())
    if a.is_const() or b.is_const():
        return Poly.const(a.reg, cont)
    v = max(a.variables() | b.variables())
    xi = 2 * min(max(map(abs, a.terms.values())), max(map(abs, b.terms.values()))) + 2
    while True:
        image_a = a.substitute({v: xi})
        image_b = b.substitute({v: xi})
        if not (image_a.is_zero() or image_b.is_zero()):
            g = _heu_rebuild(_heu_gcd(image_a, image_b), v, xi).primitive_int()[1]
            try:
                a.exact_div(g)
                b.exact_div(g)
            except ExactDivisionError:
                pass
            else:
                return g.scale(cont)
        xi = xi * 73794 // 27011


def _heu_rebuild(gamma, v, xi):
    """The polynomial G with G(x_v = xi) = gamma whose coefficients are the
    symmetric base-xi digits of gamma's, digit k standing at x_v^k."""
    out = {}
    for e, c in gamma.terms.items():
        k = 0
        while c:
            d = c % xi
            if 2 * d > xi:
                d -= xi
            if d:
                out[e[:v] + (k,) + e[v + 1:]] = d
            c = (c - d) // xi
            k += 1
    return Poly(gamma.reg, out)


# ---------------------------------------------------------------------------
# the fraction field
# ---------------------------------------------------------------------------


class Scalar:
    """Element of Q(g1..gn, alpha, beta, c, h) in canonical form.

    Invariants: den != 0; gcd(num, den) = 1; den monic under graded lex;
    zero is stored as 0/1.  Equality of instances is equality in the field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # internal: use Scalar.make for normalized construction
        self.num = num
        self.den = den

    @staticmethod
    def make(num, den=None):
        reg = num.reg
        if den is not None and den.is_zero():
            raise ScalarDivisionError("zero denominator")
        if den is None or num.is_zero():
            # a polynomial is already canonical over the denominator 1
            return Scalar(num, Poly.const(reg, 1))
        g = _gcd_prim(num, den)
        if not g.is_const():
            num = num.exact_div(g)
            den = den.exact_div(g)
        if den.is_const():
            q = Fraction(den.const_value())
            return Scalar(num.scale(Fraction(1) / q), Poly.const(reg, 1))
        _, lc = den.lead()
        if lc != 1:
            q = Fraction(1) / Fraction(lc)
            num = num.scale(q)
            den = den.scale(q)
        return Scalar(num, den)

    # -- basic queries --------------------------------------------------

    @property
    def reg(self):
        return self.num.reg

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.den.is_const() and self.num.is_const() and not self.num.is_zero() \
            and self.num.const_value() == 1

    def is_rational(self):
        return self.num.is_const() and self.den.is_const()

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("scalar is not a rational constant")
        return Fraction(self.num.const_value())

    def _den_is_one(self):
        return self.den.is_const()

    # -- field operations ------------------------------------------------

    def _plus(self, other, subtract=False):
        """self + other, or self - other with subtract, on `Poly._plus`."""
        if isinstance(other, (int, Fraction)):
            other = Scalar.make(Poly.const(self.reg, other))
        if self._den_is_one() and other._den_is_one():
            return Scalar(self.num._plus(other.num, subtract), self.den)
        num = (self.num * other.den)._plus(other.num * self.den, subtract)
        return Scalar.make(num, self.den * other.den)

    __add__ = __radd__ = _plus

    def __neg__(self):
        return Scalar(-self.num, self.den)

    def __sub__(self, other):
        return self._plus(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Scalar(Poly.zero(self.reg), Poly.const(self.reg, 1))
            # scaling by a nonzero rational preserves canonical form
            return Scalar(self.num.scale(other), self.den)
        if self._den_is_one() and other._den_is_one():
            return Scalar(self.num * other.num, self.den)
        return Scalar.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ScalarDivisionError("inverting zero")
        return Scalar.make(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ScalarDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        # powers of coprime parts stay coprime, of a monic den stay monic
        return Scalar(self.num**n, self.den**n)

    # -- equality / display -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self._den_is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"Scalar({self})"

    # -- substitution -------------------------------------------------------

    def specialize(self, bindings):
        """Substitute values for symbols; bindings maps name -> int | Fraction
        | Poly | Scalar.  Raises SpecializationError if the denominator
        vanishes."""
        reg = self.reg
        values = {}
        for name, v in bindings.items():
            if name not in reg:
                raise KeyError(f"unknown symbol {name!r}")
            if isinstance(v, Scalar):
                if not v._den_is_one():
                    raise ValueError("can only substitute polynomial values")
                v = v.num
            elif not isinstance(v, Poly):
                v = Poly.const(reg, v)
            values[reg.index(name)] = v
        num = self.num.substitute(values)
        den = self.den.substitute(values)
        if den.is_zero():
            raise SpecializationError("denominator vanished under specialization")
        return Scalar.make(num, den)


# ---------------------------------------------------------------------------
# parsing of the canonical text form
# ---------------------------------------------------------------------------


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":  # not isdigit, which also takes "²" and "١"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
        elif name := _NAME.match(text, i):  # ASCII, not isalpha, which takes "²"
            toks.append(("name", name.group()))
            i = name.end()
        elif text.startswith("**", i):
            toks.append(("op", "^"))
            i += 2
        elif ch in "+-*/^()":
            toks.append(("op", ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(("end", None))
    return toks


class _Parser:
    def __init__(self, ctx, text):
        self.ctx = ctx
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expr(self):
        kind, val = self.peek()
        neg = False
        while kind == "op" and val in "+-":
            self.take()
            if val == "-":
                neg = not neg
            kind, val = self.peek()
        node = self.term()
        if neg:
            node = -node
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = node * rhs if val == "*" else node / rhs
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "num":
                raise ParseError("exponent must be an integer")
            return node ** (sign * val)
        return node

    def base(self):
        kind, val = self.take()
        if kind == "num":
            return self.ctx.scalar(val)
        if kind == "name":
            return self.ctx.symbol(val)
        if kind == "op" and val == "(":
            node = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise ParseError("expected ')'")
            return node
        if kind == "op" and val == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input near token {self.peek()[1]!r}")
        return node


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

SYMBOLS = ("alpha", "beta", "c", "h")  # bindable parameters; no generator takes these names
_INT_TEXT = "[+-]?[0-9]+"  # ASCII digits only: int() also takes "1_0" and other scripts


@dataclass(frozen=True)
class Binding:
    """How one of alpha/beta/c/h is fixed for a session."""

    kind: str
    value: object = None

    def __post_init__(self):
        if self.kind not in ("free", "rational", "element"):
            raise ValueError(f"unknown binding kind {self.kind!r}")


def is_int(v):
    """An int that is not a bool: JSON true/false arrive as bool, which
    Python counts as int."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_list_of(value, kind):
    """A JSON list whose entries are all of kind (int excludes bool)."""
    return isinstance(value, list) and all(
        is_int(v) if kind is int else isinstance(v, kind) for v in value
    )


def ascii_int(text):
    """int(text) in the ASCII grammar of binding strings, spaces around it allowed."""
    if not re.fullmatch(rf"\s*{_INT_TEXT}\s*", text, re.ASCII):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_binding(name, spec, rank):
    if spec is None or spec == "free":
        return Binding("free")
    if isinstance(spec, Binding):
        return spec
    if isinstance(spec, dict) and isinstance(spec.get("element"), (list, tuple)):
        spec = spec["element"]
    if is_int(spec) or isinstance(spec, Fraction):
        return Binding("rational", Fraction(spec))
    if isinstance(spec, str):
        try:  # the README grammar, not Fraction's, which takes "1e99999999"
            if not re.fullmatch(rf"{_INT_TEXT}(/[0-9]+)?", spec):
                raise ValueError(spec)
            return Binding("rational", Fraction(spec))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad binding for {name}: {spec!r}") from exc
    if isinstance(spec, (tuple, list)) and all(is_int(x) for x in spec):
        if name != "alpha":
            raise ValueError(f"{name} cannot be bound to a group element")
        if len(spec) != rank:
            raise ValueError(f"alpha element binding needs {rank} coordinates")
        return Binding("element", tuple(spec))
    raise ValueError(f"bad binding for {name}: {spec!r}")


class Context:
    """One computation session: symbol registry plus fixed bindings.

    Generators g1..gn are always formal.  alpha/beta/c/h are free symbols
    unless bound here; a bound symbol never appears in any computed Scalar.
    A generator name follows the name grammar of parsed text (`_NAME`), so
    every rendered Scalar parses back to itself.
    """

    def __init__(self, gen_names, *, alpha=None, beta=None, c=None, h=None):
        gen_names = tuple(gen_names)
        for n in gen_names:
            if n in SYMBOLS:
                raise ValueError(f"generator name {n!r} is reserved")
            if not _NAME.fullmatch(n):
                raise ValueError(f"generator name {n!r} is not a name of parsed text: [A-Za-z_][A-Za-z0-9_]*")
        self.gen_names = gen_names
        self.rank = len(gen_names)
        self.reg = gen_names + SYMBOLS
        if len(set(self.reg)) != len(self.reg):
            raise ValueError("duplicate symbol names in registry")
        self.bindings = {
            "alpha": _parse_binding("alpha", alpha, self.rank),
            "beta": _parse_binding("beta", beta, self.rank),
            "c": _parse_binding("c", c, self.rank),
            "h": _parse_binding("h", h, self.rank),
        }

    @staticmethod
    def of_rank(n, **kw):
        return Context(tuple(f"g{i+1}" for i in range(n)), **kw)

    # -- scalar constructors ---------------------------------------------

    def zero(self):
        return Scalar.make(Poly.zero(self.reg))

    def one(self):
        return Scalar.make(Poly.const(self.reg, 1))

    def scalar(self, q):
        if isinstance(q, Scalar):
            return q
        if isinstance(q, str):
            return self.parse(q)
        return Scalar.make(Poly.const(self.reg, q))

    def symbol(self, name):
        """The raw symbol as a Scalar (ignores bindings)."""
        return Scalar.make(Poly.symbol(self.reg, name))

    def gen(self, i):
        return Scalar.make(Poly.symbol(self.reg, self.gen_names[i]))

    def embed(self, coords):
        """Embedded value of a group element: sum coords[i] * g_{i+1}."""
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        e0 = [0] * len(self.reg)
        terms = {}
        for i, k in enumerate(coords):
            if k:
                e = list(e0)
                e[i] = 1
                terms[tuple(e)] = k
        return Scalar.make(Poly(self.reg, terms))

    def binding(self, name):
        return self.bindings[name]

    def alpha_element(self):
        """Coordinates a with alpha = iota(a), or None.  Membership is
        structural: alpha is bound to a group element, or to the rational
        0 = iota(0); no symbolic value is tested."""
        b = self.bindings["alpha"]
        if b.kind == "element":
            return tuple(b.value)
        if b.kind == "rational" and b.value == 0:
            return (0,) * self.rank
        return None

    def bound_value(self, name):
        """The effective Scalar for alpha/beta/c/h under this session's binding."""
        b = self.bindings[name]
        if b.kind == "free":
            return self.symbol(name)
        if b.kind == "rational":
            return self.scalar(b.value)
        return self.embed(b.value)

    @property
    def alpha(self):
        return self.bound_value("alpha")

    @property
    def beta(self):
        return self.bound_value("beta")

    @property
    def c(self):
        return self.bound_value("c")

    @property
    def h(self):
        return self.bound_value("h")

    def parse(self, text):
        try:
            return _Parser(self, text).parse()
        except RecursionError:
            raise ParseError("expression nests too deeply") from None

    def __repr__(self):
        bound = {k: v for k, v in self.bindings.items() if v.kind != "free"}
        return f"Context(rank={self.rank}, bound={bound})"

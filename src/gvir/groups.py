"""Finitely generated subgroups of C, modeled as Z^n with formal generators.

A group element is a plain tuple of integer coordinates over the generators
g1..gn.  Because the generators stay formal indeterminates, the embedding
x -> sum x_i * g_i is injective by construction and rank questions reduce to
integer linear algebra.  This module is integer arithmetic; its one
determinant, `int_det`, runs `linalg.det` on constant rows, so the
unimodularity checks of `split` and `classify` take the same Bareiss
elimination as every other determinant.  Its one Hermite reduction step,
`reduce_modulo`, gives the canonical pass of `hermite_basis` and the
canonical splitting direction b of `classify`.  Embedded values are produced
through a Context (see scalars).

G carries one total order compatible with addition, the colex order of
`colex_key`: the last coordinate compares first.  It sorts the PBW bases of
the enveloping algebra and cuts the triangular parts Vir[G]^+ and Vir[G]^-.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .linalg import det
from .scalars import Poly


class SplitError(ValueError):
    """A requested direct-sum splitting does not exist."""


# -- element helpers (elements are plain int tuples) -------------------------


def gzero(n):
    return (0,) * n


def gadd(x, y):
    return tuple(map(int.__add__, x, y))


def gsub(x, y):
    return tuple(map(int.__sub__, x, y))


def gneg(x):
    return tuple(-a for a in x)


def gscale(k, x):
    return tuple(k * a for a in x)


def is_zero(x):
    return not any(x)


def element_gcd(x):
    return math.gcd(*x)


def is_primitive(x):
    return element_gcd(x) == 1


def box(radius, rank):
    """Coordinate tuples of sup-norm <= radius, in itertools.product order."""
    return itertools.product(range(-radius, radius + 1), repeat=rank)


def box_exceeds(radius, rank, cap):
    """Whether `box(radius, rank)` holds more than cap tuples, counted
    factor by factor and stopped once over the cap, so that a radius of
    thousands of digits or a large rank costs a few multiplications."""
    count = 1
    for _ in range(rank):
        count *= 2 * radius + 1
        if count > cap:
            return True
    return False


def render_element(x):
    return "[" + ",".join(str(a) for a in x) + "]"


def colex_key(x):
    """Sort key of the one order on G, colex: the last coordinate compares
    first, so g1 < g2, and x < y implies x + z < y + z."""
    return x[::-1]


@dataclass(frozen=True)
class Group:
    """Free abelian group of finite rank with named formal generators."""

    rank: int
    names: tuple

    @staticmethod
    def of_rank(n):
        if n < 1:
            raise ValueError("rank must be >= 1")
        return Group(n, tuple(f"g{i+1}" for i in range(n)))

    def zero(self):
        return gzero(self.rank)

    def validate(self, x):
        x = tuple(x)
        if any(type(a) is not int for a in x):
            raise ValueError(f"element {x} has a coordinate that is not an int")
        if len(x) != self.rank:
            raise ValueError(f"element {x} has wrong length for rank {self.rank}")
        return x


# -- integer linear algebra ---------------------------------------------------


def int_det(rows):
    """Determinant of a square integer matrix: `linalg.det` on constant
    Polys over a registry with no variables."""
    sparse = [{j: Poly.const((), v) for j, v in enumerate(row) if v} for row in rows]
    return int(det((), sparse).const_value())


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def unimodular_completion(b):
    """U, V with U unimodular, V = U^-1, and U @ b = e1.

    The columns of V are then a Z-basis of Z^n whose first column is b.
    Raises SplitError unless b is primitive.
    """
    n = len(b)
    if is_zero(b):
        raise SplitError("b must be nonzero")
    if not is_primitive(b):
        raise SplitError(f"b = {render_element(b)} is not primitive (gcd {element_gcd(b)})")
    m = list(b)
    U = _identity(n)
    V = _identity(n)

    def addmul(i, j, t):
        # row_i += t * row_j on (m, U); inverse column op col_j -= t * col_i on V
        m[i] += t * m[j]
        U[i] = [a + t * c for a, c in zip(U[i], U[j])]
        for row in V:
            row[j] -= t * row[i]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def negate(i):
        m[i] = -m[i]
        U[i] = [-a for a in U[i]]
        for row in V:
            row[i] = -row[i]

    while True:
        nz = [i for i in range(n) if m[i] != 0]
        piv = min(nz, key=lambda i: abs(m[i]))
        if piv != 0:
            swap(0, piv)
        if m[0] < 0:
            negate(0)
        done = True
        for i in range(1, n):
            if m[i] != 0:
                q = m[i] // m[0]
                addmul(i, 0, -q)
                if m[i] != 0:
                    done = False
        if done:
            break
    assert m[0] == 1 and all(v == 0 for v in m[1:])
    return [tuple(r) for r in U], [tuple(r) for r in V]


def hermite_basis(vectors, n):
    """Row-style Hermite basis of the subgroup of Z^n generated by vectors.

    Returns a tuple of independent generators (rows), possibly empty.
    """
    rows = [list(v) for v in vectors if not is_zero(v)]
    basis = []
    for col in range(n):
        pool = [r for r in rows if r[col] != 0]
        if not pool:
            continue
        while True:
            pool.sort(key=lambda r: abs(r[col]))
            piv = pool[0]
            reduced = False
            for r in pool[1:]:
                q = r[col] // piv[col]
                for i in range(n):
                    r[i] -= q * piv[i]
                if r[col] != 0:
                    reduced = True
            pool = [piv] + [r for r in pool[1:] if r[col] != 0]
            if not reduced or len(pool) == 1:
                break
        piv = pool[0]
        if piv[col] < 0:
            piv[:] = [-a for a in piv]
        basis.append(piv)
        rows = [r for r in rows if r is not piv and not is_zero(r)]
        for r in rows:
            if r[col] != 0 and r[col] % piv[col] == 0:
                q = r[col] // piv[col]
                for i in range(n):
                    r[i] -= q * piv[i]
        rows = [r for r in rows if not is_zero(r)]
    # canonical form: each row reduced modulo the (already reduced) rows below it
    for j in range(len(basis) - 2, -1, -1):
        basis[j] = reduce_modulo(basis[j], basis[j + 1:])
    return tuple(tuple(r) for r in basis)


def reduce_modulo(v, basis):
    """Canonical representative of v modulo the echelon rows in basis: v's
    entry at each row's pivot column (its first, positive entry) in [0, pivot)."""
    v = list(v)
    for h in basis:
        c = next(i for i, a in enumerate(h) if a)
        q = v[c] // h[c]
        if q:
            v = [x - q * y for x, y in zip(v, h)]
    return tuple(v)


@dataclass(frozen=True)
class Splitting:
    """A direct-sum decomposition G = G0 (+) Z*b.

    b is a primitive element; g0_basis spans the complement; to_split is the
    integer matrix sending x to its coordinates (level k, then G0 coords u):
    x = k*b + sum u_i * g0_basis[i].
    """

    b: tuple
    g0_basis: tuple
    to_split: tuple

    def level(self, x):
        """Coefficient of b in x."""
        return sum(a * v for a, v in zip(self.to_split[0], x))

    def g0_coords(self, x):
        return tuple(sum(a * v for a, v in zip(row, x)) for row in self.to_split[1:])

    def compose(self, k, u):
        """Group element k*b + sum u_i g0_i."""
        out = gscale(k, self.b)
        for ui, gi in zip(u, self.g0_basis):
            out = gadd(out, gscale(ui, gi))
        return out

    def g0_rank(self):
        return len(self.g0_basis)


def split(group, b):
    """Split G = G0 (+) Z*b for a primitive direction b.

    The complement basis comes from a unimodular completion of b; its choice
    is deterministic.  Raises SplitError when b is zero or imprimitive.
    """
    b = group.validate(b)
    U, V = unimodular_completion(b)
    n = group.rank
    cols = [tuple(V[r][j] for r in range(n)) for j in range(n)]
    assert cols[0] == b
    det = int_det(V)
    if det not in (1, -1):
        raise SplitError("completion is not unimodular")
    return Splitting(b=b, g0_basis=tuple(cols[1:]), to_split=tuple(U))

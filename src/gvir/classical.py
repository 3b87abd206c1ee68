"""Highest-weight machinery over the rank-1 algebra (indices in Z).

Works with the classical convention [d_m, d_n] = (n - m) d_{m+n}
+ delta_{m,-n} (m^3 - m)/12 C (so [d_1, d_{-1}] = -2 d_0), the bracket of
`algebra.structure_constants` on G = Z, the central element acting by c and
d_0 on the highest weight vector by h.

A truncated Verma module keeps levels 0..L; the level-n basis is the set of
partitions (k_1 >= ... >= k_r >= 1) of n standing for d_{-k_1}... d_{-k_r} v.
Singular vectors at level n are the joint kernel of the raising maps
d_1..d_n; the symbolic existence condition is the gcd of the maximal minors
of the stacked raising matrix (its vanishing locus is where the kernel jumps).

Only the d_1 and d_2 blocks are stacked.  Since [d_1, d_k] = (k-1) d_{k+1},
on level n the d_{k+1} block equals (d_1 d_k - d_k d_1) / (k-1) for k >= 2
(each product read as a product of the two maps' matrices), so by
induction every block of the full stack d_1..d_n is a Q[c, h]-combination
of the rows of the d_1 and d_2 blocks: full = T (d_1; d_2) with T
polynomial, while (d_1; d_2) is a row subset of the full stack.  The two
matrices therefore have the same ideal of maximal minors (Cauchy-Binet one
way, row subset the other), hence the same minor gcd, and the same row space
over Q(c, h), hence the same reduced row echelon form and kernel basis.  The
argument survives evaluating c and h at rationals.

No minor is formed one by one (`linalg.minor_gcd`).  Let M be the stack,
m x n with m >= n, and run one fraction-free Gauss-Jordan elimination on
its transpose.  If the rank is below n every maximal minor is zero.  Else,
with D the last pivot (+-det of M^T on the pivot columns P) and Y = D X the
reduced pivot rows on the k = m - n free columns, M^T = A [I | X] up to
column order with det A = +-D, so by Laplace the minor on the columns
(P minus t pivot columns) plus t free columns is +-D times a t x t minor of
X, that is +-(the t x t minor of Y) / D^(t-1).  The minors are +-D for
t = 0 and the entries of Y for t = 1; levels 1..6 have k <= 1 (m - n is 0,
0, 0, 0, 1, 1), so there the condition is the gcd of D and the entries of Y.

The action is the `algebra.Straightener` kernel on Poly coefficients, with
d_j labelled -j so that a partition part k is the factor d_{-k}; Scalars
appear only in `act`, `singular_vectors` and `find_singular`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import not_

from .algebra import CENTER, Straightener, accumulate, structure_constants
from .linalg import Echelon, kernel_basis, minor_gcd
from .scalars import Poly, Scalar


def partitions(n, cap=None):
    """Partitions of n as nonincreasing tuples, largest part first."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    first = n if cap is None else min(cap, n)
    for k in range(first, 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def partition_count(n):
    """p(n) by the independent Euler dynamic program."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def verma_dims(level_cap):
    """Level dimensions p(0..L) of the truncated Verma module."""
    if level_cap < 0:
        raise ValueError("level cap must be >= 0")
    return [partition_count(n) for n in range(level_cap + 1)]


@dataclass
class SingularVectorReport:
    """Joint kernel of the raising operators at one level.

    vectors are {word: Scalar} combinations of the level basis, each
    annihilated by d_1..d_level; conditions is the (possibly constant)
    normalized polynomial whose vanishing characterizes a nontrivial kernel
    at this level, as a one-element list.
    """

    level: int
    basis: list
    vectors: list
    conditions: list

    def kernel_dim(self):
        return len(self.vectors)


class TruncatedVermaModule:
    """Verma module with highest weight h and central charge c, levels <= L.

    Vectors are {partition word: Scalar} dictionaries.  c and h come from the
    context bindings (free symbols or rationals).  The module is immutable
    after construction, so everything it builds is memoized: the action, the
    bracket constants, and per level the basis, the raising rows and the
    kernel.  `find_singular` and `quotient_dims_after_singular` thus build
    each level once between them, and an empty kernel that a nonzero
    condition proves is recorded without an elimination.  The memoized rows
    and kernels are shared; callers read them and do not change them.
    """

    def __init__(self, ctx, level_cap):
        if level_cap < 0:
            raise ValueError("level cap must be >= 0")
        self.ctx = ctx
        self.level_cap = level_cap
        self.c = ctx.c
        self.h = ctx.h
        # d_j carries the label -j, so d_{-k} is the partition part k
        self._one = Poly.const(ctx.reg, 1)
        self._straight = Straightener(self._one, _part_first, self._bracket, self._top)
        self._brackets = {}  # (a, k) -> [(label, Poly)]
        self._bases = {}  # level -> tuple of partitions
        self._rows = {}  # level -> raising rows
        self._kernels = {}  # level -> kernel vectors {word: Poly}

    # -- basis -------------------------------------------------------------

    def basis(self, n):
        words = self._bases.get(n)
        if words is None:
            words = self._bases[n] = tuple(partitions(n))
        return list(words)

    def dims(self):
        return verma_dims(self.level_cap)

    def weight(self, n):
        """d_0 eigenvalue on level n."""
        return self.h - self.ctx.scalar(n)

    def highest_vector(self):
        return {(): self.ctx.one()}

    # -- action ------------------------------------------------------------

    def _bracket(self, a, k):
        # [d_{-a}, d_{-k}] by `structure_constants` on G = Z, d_j labelled -j;
        # the embedding is the rational j, so each value is one Poly.const
        out = self._brackets.get((a, k))
        if out is None:
            pairs = structure_constants(lambda x: x[0], (-a,), (-k,), not_)
            reg = self.ctx.reg
            out = self._brackets[a, k] = [
                (y if y == CENTER else -y[0], Poly.const(reg, q)) for y, q in pairs
            ]
        return out

    def _top(self, a, v):
        """d_{-a} or C on v: a lowering operator stands on v, d_{j>0} kills
        it, d_0 acts by h and C by c."""
        if a == CENTER or a == 0:
            value = (self.c if a == CENTER else self.h).num
            return {} if value.is_zero() else {((), v): value}
        return {((a,), v): self._one} if a > 0 else {}

    def act(self, j, vec):
        """Action of d_j (any integer j) on a vector."""
        out = {}
        for word, coeff in vec.items():
            if coeff.is_zero():
                continue
            for (w2, _), p in self._straight.lmul(-j, (word, None)).items():
                accumulate(out, w2, coeff * Scalar.make(p))
        return out

    # -- singular vectors ----------------------------------------------------

    def raising_rows(self, n):
        """Stacked matrix of the raising maps d_1 and d_2 from level n.

        Rows are indexed by (k, target word at level n-k) for k <= min(n, 2),
        columns by the level-n basis; entries are Polys in the bound/free
        c, h.  d_1 and d_2 generate every d_k with k >= 1, so these rows have
        the kernel and the minor gcd of the full stack d_1..d_n (see the
        module docstring).  Built once per level; the rows are shared.
        """
        rows = self._rows.get(n)
        if rows is not None:
            return rows
        cols = {w: i for i, w in enumerate(self.basis(n))}
        rows = []
        for k in range(1, min(n, 2) + 1):
            targets = {w: {} for w in self.basis(n - k)}
            for w, i in cols.items():
                for (w2, _), p in self._straight.lmul(-k, (w, None)).items():
                    targets[w2][i] = p
            rows.extend(targets.values())
        self._rows[n] = rows
        return rows

    def singular_vectors(self, n):
        """Joint kernel of d_1..d_n at level n under the current bindings,
        as {word: Scalar} vectors; no existence condition is formed."""
        self._check_level(n)
        return [_as_scalars(vec) for vec in self._kernel(n)]

    def find_singular(self, n):
        """Joint kernel of d_1..d_n at level n, with the existence condition.

        The kernel is computed under the current bindings; the condition is
        the normalized gcd of all maximal minors of the stacked d_1, d_2
        matrix, which equals that of the full stack d_1..d_n.  A nonzero
        condition means a nonzero maximal minor and so an empty kernel, which
        is then not computed but recorded for the level (a nonzero constant:
        none for nearby values).
        """
        self._check_level(n)
        condition = minor_gcd(self.ctx.reg, self.raising_rows(n), partition_count(n))
        if not condition.is_zero():
            self._kernels.setdefault(n, [])
        vectors = [_as_scalars(vec) for vec in self._kernel(n)]
        return SingularVectorReport(n, self.basis(n), vectors, [condition])

    def _check_level(self, n):
        if not 0 < n <= self.level_cap:
            raise ValueError("level must satisfy 0 < n <= level_cap")

    def _kernel(self, n):
        """Kernel vectors at level n as {partition word: Poly}, computed once
        per level; the vectors are shared."""
        kernel = self._kernels.get(n)
        if kernel is None:
            basis = self.basis(n)
            kernel = self._kernels[n] = [
                {w: p for w, p in zip(basis, vec) if not p.is_zero()}
                for vec in kernel_basis(self.ctx.reg, self.raising_rows(n), len(basis))
            ]
        return kernel

    # -- quotient by singular vectors ------------------------------------------

    def quotient_dims_after_singular(self):
        """Dimensions of the truncation modulo everything the detected
        singular vectors generate.  Needs c and h bound to rationals."""
        for name in ("c", "h"):
            if self.ctx.binding(name).kind != "rational":
                raise ValueError("quotient dims need c and h bound to rationals")
        L = self.level_cap
        singular = {}
        for n in range(1, L + 1):
            vectors = self._kernel(n)
            if vectors:
                singular[n] = vectors
        dims = [1]
        for lvl in range(1, L + 1):
            cols = {w: i for i, w in enumerate(self.basis(lvl))}
            ech = Echelon(len(cols))
            moves = ((svec, mu) for n, vecs in singular.items() if n <= lvl
                     for svec in vecs for mu in partitions(lvl - n))
            for svec, mu in moves:
                if ech.is_full():
                    break
                moved = {(w, None): p for w, p in svec.items()}
                for m in reversed(mu):
                    moved = self._straight.act(m, moved)
                row = {cols[w]: p for (w, _), p in moved.items()}
                if row:
                    ech.add_row(row)
            dims.append(len(cols) - ech.rank)
        return dims

    def is_trivial_quotient(self, dims=None):
        """True when the quotient collapses to the 1-dimensional trivial
        module (h = 0 and every positive level dies)."""
        dims = dims if dims is not None else self.quotient_dims_after_singular()
        return dims[0] == 1 and all(d == 0 for d in dims[1:]) and self.h.is_zero()


def _part_first(a, k):
    """Parts are nonincreasing; a label a <= 0 (d_{-a} raising or d_0) never
    stands in a word."""
    return a >= k


def _as_scalars(vec):
    return {w: Scalar.make(p) for w, p in vec.items()}

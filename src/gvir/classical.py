"""Highest-weight machinery over the rank-1 algebra (indices in Z).

Works with the classical convention [d_m, d_n] = (n - m) d_{m+n}
+ delta_{m,-n} (m^3 - m)/12 C (so [d_1, d_{-1}] = -2 d_0), the central
element acting by c and d_0 on the highest weight vector by h.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Echelon, det, kernel_basis, to_poly
from .scalars import Poly, Scalar, _gcd_many


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
    after construction; action tables are memoized.
    """

    def __init__(self, ctx, level_cap):
        if level_cap < 0:
            raise ValueError("level cap must be >= 0")
        self.ctx = ctx
        self.level_cap = level_cap
        self.c = ctx.c
        self.h = ctx.h
        self._lmul_memo = {}
        self._raise_memo = {}

    # -- basis -------------------------------------------------------------

    def basis(self, n):
        return list(partitions(n))

    def dims(self):
        return verma_dims(self.level_cap)

    def weight(self, n):
        """d_0 eigenvalue on level n."""
        return self.h - self.ctx.scalar(n)

    def highest_vector(self):
        return {(): self.ctx.one()}

    # -- action ------------------------------------------------------------

    def act(self, j, vec):
        """Action of d_j (any integer j) on a vector."""
        out = {}
        for word, coeff in vec.items():
            if coeff.is_zero():
                continue
            for w2, c2 in self._act_word(j, word).items():
                _accum(out, w2, coeff * c2)
        return out

    def _act_word(self, j, word):
        if j < 0:
            return self._lmul_word(-j, word)
        if j == 0:
            return {word: self.h - self.ctx.scalar(sum(word))}
        return self._raise_word(j, word)

    def _lmul_word(self, m, word):
        """d_{-m} times the basis word, straightened; m >= 1."""
        if not word or m >= word[0]:
            return {(m,) + word: self.ctx.one()}
        key = (m, word)
        hit = self._lmul_memo.get(key)
        if hit is not None:
            return hit
        k, rest = word[0], word[1:]
        # d_{-m} d_{-k} = d_{-k} d_{-m} + (m-k) d_{-(m+k)}
        out = {}
        for w2, c2 in self._lmul_word(m, rest).items():
            for w3, c3 in self._lmul_word(k, w2).items():
                _accum(out, w3, c2 * c3)
        cf = self.ctx.scalar(m - k)
        for w2, c2 in self._lmul_word(m + k, rest).items():
            _accum(out, w2, cf * c2)
        self._lmul_memo[key] = out
        return out

    def _raise_word(self, j, word):
        """d_j times the basis word for j >= 1; d_j v = 0 on the top line."""
        if not word:
            return {}
        key = (j, word)
        hit = self._raise_memo.get(key)
        if hit is not None:
            return hit
        k, rest = word[0], word[1:]
        out = {}
        # d_j d_{-k} = d_{-k} d_j + (-k-j) d_{j-k} + delta_{j,k} (j^3-j)/12 C
        for w2, c2 in self._raise_word(j, rest).items():
            for w3, c3 in self._lmul_word(k, w2).items():
                _accum(out, w3, c2 * c3)
        cf = self.ctx.scalar(-k - j)
        for w2, c2 in self._act_word(j - k, rest).items():
            _accum(out, w2, cf * c2)
        if j == k:
            central = self.ctx.scalar(Fraction(j**3 - j, 12)) * self.c
            if not central.is_zero():
                _accum(out, rest, central)
        self._raise_memo[key] = out
        return out

    # -- singular vectors ----------------------------------------------------

    def raising_rows(self, n):
        """Stacked matrix of the raising maps d_1 and d_2 from level n.

        Rows are indexed by (k, target word at level n-k) for k <= min(n, 2),
        columns by the level-n basis; entries are Polys in the bound/free
        c, h.  d_1 and d_2 generate every d_k with k >= 1, so these rows have
        the kernel and the minor gcd of the full stack d_1..d_n (see the
        module docstring).
        """
        cols = {w: i for i, w in enumerate(self.basis(n))}
        rows = []
        reg = self.ctx.reg
        for k in range(1, min(n, 2) + 1):
            targets = {w: {} for w in self.basis(n - k)}
            for w, i in cols.items():
                for w2, c2 in self._raise_word(k, w).items():
                    if not c2.is_zero():
                        targets[w2][i] = to_poly(reg, c2)
            rows.extend(targets[w] for w in self.basis(n - k))
        return rows

    def singular_vectors(self, n):
        """Joint kernel of d_1..d_n at level n under the current bindings,
        as {word: Scalar} vectors; no existence condition is formed."""
        self._check_level(n)
        return self._kernel(n, self.raising_rows(n))

    def find_singular(self, n):
        """Joint kernel of d_1..d_n at level n, with the existence condition.

        The kernel is computed under the current bindings; the condition is
        the normalized gcd of all maximal minors of the stacked d_1, d_2
        matrix, which equals that of the full stack d_1..d_n (a nonzero
        constant means no kernel for any nearby values).
        """
        self._check_level(n)
        rows = self.raising_rows(n)
        condition = self._minor_gcd(rows, partition_count(n))
        return SingularVectorReport(n, self.basis(n), self._kernel(n, rows), [condition])

    def _check_level(self, n):
        if not 0 < n <= self.level_cap:
            raise ValueError("level must satisfy 0 < n <= level_cap")

    def _kernel(self, n, rows):
        basis = self.basis(n)
        return [
            {w: Scalar.make(p) for w, p in zip(basis, vec) if not p.is_zero()}
            for vec in kernel_basis(self.ctx.reg, rows, len(basis))
        ]

    def _minor_gcd(self, rows, ncols):
        reg = self.ctx.reg
        dense = []
        for row in rows:
            dense.append([row.get(j, Poly.zero(reg)) for j in range(ncols)])
        minors = []
        for subset in itertools.combinations(range(len(dense)), ncols):
            d = det(reg, [dense[i] for i in subset])
            if not d.is_zero():
                minors.append(d)
        if not minors:
            return Poly.zero(reg)
        g = _gcd_many(minors)
        _, prim = g.primitive_int()
        return prim

    # -- quotient by singular vectors ------------------------------------------

    def quotient_dims_after_singular(self):
        """Dimensions of the truncation modulo everything the detected
        singular vectors generate.  Needs c and h bound to rationals."""
        for name in ("c", "h"):
            if self.ctx.binding(name).kind != "rational":
                raise ValueError("quotient dims need c and h bound to rationals")
        reg = self.ctx.reg
        L = self.level_cap
        singular = {}
        for n in range(1, L + 1):
            vectors = self.singular_vectors(n)
            if vectors:
                singular[n] = vectors
        dims = [1]
        for lvl in range(1, L + 1):
            cols = {w: i for i, w in enumerate(self.basis(lvl))}
            ech = Echelon(len(cols))
            for n, vecs in singular.items():
                if n > lvl:
                    continue
                for svec in vecs:
                    for mu in partitions(lvl - n):
                        moved = svec
                        for m in reversed(mu):
                            moved = self.act(-m, moved)
                        row = {
                            cols[w]: to_poly(reg, s)
                            for w, s in moved.items()
                            if not s.is_zero()
                        }
                        if row:
                            ech.add_row(row)
                        if ech.is_full():
                            break
            dims.append(len(cols) - ech.rank)
        return dims

    def is_trivial_quotient(self, dims=None):
        """True when the quotient collapses to the 1-dimensional trivial
        module (h = 0 and every positive level dies)."""
        dims = dims if dims is not None else self.quotient_dims_after_singular()
        return dims[0] == 1 and all(d == 0 for d in dims[1:]) and self.h.is_zero()


def _accum(out, word, coeff):
    prev = out.get(word)
    s = coeff if prev is None else prev + coeff
    if s.is_zero():
        out.pop(word, None)
    else:
        out[word] = s

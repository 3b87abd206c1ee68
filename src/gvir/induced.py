"""Windowed generalized Verma modules induced from an intermediate-series top.

Fix a splitting G = G0 (+) Zb.  The top copy V'(alpha, beta, G0) sits at
b-level 0, everything of level >= 1 kills it, and the induced module is
spanned by monomials d_{u_1 - k_1 b} ... d_{u_r - k_r b} (x) v_mu with
k_j >= 1.  The irreducible quotient divides out the unique maximal proper
submodule J.

The J computation here avoids projecting intermediate results to a window.
A vector m of level i lies in J exactly when every product of raising
operators of total level i kills its level-0 image; each such product,
applied to a basis monomial and read off on the level-0 line, is one exact
scalar.  The quotient dimension at a weight is the rank of the resulting
(probe sequences) x (basis monomials) matrix.  Restricting probes and
monomials to a finite box makes that a submatrix of the true infinite
system, so windowed dimensions are monotone nondecreasing in the box radius
and bounded by the true dimension, in particular by (2i+1)!! at level i.
Probes are drawn from the extended pool {d_{y+kb} : |y| <= k*N}, which is
closed under commutators; ordered products over it span the same functional
space as nondecreasing multisets, so only multisets are enumerated.

Two exact symmetries keep the ranks affordable.  First, the retained top
support is anchored at the accessed weight (|sum u_j| <= R rather than a
box around the origin), which makes the probe matrix at (i, x) the matrix
at (i, 0) with alpha replaced by alpha + iota(x); for a free alpha that is
a field automorphism, so each level row of the dimension table is constant
and is computed once.  Second, C acts as 0 throughout, as forced by the
top module, so every matrix entry is a product of degree-one factors and
is homogeneous under deg g_i = deg alpha = 1, deg beta = 0; rescaling rows
and columns by monomials makes all minors homogeneous, hence substituting
one generator := 1 preserves the rank exactly and removes a variable
whenever the bound alpha is itself homogeneous (free, a group element, or
zero).  No coefficient ever needs division and all entries stay polynomial,
so the action (the `algebra.Straightener` kernel, memoized in `_act_memo`)
and the probe rows compute on packed polynomials (`scalars.Packed`) and
carry them straight into `symbolic_rank`, with no Poly, no Scalar and no
gcd on the way.  The module has one packed layout: a bit field per
registry symbol it uses, sized from the proven degree bound (`_fit`), with
guard bits, so an overflow raises and never wraps.  The generator := 1
substitution is a mask of its field in `symbolic_rank`'s single pass over
each row.  Poly and Scalar appear only at the public boundary:
`act_on_induced` takes and returns Scalar combinations, and `kernel_at`
returns them.  All evaluators are pure and memoized per module instance.

Ranks at distinct weights are independent, and `quotient_dims` ranks them in
two processes when `forks.second_cpu` grants a second CPU (one child per
call, the rule of `forks`).  One unit of work is a (level, weight) pair at
both radii N and N+1, so the two share the straightening memo.  The calling
process keeps one share of the units and one forked helper process ranks the
other; the helper sends its (key, rank) pairs back over a pipe into the rank
memo.  Every matrix is the one a single process would rank, so tables,
errors and reports do not change.  A bound alpha gives one unit per report
weight, and these split in two once the table's estimated cost is above a
measured floor.  A free alpha gives one unit per level, and its top level
holds nearly all the cost; no split takes a quarter of the work off the
caller, so such a table stays one share, and each of its large ranks runs as
one peer, two halves instead: the caller and one forked peer share its rows
(`symbolic_rank`).  `taskset -c 0` leaves one CPU, and then one process.

Probe rows share prefixes.  The probe sequences are nondecreasing tuples and
a sequence acts first operator first, so, per basis monomial, the vector
after each proper prefix is computed once and reused by every sequence that
extends it.  A one-operator prefix is the memoized `Straightener.lmul`
result itself, and the last operator only sums the coefficient of the target
top line instead of building its whole image.  Rows, their order and every
entry are those of applying each sequence separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .algebra import Straightener, accumulate
from .classify import _direction_verdict, descriptor_from_induced
from .forks import Child, recv, send, second_cpu
from .groups import box, gadd, gsub, gzero, split
from .interseries import subquotient_of
from .linalg import kernel_basis, symbolic_rank
from .scalars import Packed, Scalar, _mul_into, _Packing, _settle


# the estimated cost (sum |basis_at|^3 over a table's units and radii) below
# which a table stays in one process: among alpha-bound tables timed alone
# and with one helper on a 2-core host, every table above it ranked faster
# with the helper, and below it some did not (a fork costs about 3 ms, and
# a helper repeats the straightening that units share)
_HELPER_FLOOR = 20_000


def double_factorial_odd(i):
    """(2i+1)!! = 1*3*5*...*(2i+1)."""
    return math.prod(range(1, 2 * i + 2, 2))


@dataclass(frozen=True)
class Window:
    """Truncation parameters: levels 0..L, factor box radius N, and the
    radius R of the retained top support around each accessed weight.
    Dimension tables are reported for |x| <= i*N + R at level i."""

    level_cap: int
    box_radius: int
    top_radius: int

    @staticmethod
    def make(level_cap, box_radius, top_radius=None):
        if level_cap < 0:
            raise ValueError("level cap must be >= 0")
        if box_radius < 1:
            raise ValueError("box radius must be >= 1")
        if top_radius is None:
            top_radius = box_radius + level_cap
        if top_radius < 1:
            raise ValueError("top radius must be >= 1")
        return Window(level_cap, box_radius, top_radius)


def _factor_first(x, f):
    """d_{u - k b} (x = (k, u)) may stand left of the factor f: it lowers
    (k >= 1) and comes first in the sorted (k, u) order."""
    return x[0] > 0 and x <= f


def _multisets(pool, total):
    """Nondecreasing tuples over pool (sorted (k, y) pairs) with sum of k
    equal to total."""
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(pool)):
            k, y = pool[idx]
            if k <= remaining:
                acc.append(pool[idx])
                rec(idx, remaining - k, acc)
                acc.pop()

    rec(0, total, [])
    return out


class InducedModule:
    """Windowed induced module with its maximal-quotient dimension engine.

    The context fixes alpha and beta (free symbols or bound); b picks the
    splitting direction.  The top copy is always the irreducible V', so a
    reducible top drops the single line at mu = -a, alpha = iota(a)."""

    def __init__(self, ctx, group, b, window):
        if group.rank < 2:
            raise ValueError("induction needs a rank >= 2 group")
        if ctx.rank != group.rank:
            raise ValueError("context and group rank disagree")
        self.ctx = ctx
        self.group = group
        self.split = split(group, b)
        self.window = window
        self.g0_rank = self.split.g0_rank()
        # bound values are polynomial (a symbol, a rational or an embedded
        # group element), so the action works on packed polynomials built
        # from them and from the generators, in the layout of `_fit`
        self._alpha_beta = (ctx.alpha.num, ctx.beta.num)
        self._used = set(range(ctx.rank)).union(*(p.variables() for p in self._alpha_beta))
        self._iota0_memo = {}  # iota(y + t b) per (t, y)
        self._dims_memo = {}
        # a factor (k, u) stands for d_{u - k b}; a generator d_{y + t b}
        # carries the same label (-t, y), so lowering operators are factors
        self._straight = Straightener(None, _factor_first, self._bracket, self._top)
        self._act_memo = self._straight.memo
        self._degree = 0
        self._fit(max(2 * window.level_cap, 1))
        a = ctx.alpha_element()
        # alpha = iota(a) with a in G0, in G0 coordinates; else None
        self.alpha_g0 = (
            self.split.g0_coords(a) if a is not None and self.split.level(a) == 0 else None
        )
        top = subquotient_of(self.alpha_g0, ctx.binding("beta"))
        self.top_excluded = top.excluded
        self.top_kind = top.kind
        # a free alpha gives constant level rows (see quotient_dims)
        self.alpha_free = ctx.binding("alpha").kind == "free"
        # every entry is homogeneous under deg g_i = deg alpha = 1,
        # deg beta = 0 when alpha is free or a group element, and then
        # symbolic_rank sets the last generator to 1 without changing a rank
        self.unit_var = ctx.rank - 1 if self.alpha_free or a is not None else None

    # -- packed layout and embedded values ---------------------------------------

    def _fit(self, degree):
        """Lay out packed monomials for coefficients of degree at most degree
        in each variable, unless the layout already holds them.

        Each registry symbol the module uses gets a field.  Every
        coefficient is a product of factors of degree at most 1 in each
        variable (bracket values iota(z), top values alpha + iota(mu) +
        iota(y) beta), one factor per operator it consumes: at most 2i in a
        probe entry at level i, and 1 + (number of factors) in the action on
        a monomial.  A new layout empties the memos of packed values."""
        if degree <= self._degree:
            return
        self._degree = degree
        pk = self._pk = _Packing([degree if i in self._used else 0 for i in range(len(self.ctx.reg))])
        self._alpha, self._beta = (Packed.of(pk, p) for p in self._alpha_beta)
        shifts = {i: s for i, s, _ in pk.fields}
        self._gens = [1 << shifts[i] for i in range(self.ctx.rank)]
        self._one = self._straight.one = Packed(pk, {0: 1})
        self._iota0_memo.clear()
        self._act_memo.clear()

    def _embed_gen(self, t, y):
        """iota of the index y + t*b (y in G0 coordinates), memoized per
        (t, y): sum z_i g_i for z = y + t*b, as `Context.embed`."""
        hit = self._iota0_memo.get((t, y))
        if hit is None:
            z = self.split.compose(t, y)
            hit = self._iota0_memo[t, y] = Packed(self._pk, {m: k for m, k in zip(self._gens, z) if k})
        return hit

    # -- action ----------------------------------------------------------------

    def _top_act(self, y, mu):
        """d_y (y in G0) on the top line v_mu; the dropped line absorbs
        whatever lands on it."""
        nu = gadd(y, mu)
        if self.top_excluded is not None and nu == self.top_excluded:
            return {}
        coeff = self._alpha + self._embed_gen(0, mu) + self._embed_gen(0, y) * self._beta
        if coeff.is_zero():
            return {}
        return {((), nu): coeff}

    def _top(self, x, mu):
        """d_{u - k b} (x = (k, u)) on v_mu: a lowering operator stands on
        the top, level 0 acts through V' and raising operators kill it."""
        k, u = x
        if k > 0:
            return {((x,), mu): self._one}
        if k == 0:
            return self._top_act(u, mu)
        return {}

    def _bracket(self, x, f):
        # [d_{u-kb}, d_{u1-k1b}] = iota(u1 - u + (k - k1) b) d_(merged);
        # the central term is dropped, since C acts as 0 here
        (k, u), (k1, u1) = x, f
        br = self._embed_gen(k - k1, gsub(u1, u))
        if br.is_zero():
            return ()
        return (((k + k1, gadd(u, u1)), br),)

    def _act(self, gen, mono):
        """d_{y + t b} (gen = (t, y)) applied to one basis monomial, with
        Packed coefficients."""
        t, y = gen
        self._fit(len(mono[0]) + 1)
        return self._straight.lmul((-t, y), mono)

    # -- bases -------------------------------------------------------------------

    def _shift(self, factors):
        """sum u over the factors (k, u) of a monomial or probe sequence."""
        shift = gzero(self.g0_rank)
        for _, u in factors:
            shift = gadd(shift, u)
        return shift

    def probe_multisets(self, i, radius):
        """Probe sequences of level i, shortest first, over the extended
        raising pool (k, y) with |y| <= k * radius."""
        pool = sorted((k, y) for k in range(1, i + 1) for y in box(k * radius, self.g0_rank))
        return sorted(_multisets(pool, i), key=lambda s: (len(s), s))

    def basis_at(self, i, x, radius=None):
        """Windowed monomials of level i and G0-weight x, in PBW order.

        The retained top support is anchored at x: the factor shift
        sum u_j stays within the top radius, so the window is translation
        equivariant."""
        radius = self.window.box_radius if radius is None else radius
        R = self.window.top_radius
        pool = sorted((k, u) for k in range(1, i + 1) for u in box(radius, self.g0_rank))
        out = []
        for factors in _multisets(pool, i):
            shift = self._shift(factors)
            if max(map(abs, shift), default=0) > R:
                continue
            mu = tuple(a - s for a, s in zip(x, shift))
            if mu == self.top_excluded:
                continue
            out.append((factors, mu))
        out.sort()
        return out

    def report_weights(self, i):
        reach = i * self.window.box_radius + self.window.top_radius
        return sorted(box(reach, self.g0_rank))

    # -- quotient dimensions -------------------------------------------------------

    def _probe_rows(self, i, x, cols, radius):
        """Rows {column: Packed} of the probe matrix at (level i, G0-weight
        x): one per probe sequence that lands on a kept top line, in probe
        order, holding each column monomial's coefficient on that line.
        Prefix vectors are shared per column (see the module docstring)."""
        self._fit(2 * i)
        pk = self._pk
        lmul = self._straight.lmul
        act = self._straight.act
        probes = []
        for seq in self.probe_multisets(i, radius):
            nu = gadd(x, self._shift(seq))
            if nu != self.top_excluded:
                ops = tuple((-k, y) for k, y in seq)
                # the empty sequence (level 0) reads the column itself
                probes.append((ops[:-1], ops[-1] if ops else None, ((), nu)))

        def after(prefixes, mono, head):
            vec = prefixes.get(head)
            if vec is None:
                if len(head) == 1:
                    vec = lmul(head[0], mono)
                else:
                    vec = act(head[-1], after(prefixes, mono, head[:-1]))
                prefixes[head] = vec
            return vec

        rows = [{} for _ in probes]
        for j, mono in enumerate(cols):
            prefixes = {}
            for row, (head, last, target) in zip(rows, probes):
                if last is None:
                    val = self._one if mono == target else None
                elif not head:
                    val = lmul(last, mono).get(target)
                else:
                    acc = {}
                    for m, c in after(prefixes, mono, head).items():
                        c2 = lmul(last, m).get(target)
                        if c2 is not None:
                            _mul_into(acc, c.terms, c2.terms)
                    terms = _settle(acc, pk.guard, True)
                    val = Packed(pk, terms) if terms else None
                if val is not None:
                    row[j] = val
        return [row for row in rows if row]

    def dims_at(self, i, x, radius=None):
        """Quotient dimension at (level i, G0-weight x) for one box radius."""
        radius = self.window.box_radius if radius is None else radius
        x = tuple(x)
        key = (i, x, radius)
        hit = self._dims_memo.get(key)
        if hit is not None:
            return hit
        cols = self.basis_at(i, x, radius)
        if cols:
            rows = self._probe_rows(i, x, cols, radius)
            d = symbolic_rank(self.ctx.reg, rows, unit_var=self.unit_var)
        else:
            d = 0
        self._dims_memo[key] = d
        return d

    def kernel_at(self, i, x, radius=None):
        """Basis of the windowed J at one weight, as monomial combinations
        with Scalar coefficients."""
        radius = self.window.box_radius if radius is None else radius
        x = tuple(x)
        cols = self.basis_at(i, x, radius)
        if not cols:
            return []
        reg = self.ctx.reg
        rows = [{j: p.poly(reg) for j, p in row.items()} for row in self._probe_rows(i, x, cols, radius)]
        vectors = kernel_basis(reg, rows, len(cols))
        return [
            {mono: Scalar.make(p) for mono, p in zip(cols, vec) if not p.is_zero()}
            for vec in vectors
        ]

    def _shares(self, units, radii):
        """The units not yet ranked, split into the caller's share and one
        helper's, the helper's empty when a fork does not pay.

        Units go longest first, by the estimated cost sum |basis_at|^3 over
        the radii, to the share with the less cost so far; each share keeps
        table order.  A fork is not worth it for a table whose whole cost is
        below _HELPER_FLOOR, nor for a split that would take less than a
        quarter of the cost off the caller (an alpha-free table, where the
        top level dominates, never is), so those cases and no second CPU
        leave the helper nothing."""
        todo = [u for u in units if any((*u, r) not in self._dims_memo for r in radii)]
        if len(todo) < 2 or not second_cpu():
            return todo, []
        cost = {u: sum(len(self.basis_at(*u, r)) ** 3 for r in radii) for u in todo}
        if sum(cost.values()) < _HELPER_FLOOR:
            return todo, []
        loads = [0, 0]
        owner = {}
        for u in sorted(todo, key=cost.__getitem__, reverse=True):
            k = owner[u] = 1 if loads[1] < loads[0] else 0
            loads[k] += cost[u]
        if 4 * loads[1] < sum(loads):
            return todo, []
        return [u for u in todo if not owner[u]], [u for u in todo if owner[u]]

    def _rank_units(self, units, radii):
        """Memoize the rank of every (level, weight) unit at every radius.

        A unit keeps its radii together, so they share the straightening
        memo.  The caller ranks its share of `_shares` and one forked helper
        process ranks the other, sending its (key, rank) pairs back over a
        pipe.  A helper that fails (the known ExactDivisionError, or death)
        sends what it finished; the caller ranks the rest in table order
        while the helper is still live, so no rank forks a peer and an error
        surfaces with its own type.  No helper or peer outlives this call."""

        def rank(share, done):
            for i, x in share:
                for radius in radii:
                    done[(i, x, radius)] = self.dims_at(i, x, radius)

        def rank_share(share, out, _):
            done = {}
            try:
                rank(share, done)
            finally:
                send(out, done)

        mine, theirs = self._shares(units, radii)
        with Child() as helper:
            fd = None
            if theirs:
                try:
                    fd = helper.fork(partial(rank_share, theirs))[0]
                except OSError:
                    pass  # no helper: the caller ranks its share below
            rank(mine, {})
            if fd is not None:
                with open(fd, "rb", closefd=False) as pipe:
                    try:
                        self._dims_memo.update(recv(pipe))
                    except EOFError:
                        pass  # a helper that died mid-write
            rank(units, {})

    def quotient_dims(self):
        """Dimension table at radius N plus the N+1 rerun for stability.

        With a free alpha the anchored window makes the matrix at (i, x)
        the matrix at (i, 0) composed with the automorphism
        alpha -> alpha + iota(x), so each level row is constant and one
        rank per level per radius suffices.  Those ranks, or one per report
        weight otherwise, go to `_rank_units`: with a second usable CPU, a
        forked helper ranks some of them (see the module docstring).
        A single-process run ranks them in table order, as the table reads
        them from the memo."""
        N = self.window.box_radius
        origin = gzero(self.g0_rank)
        levels = range(self.window.level_cap + 1)
        if self.alpha_free:
            units = [(i, origin) for i in levels]
        else:
            units = [(i, x) for i in levels for x in self.report_weights(i)]
        self._rank_units(units, (N, N + 1))
        entries = {}
        next_entries = {}
        for i in levels:
            for x in self.report_weights(i):
                at = origin if self.alpha_free else x
                entries[(i, x)] = self.dims_at(i, at, N)
                next_entries[(i, x)] = self.dims_at(i, at, N + 1)
        stable = {k: entries[k] == next_entries[k] for k in entries}
        return QuotientDims(self, self.window, entries, next_entries, stable)

    # -- public action with window flagging -------------------------------------

    def act_on_induced(self, elem, vec):
        """Action of an algebra element on a combination of monomials.

        Exact; components whose factor box or top index leave the window are
        kept but reported through the escaped flag (the caller should widen
        the window before trusting windowed ranks involving them).  C acts
        as 0.  vec maps monomials to Scalars, and so does the result.
        """
        out = {}
        for z, coeff in elem.d_terms.items():
            gen = (self.split.level(z), self.split.g0_coords(z))
            for mono, s in vec.items():
                for mono2, p in self._act(gen, mono).items():
                    accumulate(out, mono2, coeff * s * Scalar.make(p.poly(self.ctx.reg)))
        escaped = any(self._escapes(mono) for mono in out)
        return out, escaped

    def _escapes(self, mono):
        factors, _ = mono
        w = self.window
        return (
            any(max(map(abs, u), default=0) > w.box_radius for _, u in factors)
            or max(map(abs, self._shift(factors)), default=0) > w.top_radius
            or sum(k for k, _ in factors) > w.level_cap
        )


@dataclass
class QuotientDims:
    """Windowed dimension table of the irreducible quotient.

    entries maps (level i, G0-coords x) to the rank at box radius N;
    next_entries holds the N+1 rerun at the same top radius, and stable
    flags their agreement."""

    module: InducedModule
    window: Window
    entries: dict
    next_entries: dict
    stable: dict

    def level_row(self, i):
        return {x: d for (j, x), d in self.entries.items() if j == i}

    def max_level_dim(self, i):
        row = self.level_row(i)
        return max(row.values(), default=0)

    def bound_ok(self):
        """The (2i+1)!! bound on every stable entry."""
        return all(
            d <= double_factorial_odd(key[0])
            for key, d in self.entries.items()
            if self.stable[key]
        )

    def support_check(self):
        """Classify the support against the two admissible patterns.

        pattern_A: alpha - Z+ b + G0 (generic top); pattern_B: the same set
        with the zero weight removed (reducible top, alpha in G0).  Entries
        only hold levels 0..L, so no weight above the top can occur; the one
        possible violation is a nonzero entry on the removed zero weight."""
        excluded = self.module.top_excluded
        if excluded is None:
            return {"verdict": "pattern_A", "violations": []}
        d0 = self.entries.get((0, excluded))
        if d0:
            violation = {"level": 0, "coords": list(excluded), "dim": d0}
            return {"verdict": "violation", "violations": [violation]}
        return {"verdict": "pattern_B", "violations": []}

    def string_boundedness(self, g):
        """Behavior of the weight strings along a nonzero direction g of G.

        The rows of `descriptor_from_induced` (the stable entries at their
        group coordinates, with zero rows above the top) go through the
        classifier's `_direction_verdict`: bounded, truncated_above,
        truncated_below, mixed, vacuous or unknown."""
        g = self.module.group.validate(g)
        if not any(g):
            raise ValueError("direction must be nonzero")
        return _direction_verdict(descriptor_from_induced(self), g)

    def to_json(self):
        w = self.window
        sc = self.support_check()
        return {
            "level_cap": w.level_cap,
            "box_radius": w.box_radius,
            "top_radius": w.top_radius,
            "top_kind": self.module.top_kind,
            "splitting_b": list(self.module.split.b),
            "g0_basis": [list(g) for g in self.module.split.g0_basis],
            "support_check": sc,
            "stable_count": sum(1 for v in self.stable.values() if v),
            "entry_count": len(self.entries),
            "max_dim_per_level": {
                str(i): self.max_level_dim(i) for i in range(w.level_cap + 1)
            },
            "rows": [
                {"level": i, "coords": list(x), "dim": d, "stable": self.stable[i, x]}
                for (i, x), d in sorted(self.entries.items())
            ],
        }

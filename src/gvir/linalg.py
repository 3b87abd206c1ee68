"""Exact linear algebra over polynomial entries.

Every elimination here takes one step, the fraction-free row update of
Bareiss (1968): a row r becomes (r * piv - prow * r[col]) / div, which
clears column col with the pivot piv of the pivot row prow (`_combine`).
Three routines choose the pivots and divisors, one rule each:

- `symbolic_rank` pivots on the entry with the fewest terms and keeps a
  delayed divisor per row, the pivot that last updated it;
- `Echelon` and `det` run the forward half of Bareiss, fed one row at a
  time: a new row takes every kept step, divided by the pivot of the step
  before, and whatever is left becomes the next pivot row;
- `kernel_basis` and `minor_gcd` (on the transpose) run the Gauss-Jordan
  `_fraction_free` on the leftmost column and its first row, with the
  previous pivot as the one global divisor, so a kernel forms no Scalar and
  takes one polynomial gcd per vector.

Before it eliminates, `kernel_basis` tries to certify an empty kernel: full
column rank of the rows evaluated at a fixed point modulo a fixed prime
proves full column rank over the fraction field (`_full_column_rank` says
why), and then no elimination runs.

Before it eliminates a matrix above the peer floor, `symbolic_rank` drops
every row, and then every column, that is a rational linear combination of
the ones it keeps (`_reduced`).  A row in the Q-span of the kept rows lies
in their span over the fraction field, so the rank cannot change, and
column rank is rank.  The combinations are found modulo the prime of the
certificate, under a Q-linear map that gives every (column, monomial) its
own pseudo-random weight: weights shared across columns, or an evaluation
at a point (a ring map), also collapse combinations with polynomial
coefficients, and then the rational ones are not recovered.  A row or
column is dropped only after its rebuilt rational combination holds
exactly on every term, so the answer never depends on the weights.  Probe
matrices are very redundant over Q, and the elimination runs on far fewer
rows; the delayed-divisor defect (`symbolic_rank`) can still raise there.

All of them run on one packed-term kernel: rows are {monomial int:
coefficient} dicts (the packed format of `scalars`, beside `Poly` and
`Packed`), each update fuses into one accumulation and divides with the
heap-ordered `scalars._divide`, the division of `Poly.exact_div` too.  Each
variable that occurs gets a bit field sized from a proven bound (twice the
sum over rows of the row's largest degree in it) plus a guard bit; a
product that sets a guard bit makes `_with_fields` repack with wider fields
and start over (`Echelon` lays out its kept rows again), so no overflow
passes silently.  The tests check them against a dense elimination over the
rational-function field (tests/oracles.py), slow but independent.

Rows enter `symbolic_rank` and `kernel_basis` divided by their monomial gcd
and positive rational content only (`_Prepared` says how): dividing a row by
a nonzero polynomial is a unit scaling over the fraction field, so no rank
or kernel needs a polynomial gcd there, and on probe rows the gcd cost more
than the elimination it was meant to shrink.  No row is signed: no pivot,
division or rank reads a row's sign, and `_primitive` gives each kernel
vector its sign.  `Echelon` and `det` take rows
as they come and never scale what is left of one, since the divisions hold
for the minors themselves.

Every routine takes one input format: rows as sparse dicts
{column index -> Poly}, zero entries absent; `symbolic_rank` also takes
`Packed` entries of one layout.  `det` is the one determinant of the
package; `groups.int_det` runs it on constant rows.

`symbolic_rank` shares one large elimination with one peer, two halves
(one child per call, the rule of `forks`): the caller keeps the even rows
and the peer the odd ones, and at each step the two halves agree on the
pivot, the owner of the pivot row sends it, and each half updates its own
rows (`_rank_kernel`).  Only a reduced matrix still above a measured floor
is worth the fork; `taskset -c 0` leaves one CPU, and then one process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from math import isqrt, lcm
from operator import mul, or_
from random import Random

from .forks import Child, recv, send, second_cpu
from .scalars import ExactDivisionError, Packed, Poly, _content, _degree_top, _descending, _divide
from .scalars import _fit, _FieldOverflow, _gcd_many, _mul_into, _norm_coeff, _Packing, _settle


class _Prepared:
    """Sparse rows prepared for elimination in one pass over their packed terms.

    Entries are Packed, all of one layout and taken as they are (a Packed
    keeps its coefficients in `Poly`'s normal form), or Poly, packed here
    once into the layout that just holds their exponents (`scalars._fit`).
    Per row the pass sets the variable unit_var (if given) to 1 by masking
    its field, drops the entries that vanish, and takes the monomial gcd from
    the per-field minima, the degree tops (per variable, the largest
    exponent left after the gcd) and the positive rational content
    (`_content`).  Empty rows are dropped.  `pack` then divides each row by
    its monomial gcd and content while it narrows the terms into the fields
    of a kernel layout; the row keeps its sign.  Every coefficient comes out
    in `Poly`'s normal form: a Fraction content is never 1 on normal
    coefficients, so scaling by it also normalizes a raw Fraction(2, 1).
    """

    def __init__(self, nvars, rows, unit_var=None):
        src = next((p.pk for row in rows for p in row.values() if type(p) is Packed), None)
        if src is None:
            src = _fit(nvars, [p for row in rows for p in row.values()])
            rows = [{j: src.pack(p) for j, p in row.items()} for row in rows]
        else:
            rows = [{j: p.terms for j, p in row.items()} for row in rows]
        self.fields = [(i, s, limit - 1) for i, s, limit in src.fields if i != unit_var]
        unit = sum((limit - 1) << s for i, s, limit in src.fields if i == unit_var)
        keep = ~unit
        self.rows = []  # (entries {col: packed terms}, monomial gcd, content)
        self.tops = []
        for row in rows:
            entries = {}
            coeffs = []
            for j, terms in row.items():
                if unit_var is not None:
                    out = {}
                    for m, c in terms.items():
                        m &= keep
                        out[m] = out.get(m, 0) + c
                    terms = {m: c if type(c) is int else _norm_coeff(c) for m, c in out.items() if c}
                if terms:
                    entries[j] = terms
                    coeffs += terms.values()
            if not entries:
                continue
            low = 0
            top = [0] * nvars
            for i, s, mask in self.fields:
                vals = [m >> s & mask for terms in entries.values() for m in terms]
                least = min(vals)
                low |= least << s
                top[i] = max(vals) - least
            self.rows.append((entries, low, _content(coeffs)))
            self.tops.append(top)

    def pack(self, pk):
        """The prepared rows in the layout pk, each divided by its monomial
        gcd and positive content, its sign kept (`_primitive` signs kernel
        vectors); _FieldOverflow if a degree top does not fit its field."""
        dst = {i: (s, limit) for i, s, limit in pk.fields}
        moves = []
        for i, s, mask in self.fields:
            need = max((top[i] for top in self.tops), default=0)
            if need:
                if i not in dst or need >= dst[i][1]:
                    raise _FieldOverflow
                moves.append((s, mask, dst[i][0]))
        out = []
        for entries, low, cont in self.rows:
            if cont == 1 and type(cont) is int:
                div = None  # int coefficients of content 1 stay as they are
            elif type(cont) is int:
                div = cont.__rfloordiv__
            else:
                div = partial(_scaled, Fraction(1) / cont)
            row = {}
            for j, terms in entries.items():
                packed = {}
                for m, c in terms.items():
                    m -= low
                    n = 0
                    for s, mask, d in moves:
                        n |= (m >> s & mask) << d
                    packed[n] = c if div is None else div(c)
                row[j] = packed
            out.append(row)
        return out


def _scaled(q, c):
    return _norm_coeff(c * q)


class Echelon:
    """The forward half of Bareiss's elimination, fed one row at a time.

    The k-th kept row holds its pivot p_k in its pivot column c_k and is
    zero on c_1..c_{k-1}.  A new row r takes every kept step in order,
    r <- (r * p_k - (k-th row) * r[c_k]) / p_{k-1} (no divisor at the
    first).  Then every entry of r is a minor of the input on the kept rows
    and r (Sylvester's identity), so every division is exact, and r ends at
    zero exactly when the row lies in the span of the kept rows.  Whatever
    is left is kept under its entry with the fewest terms (the smallest
    column on a tie).  The rows stay packed in one layout, laid out again
    only when the degree bound (`_field_bounds`) of the kept rows and the
    new one outgrows it, or a product overflows it.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # (pivot column, packed pivot row), in insertion order
        self._tops = []  # the degree tops of the kept input rows
        self._bounds = []  # the field bounds of the layout _pk
        self._pk = _Packing(self._bounds)

    @property
    def rank(self):
        return len(self.rows)

    def is_full(self):
        return self.rank >= self.ncols

    def add_row(self, row):
        """Reduce and keep a row {col: Poly}; returns True iff the rank grew."""
        return self._add(row)

    def _add(self, row):
        # `det` steps in here, so the rows of a determinant are not add_row calls
        row = {j: p for j, p in row.items() if p.terms}
        if not row:
            return False
        reg = next(iter(row.values())).reg
        top = _degree_top(len(reg), row.values())
        need = _field_bounds(len(reg), self._tops + [top])
        while True:
            limits = {i: limit for i, _, limit in self._pk.fields}
            if any(b >= limits.get(i, 1) for i, b in enumerate(need)):
                self._lay_out(reg, need)
            try:
                r = {j: self._pk.pack(p) for j, p in row.items()}
                div = None
                for col, prow in self.rows:
                    r = _combine(r, prow, col, prow[col], div, self._pk.guard)
                    if not r:
                        return False
                    div = _descending(prow[col])
                break
            except _FieldOverflow:
                need = [2 * b for b in self._bounds]
        self.rows.append((min(r, key=lambda j: (len(r[j]), j)), r))
        self._tops.append(top)
        return True

    def _lay_out(self, reg, bounds):
        bounds = list(map(max, bounds, self._bounds or bounds))  # never narrower
        old, pk = self._pk, _Packing(bounds)
        self.rows = [(c, {j: pk.pack(old.unpack(reg, t)) for j, t in prow.items()}) for c, prow in self.rows]
        self._bounds, self._pk = bounds, pk


def symbolic_rank(reg, rows, unit_var=None):
    """Exact rank of a sparse polynomial matrix over the fraction field.

    Fraction-free elimination with per-row delayed divisors: each pivot
    step applies `_combine` to every active row that meets the pivot
    column, dividing by the pivot that last updated that row; a row with a
    zero multiplier is skipped and keeps its old divisor.  This keeps entry
    growth at the size of the pivot minors.  Pivots minimize term count
    (the smallest row index, then the first column found, wins a tie).

    Every update is an invertible row operation over the field, so a run
    that completes returns the exact rank.  Known defect: a run need not
    complete.  A skipped row is not scaled by the pivot it skipped, so when
    it later becomes the pivot row, the numerator of a row whose divisor is
    that skipped pivot need not contain it, and the division raises
    ExactDivisionError.  (No determinant identity makes it exact; see the
    strict-xfail tests.)  Two halves reproduce the defect: they take the
    same pivots and updates, so the error is raised at the same step, by
    the same row.

    Entries are Poly, or `Packed` of one layout (the induced module's probe
    rows); Poly rows are packed once on entry.  With unit_var given, that
    variable is set to 1 first, by masking its field.  This keeps the rank
    only when every minor is homogeneous; `InducedModule` checks that
    before it passes unit_var.  The rows are prepared in one pass over
    their packed terms (`_Prepared`), which also gives the degree tops that
    size the kernel's fields.

    A matrix large enough for a peer (`_worth_a_peer`) is first reduced
    (`_reduced`): every row, and then every column, that is a rational
    combination of the ones kept is dropped once the combination is checked
    exactly.  A row in the Q-span of the kept rows lies in their span over
    the fraction field, and column rank is rank, so the rank cannot change.
    The combinations are found modulo a prime under one weight per (column,
    monomial): shared weights or a point evaluation (a ring map) would also
    collapse polynomial combinations.  The known defect can still raise, on
    the reduced matrix.

    One peer, two halves: when `forks.second_cpu` grants the one child of
    the `forks` rule, the rows of a reduced matrix that is still large are
    split between this process and a forked peer (`_spread_rank`); the
    rank, and any error, is the one of a single process.  Large means at
    least _PEER_ROWS rows and a cost of at least _PEER_COST, the cost being
    the number of terms times the number of variables that occur.
    """
    prep = _Prepared(len(reg), rows, unit_var)
    return _with_fields(len(reg), prep.tops, prep.pack, _rank)


def _rank(packed, pk):
    # the layout has a field for each variable that varies in a prepared row
    peer = _worth_a_peer(packed, len(pk.fields))
    if peer:
        packed = _reduced(packed)
        seen = reduce(or_, (m for row in packed for t in row.values() for m in t), 0)
        fields = sum(1 for _, s, limit in pk.fields if seen >> s & (limit - 1))
        peer = _worth_a_peer(packed, fields) and second_cpu()
    return (_spread_rank if peer else _rank_kernel)(packed, pk.guard)


# the prime and point of the certificate of an empty kernel: the variable of
# index i takes the value _CERT_POINT ** (i + 1) modulo the prime; `_reduced`
# maps to the same prime and seeds its weights with the point
_CERT_PRIME = (1 << 61) - 1
_CERT_POINT = 1_000_003


# forking a peer costs about 3 ms; among the induce probe matrices, timed
# alone and with one peer on a 2-core host, every matrix at or above both
# floors ranked faster with the peer, and below them some did not
_PEER_ROWS = 8
_PEER_COST = 5000


def _worth_a_peer(rows, fields):
    """Whether packed rows in which `fields` variables occur are large
    enough to share with a peer."""
    return len(rows) >= _PEER_ROWS and fields * sum(len(t) for row in rows for t in row.values()) >= _PEER_COST


def _reduced(rows):
    """The packed rows without the rows, and then the columns, that
    `_independent` finds to be rational combinations of those it keeps;
    kept rows and columns stay in their order."""
    rows = [rows[i] for i in _independent(rows)]
    cols = {}
    for i, row in enumerate(rows):
        for j, t in row.items():
            cols.setdefault(j, {})[i] = t
    order = sorted(cols)
    keep = {order[k] for k in _independent([cols[j] for j in order])}
    if len(keep) == len(order):
        return rows
    return [{j: t for j, t in row.items() if j in keep} for row in rows]


def _independent(vecs):
    """The indices, in order, of vectors {key: packed terms} to keep so that
    every other one is a verified rational combination of them.

    Each vector maps to F_p, p = _CERT_PRIME, with nfun coordinates per key:
    functional f sends the terms c * m of a key to the sum of c * w, w the
    pseudo-random weight of (key, m) for f, drawn in order of first use from
    a fixed seed (the module docstring says why no weight is shared).  A
    mod-p elimination over the images, fewest terms first so that the
    sparsest vectors stay, records each dependent vector's combination.  The
    vector is dropped only when that combination, rebuilt as rationals
    (`_rational`), holds exactly on every term (`_combination_holds`).
    """
    if not vecs:
        return []
    p = _CERT_PRIME
    pos = {k: n for n, k in enumerate(sorted({k for v in vecs for k in v}))}
    nfun = -(-(len(vecs) + 1) // len(pos))
    rng = Random(_CERT_POINT)
    weights = {k: [{} for _ in range(nfun)] for k in pos}  # key -> per functional {monomial: weight}
    images = []
    for v in vecs:
        image = [0] * (len(pos) * nfun)
        for k, terms in v.items():
            wk = weights[k]
            for m in [m for m in terms if m not in wk[0]]:
                for wf in wk:
                    wf[m] = rng.getrandbits(61)
            base = pos[k] * nfun
            for f, wf in enumerate(wk):  # `_Prepared.pack` leaves int coefficients
                image[base + f] = sum(map(mul, terms.values(), map(wf.__getitem__, terms))) % p
        images.append(image)
    basis = []  # (pivot coordinate, image with 1 there, combination {index: coeff})
    kept = []
    size = [sum(map(len, v.values())) for v in vecs]
    for i in sorted(range(len(vecs)), key=lambda i: (size[i], i)):
        r, comb = images[i], {i: 1}
        for at, b, bc in basis:
            f = r[at]
            if f:
                r = [(x - f * y) % p for x, y in zip(r, b)]
                for k, a in bc.items():
                    comb[k] = (comb.get(k, 0) - f * a) % p
        at = next((t for t, x in enumerate(r) if x), None)
        if at is not None:
            inv = pow(r[at], -1, p)
            basis.append((at, [x * inv % p for x in r], {k: a * inv % p for k, a in comb.items()}))
            kept.append(i)
        elif not _combination_holds(vecs, i, {k: -a % p for k, a in comb.items() if k != i and a}):
            kept.append(i)
    return sorted(kept)


def _combination_holds(vecs, i, comb):
    """Whether vecs[i] is exactly the rational combination of the other
    vectors whose coefficients comb gives modulo _CERT_PRIME."""
    coeffs = []
    for k, a in comb.items():
        q = _rational(a)
        if q is None:
            return False
        coeffs.append((k, q))
    d = lcm(*(q.denominator for _, q in coeffs))
    acc = {key: {m: -d * c for m, c in terms.items()} for key, terms in vecs[i].items()}
    for k, q in coeffs:
        s = q.numerator * (d // q.denominator)
        for key, terms in vecs[k].items():
            out = acc.setdefault(key, {})
            get = out.get
            for m, c in terms.items():
                out[m] = get(m, 0) + s * c
    return not any(any(out.values()) for out in acc.values())


def _rational(a):
    """The fraction n/d congruent to a modulo _CERT_PRIME with |n| and d at
    most sqrt(p/2) (Wang's rational reconstruction), None if there is none."""
    bound = isqrt(_CERT_PRIME // 2)
    r0, r1, s0, s1 = _CERT_PRIME, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return None if abs(s1) > bound else Fraction(r1, s1)


def _rank_kernel(work, guard, side=None):
    """The rank of packed rows by `symbolic_rank`'s elimination.

    This process updates only the rows it owns: with side None all of them,
    else those of index side.index modulo side.stride.  At each step it
    offers its fewest-terms candidate (terms, row, column) to side.pivot,
    which returns the pivot of the whole matrix with its row (None once no
    row is left), and applies `_combine` to its own rows.  An update that
    raises ends the step and goes to side.pivot too, which raises the
    error of the lowest row.  So the pivots, the updates and the first
    error are those of one process running every row in order.
    """
    side = side or _Alone
    own = list(range(side.index, len(work), side.stride))
    divisors = [None] * len(work)  # None stands for 1
    rank = 0
    failed = None  # (row, error) of the update that raised
    while True:
        best = None
        for ri in own:
            for j, p in work[ri].items():
                k = len(p)
                if best is None or k < best[0]:
                    best = (k, ri, j)
        step = side.pivot(best, failed, work)
        if step is None:
            return rank
        pr, pc, prow = step
        piv = prow[pc]
        piv_desc = _descending(piv)
        if pr in own:
            own.remove(pr)
        rank += 1
        for ri in own:
            r = work[ri]
            if pc in r:
                try:
                    work[ri] = _combine(r, prow, pc, piv, divisors[ri], guard)
                except (ExactDivisionError, _FieldOverflow) as exc:
                    failed = (ri, exc)
                    break
                divisors[ri] = piv_desc
        own = [ri for ri in own if work[ri]]


class _Alone:
    """The side of a process that owns every row."""

    index, stride = 0, 1

    @staticmethod
    def pivot(best, failed, work):
        if failed:
            raise failed[1]
        return None if best is None else (best[1], best[2], work[best[1]])


def _spread_rank(work, guard):
    """`_rank_kernel` on the packed rows, split into two halves: this
    process and one forked peer, each a `_Half`; messages go through the
    pickle codec of `forks`.  A peer that cannot be forked or dies (a broken
    or closed pipe) makes this process rank the rows alone, from the start."""
    alone = list(work)  # updates replace rows, never change them
    try:
        with Child() as peer:
            inp, out = peer.fork(lambda out, inp: _rank_kernel(work, guard, _Half(1, out, inp)))
            return _rank_kernel(work, guard, _Half(0, out, inp))
    except (OSError, EOFError):
        return _rank_kernel(alone, guard)


class _Half:
    """One of the two processes that share an elimination: rows index
    modulo 2.  Each step both halves send their candidate (or error) and
    read the other's, so both raise the error of the lower row, or pick the
    same pivot by the smallest (terms, row); the half that owns the pivot
    row sends it to the other."""

    stride = 2

    def __init__(self, index, out, inp):
        self.index, self.out = index, out
        self.inp = open(inp, "rb", closefd=False)

    def pivot(self, best, failed, work):
        # both halves write before they read: a report takes a few bytes,
        # which the pipe holds, so neither blocks on the other's write
        send(self.out, (best, failed))
        other_best, other_failed = recv(self.inp)
        errors = [f for f in (failed, other_failed) if f]
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        cands = [b for b in (best, other_best) if b]
        if not cands:
            return None
        _, pr, pc = min(cands, key=lambda c: c[:2])
        if pr % 2 == self.index:
            send(self.out, work[pr])
            return pr, pc, work[pr]
        return pr, pc, recv(self.inp)


def kernel_basis(reg, rows, ncols):
    """Basis of the right kernel over the fraction field.

    Returns primitive Poly vectors, one per free column, in column order.
    An empty kernel is first certified modulo a prime (`_full_column_rank`)
    and then needs no elimination.  Otherwise, after the Gauss-Jordan
    `_fraction_free`, pivot row i is D times RREF row i (D the last pivot, 1
    without one), so the vector of free column f is D at f and -row_i[f] at
    row i's pivot column, made `_primitive`.
    """
    if _full_column_rank(rows, ncols):
        return []
    prep = _Prepared(len(reg), rows)

    def run(packed, pk):
        pivots, last = _fraction_free(packed, pk.guard)
        last = Poly.const(reg, 1) if last is None else pk.unpack(reg, last)
        vectors = []
        for f in range(ncols):
            if f in pivots:
                continue
            vec = [Poly.zero(reg)] * ncols
            vec[f] = last
            for row, pc in zip(packed, pivots):
                e = row.get(f)
                if e:
                    vec[pc] = pk.unpack(reg, _neg(e))
            vectors.append(vec)
        return vectors

    return [_primitive(vec) for vec in _with_fields(len(reg), prep.tops, prep.pack, run)]


def _full_column_rank(rows, ncols):
    """True when the rows, evaluated at a fixed point modulo a fixed prime,
    have rank ncols; then the kernel over the fraction field is empty.

    Why that is exact: reducing modulo the prime and evaluating at the point
    is a ring map from the polynomials whose coefficient denominators the
    prime does not divide, and it commutes with determinants.  An ncols x
    ncols minor that is nonzero at the point is thus a nonzero polynomial,
    and specialization never raises rank, so the rank over the fraction
    field is ncols too.  The answer is deterministic, the prime and the
    point being constants; False only means no certificate, also when a
    coefficient's denominator is divisible by the prime, and the caller
    then eliminates.  Full column rank needs no upper bound on the rank,
    which a check of this kind cannot give.
    """
    if len(rows) < ncols:
        return False
    p = _CERT_PRIME
    powers = {}  # (variable, exponent) -> value at the point
    image = []
    for row in rows:
        out = {}
        for j, poly in row.items():
            v = 0
            for e, c in poly.terms.items():
                if type(c) is not int:
                    if c.denominator % p == 0:
                        return False
                    c = c.numerator * pow(c.denominator, -1, p)
                for i, k in enumerate(e):
                    if k:
                        x = powers.get((i, k))
                        if x is None:
                            x = powers[i, k] = pow(_CERT_POINT, (i + 1) * k, p)
                        c = c * x % p
                v = (v + c) % p
            if v:
                out[j] = v
        if out:
            image.append(out)
    rank = 0
    while image and rank < ncols:
        prow = image.pop()
        col, piv = next(iter(prow.items()))
        inv = pow(piv, -1, p)
        reduced = []
        for r in image:
            c = r.pop(col, None)
            if c is not None:
                f = c * inv % p
                for j, u in prow.items():
                    if j != col:
                        w = (r.get(j, 0) - f * u) % p
                        if w:
                            r[j] = w
                        else:
                            r.pop(j, None)
            if r:
                reduced.append(r)
        image = reduced
        rank += 1
    return rank == ncols


def _primitive(vec):
    """A nonzero Poly vector divided by the gcd of its entries, then by their
    rational content, signed so that its first nonzero entry has a positive
    graded-lex lead (`Poly.lead`): the one form of a kernel vector."""
    g = _gcd_many([p for p in vec if not p.is_zero()])
    if not g.is_const():
        vec = [p if p.is_zero() else p.exact_div(g) for p in vec]
    cont = _content([c for p in vec for c in p.terms.values()])
    if next(p for p in vec if not p.is_zero()).lead()[1] < 0:
        cont = -cont
    return tuple(vec) if cont == 1 else tuple(p.scale(Fraction(1) / cont) for p in vec)


def det(reg, rows):
    """Determinant of the square matrix of the len(rows) sparse rows (1 with
    no rows), by `Echelon`'s forward elimination: a row left at zero makes
    it zero, else the last pivot is the determinant of the columns taken in
    pivot order, so the parity of that order gives the sign.  A column index
    outside range(len(rows)) raises ValueError."""
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError(f"matrix must be square: a column index is outside range({n})")
    ech = Echelon(n)
    if not all(ech._add(row) for row in rows):
        return Poly.zero(reg)
    if not n:
        return Poly.const(reg, 1)
    col, last = ech.rows[-1]
    odd = sum(a > b for (a, _), (b, _) in combinations(ech.rows, 2)) % 2
    return ech._pk.unpack(reg, _neg(last[col]) if odd else last[col])


def minor_gcd(reg, rows, ncols):
    """gcd of the maximal (ncols x ncols) minors of a sparse matrix M with
    len(rows) >= ncols rows, made `primitive_int`; zero when all vanish.

    A square M has one maximal minor, its `det`.  Otherwise one Gauss-Jordan
    `_fraction_free` on the transpose gives every maximal minor as +-D, D
    the last pivot, or +-(a t x t minor of Y) / D^(t-1), where Y holds the
    pivot rows on the k = len(rows) - ncols free columns (the `classical`
    module docstring derives it); below full rank all are zero.  So no
    determinant is formed for k = 1, and the minors are read lazily, up to
    the first constant gcd.  The rows of the transpose are not stripped:
    scaling a column of M by a monomial scales every maximal minor by it.
    """
    if len(rows) == ncols:
        return det(reg, rows).primitive_int()[1]
    cols = [{i: row[j] for i, row in enumerate(rows) if j in row and row[j].terms} for j in range(ncols)]

    def run(packed, pk):
        pivots, last = _fraction_free(packed, pk.guard)
        if len(pivots) < ncols:
            return None
        free = sorted(set(range(len(rows))) - set(pivots))
        y = [{c: pk.unpack(reg, row[f]) for c, f in enumerate(free) if f in row} for row in packed]
        return pk.unpack(reg, last), y, len(free)

    tops = [_degree_top(len(reg), col.values()) for col in cols]
    found = _with_fields(len(reg), tops, lambda pk: [{i: pk.pack(p) for i, p in c.items()} for c in cols], run)
    if found is None:
        return Poly.zero(reg)
    d, y, k = found

    def minors():
        yield d
        for t in range(1, k + 1):
            scale = d ** (t - 1)
            for ri in combinations(range(ncols), t):
                for ci in combinations(range(k), t):
                    sub = [{a: y[i][j] for a, j in enumerate(ci) if j in y[i]} for i in ri]
                    if all(sub):
                        yield sub[0][0] if t == 1 else det(reg, sub).exact_div(scale)

    return _gcd_many(m for m in minors() if not m.is_zero()).primitive_int()[1]


def _fraction_free(rows, guard):
    """Fraction-free Gauss-Jordan elimination with one global divisor, in
    place on packed sparse rows; returns the pivot columns and the last
    pivot (None if none).

    Step k takes the leftmost column nonzero in rows k.., moves its first
    such row to place k as pivot row, and replaces every other row r by
    (r * pivot - pivot row * r[column]) / previous pivot.  Every entry stays
    a minor of the input (Sylvester's identity below, Cramer's rule above:
    the last pivot times the RREF entry), so every division is exact.  The
    pivot column leaves every row; in a pivot row it would hold the last
    pivot.
    """
    pivots = []
    piv = None
    prev = None  # None stands for 1
    for k in range(len(rows)):
        col = min((min(r) for r in rows[k:] if r), default=None)
        if col is None:
            break
        i = next(i for i in range(k, len(rows)) if col in rows[i])
        rows[k], rows[i] = rows[i], rows[k]
        prow = rows[k]
        piv = prow.pop(col)
        for i in range(len(rows)):
            if i != k and rows[i]:
                rows[i] = _combine(rows[i], prow, col, piv, prev, guard)
        pivots.append(col)
        prev = _descending(piv)
    return pivots, piv


# -- packed-term kernel of the fraction-free eliminations ---------------------
#
# The packed format and its exact division `_divide` live in `scalars`,
# beside `Poly`.  Why the field bound holds: every entry of a fraction-free
# elimination is a minor of the input, so its degree in a variable is at most
# the sum over rows of the row's largest degree; a product taken before its
# division multiplies two such entries.  In `Echelon` the rows are the kept
# ones and the new one.


def _field_bounds(nvars, tops):
    """Per variable, twice the sum of the rows' degree tops."""
    total = [0] * nvars
    for top in tops:
        total = list(map(int.__add__, total, top))
    return [2 * t for t in total]


def _with_fields(nvars, tops, pack, run):
    """run(pack(packing), packing) in fields sized for the rows' degree tops,
    widened until none overflows."""
    bounds = _field_bounds(nvars, tops)
    while True:
        pk = _Packing(bounds)
        try:
            return run(pack(pk), pk)
        except _FieldOverflow:
            bounds = [2 * b for b in bounds]


def _combine(r, prow, col, piv, div, guard):
    """The fraction-free update (r * piv - prow * r[col]) / div of a packed
    sparse row r, without column col; div is a `_descending` divisor, None
    for 1.  Every elimination in this module takes this step and no other."""
    c = r.get(col)
    negc = None if c is None else _neg(c)
    new = {}
    for j, v in r.items():
        if j == col:
            continue
        acc = _mul_into({}, v, piv)
        if negc is not None:
            u = prow.get(j)
            if u is not None:
                _mul_into(acc, u, negc)
        t = _settle(acc, guard)
        if div is not None and t:
            t = _divide(t, div, guard)
        if t:
            new[j] = t
    if negc is not None:
        for j, u in prow.items():
            if j not in r:
                t = _settle(_mul_into({}, u, negc), guard)
                if div is not None:
                    t = _divide(t, div, guard)
                new[j] = t
    return new


def _neg(a):
    return {m: -c for m, c in a.items()}

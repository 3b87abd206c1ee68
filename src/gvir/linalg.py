"""Exact linear algebra over polynomial entries.

Every elimination here takes one step, the fraction-free row update of
Bareiss (1968): a row r becomes (r * piv - prow * r[col]) / div, which
clears column col with the pivot piv of the pivot row prow (`_combine`).
Three policies choose the pivots and divisors:

- `symbolic_rank` pivots on the entry with the fewest terms and keeps a
  delayed divisor per row, the pivot that last updated it;
- `_fraction_free` pivots on the leftmost column and its first row and
  divides every row by one global divisor, the previous pivot, exact by
  Sylvester's identity; `det` runs its forward half, and `kernel_basis` and
  `minor_gcd` (on the transpose) its Gauss-Jordan form, so a kernel forms no
  Scalar and takes one polynomial gcd per vector;
- `Echelon` keeps a semi-echelon basis, grown one row at a time with no
  divisor: each kept row is zero on the pivot columns of the rows kept
  before it, so one pass in insertion order reduces a new row to zero
  exactly when it lies in their span.

Before it eliminates, `kernel_basis` tries to certify an empty kernel: full
column rank of the rows evaluated at a fixed point modulo a fixed prime
proves full column rank over the fraction field (`_full_column_rank` says
why), and then no elimination runs.

All of them run on one packed-term kernel.  `_with_fields` packs the rows
of a call to {monomial int: coefficient} dicts (the packed format of
`scalars`, beside `Poly`); each update fuses into one accumulation and
divides with the heap-ordered `scalars._divide`, the division of
`Poly.exact_div` too.  Each variable that occurs gets a bit field sized from
a proven bound (twice the sum over rows of the row's largest degree in it)
plus a guard bit; a product that sets a guard bit makes `_with_fields`
repack with wider fields and start over, so no overflow passes silently.
The tests check them against a dense elimination over the rational-function
field (tests/oracles.py), slow but independent.

Rows enter `symbolic_rank`, `kernel_basis` and `Echelon` divided by their
monomial gcd and rational content only (`_prepare_row`).
Dividing a row by a nonzero polynomial is a unit scaling over the fraction
field, so no rank or kernel needs a polynomial gcd there, and on probe rows
the gcd cost more than the elimination it was meant to shrink.  One pass
over a row's terms sets an optional variable to 1 (the induced module
dehomogenizes its probe matrices this way), drops the entries that vanish
and collects the exponents and coefficients; the content is the one of
`Poly.content` (`scalars._content`), and the degree tops that size the
packed fields fall out of the same exponents.

Every routine takes one input format: rows as sparse dicts
{column index -> Poly}, zero entries absent.  `det` is the one determinant
of the package; `groups.int_det` runs it on constant rows.

`symbolic_rank` can spread one large elimination over every CPU the
process may run on (`forks.usable_cpus`, which a caller passes as cpus):
the caller keeps the rows i = 0 modulo k and each of k - 1 forked peers
the rows of one other residue, and at each step the sides agree on the
pivot, the owner of the pivot row ships it, and each side updates its own
rows (`_rank_kernel`).  Only a prepared matrix above a measured floor is
worth the forks; `taskset -c 0` leaves one CPU, and then one process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from operator import or_

from .forks import Children
from .scalars import ExactDivisionError, Poly, _content, _degree_top, _descending, _divide
from .scalars import _FieldOverflow, _gcd_many, _grlex, _norm_coeff, _Packing


def _prepare_row(row, unit_var=None):
    """Strip one row {col: Poly} for elimination, in one pass over its terms.

    The pass sets the variable unit_var (if given) to 1, drops the entries
    that vanish, and collects the exponents and coefficients; the row is
    then divided by its monomial gcd and its rational content (`_content`),
    signed so that its first entry has a positive leading coefficient.
    Returns the stripped row and its degree top (per variable, the largest
    exponent left in the row; None for an empty row).
    """
    entries = {}
    exps = []
    coeffs = []
    for j, p in row.items():
        terms = p.terms
        if unit_var is not None:
            out = {}
            for e, c in terms.items():
                if e[unit_var]:
                    e = e[:unit_var] + (0,) + e[unit_var + 1:]
                out[e] = out.get(e, 0) + c
            terms = {e: _norm_coeff(c) for e, c in out.items() if c}
        if terms:
            reg = p.reg
            entries[j] = terms
            exps += terms
            coeffs += terms.values()
    if not entries:
        return {}, None
    per_var = list(zip(*exps))
    low = tuple(map(min, per_var))
    top = [max(v) - m for v, m in zip(per_var, low)]
    lead_terms = entries[min(entries)]
    negative = lead_terms[max(lead_terms, key=_grlex)] < 0
    cont = _content(coeffs)
    if negative:
        cont = -cont
    shift = any(low)
    if not shift and cont == 1:
        return {j: Poly(reg, terms) for j, terms in entries.items()}, top
    if type(cont) is int:

        def div(c):
            return c // cont

    else:
        inv = Fraction(1) / cont

        def div(c):
            return _norm_coeff(c * inv)

    stripped = {}
    for j, terms in entries.items():
        if shift:
            terms = {tuple(map(int.__sub__, e, low)): div(c) for e, c in terms.items()}
        else:
            terms = {e: div(c) for e, c in terms.items()}
        stripped[j] = Poly(reg, terms)
    return stripped, top


def _prepare_rows(rows, unit_var=None):
    """The nonzero rows after `_prepare_row`, and their degree tops."""
    pairs = [rt for rt in (_prepare_row(row, unit_var) for row in rows) if rt[0]]
    return [r for r, _ in pairs], [top for _, top in pairs]


class Echelon:
    """Incremental semi-echelon basis of a row space; the module docstring
    says why one pass in insertion order decides span membership.

    A new row is stripped, reduced against the kept rows in insertion order
    on the packed kernel, stripped again and, if anything is left, kept
    under the column of its entry with the fewest terms, which keeps
    cross-multiplications small; a kept row is never touched again.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # (pivot column, stripped row), in insertion order

    @property
    def rank(self):
        return len(self.rows)

    def is_full(self):
        return self.rank >= self.ncols

    def add_row(self, row):
        """Reduce and keep a row; returns True iff the rank grew."""
        r, _ = _prepare_row(row)
        if not r:
            return False
        reg = next(iter(r.values())).reg

        def run(packed, pk):
            res = packed[0]
            for (pc, _), prow in zip(self.rows, packed[1:]):
                if pc in res:
                    res = _combine(res, prow, pc, prow[pc], None, pk.guard)
            return {j: pk.unpack(reg, t) for j, t in res.items()}

        r, _ = _prepare_row(_with_fields(len(reg), [r] + [prow for _, prow in self.rows], run))
        if not r:
            return False
        self.rows.append((min(r, key=lambda j: (len(r[j].terms), j)), r))
        return True


def symbolic_rank(reg, rows, unit_var=None, cpus=1):
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
    strict-xfail tests.)  Peers reproduce the defect: they take the same
    pivots and updates, so the error is raised at the same step, by the
    same row.

    With unit_var given, that variable is set to 1 first.  This keeps the
    rank only when every minor is homogeneous; `InducedModule` checks that
    before it passes unit_var.  Each row goes through `_prepare_row` once,
    which also gives the degree tops that size the packed fields.

    With cpus > 1 the rows of a large prepared matrix are split between
    this process and cpus - 1 forked peers (`_rank_kernel`); the rank, and
    any error, is the one of a single process.  Large means at least
    _PEER_ROWS rows and a cost of at least _PEER_COST, the cost being the
    number of terms times the number of variables that occur.
    """
    work, tops = _prepare_rows(rows, unit_var)
    if cpus > 1 and not _worth_peers(len(reg), work, tops):
        cpus = 1
    return _with_fields(len(reg), work, lambda packed, pk: _spread_rank(packed, pk.guard, cpus), tops)


# forking a peer costs about 3 ms; among the induce probe matrices, timed
# alone and with one peer on a 2-core host, every matrix at or above both
# floors ranked faster with the peer, and below them some did not
_PEER_ROWS = 8
_PEER_COST = 5000


def _worth_peers(nvars, work, tops):
    """Whether prepared rows are large enough to share with peers."""
    if len(work) < _PEER_ROWS:
        return False
    fields = sum(1 for b in _field_bounds(nvars, tops) if b)
    return fields * sum(len(p.terms) for row in work for p in row.values()) >= _PEER_COST


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


def _spread_rank(work, guard, cpus):
    """`_rank_kernel` on the packed rows, split between this process and
    cpus - 1 forked peers when cpus > 1.  A peer that cannot be forked or
    dies (a broken or closed pipe) makes this process rank the rows alone,
    from the start."""
    if cpus < 2:
        return _rank_kernel(work, guard)
    # pickle is imported here and in _send and _recv, by ranks that fork
    # peers only, so that other runs do not pay for the import
    import pickle

    alone = list(work)  # updates replace rows, never change them
    try:
        with Children() as peers:
            links = [peers.fork(partial(_run_peer, work, guard, k, cpus)) for k in range(1, cpus)]
            return _rank_kernel(work, guard, _Caller(links, cpus))
    except (OSError, EOFError, pickle.UnpicklingError):
        return _rank_kernel(alone, guard)


def _send(fd, obj):
    import pickle

    with open(fd, "wb", closefd=False) as pipe:
        pickle.dump(obj, pipe, pickle.HIGHEST_PROTOCOL)


def _recv(pipe):
    import pickle

    return pickle.load(pipe)


class _Caller:
    """The side of the calling process: rows 0 modulo stride.  It gathers
    every side's candidate (or error), picks the pivot, and passes the
    pivot row on from the side that owns it to the others."""

    index = 0

    def __init__(self, links, stride):
        self.stride = stride
        self.peers = [(open(r, "rb", closefd=False), w) for r, w in links]

    def pivot(self, best, failed, work):
        reports = [(best, failed)] + [_recv(inp) for inp, _ in self.peers]
        errors = [f for _, f in reports if f]
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        cands = [b for b, _ in reports if b]
        if not cands:
            return None  # the peers wait for a next step until they are stopped
        _, pr, pc = min(cands, key=lambda c: c[:2])
        owner = pr % self.stride
        if owner:
            inp, out = self.peers[owner - 1]
            _send(out, (pr, pc, None))
            prow = _recv(inp)
        else:
            prow = work[pr]
        for k, (_, out) in enumerate(self.peers, 1):
            if k != owner:
                _send(out, (pr, pc, prow))
        return pr, pc, prow


class _Peer:
    """The side of a forked peer: rows index modulo stride.  It reports its
    candidate (or error), takes the pivot back, and ships the pivot row
    when it owns it.  It never returns: the caller stops it."""

    def __init__(self, index, stride, out, inp):
        self.index, self.stride = index, stride
        self.out = out
        self.inp = open(inp, "rb", closefd=False)

    def pivot(self, best, failed, work):
        _send(self.out, (best, failed))
        if failed:
            raise failed[1]
        pr, pc, prow = _recv(self.inp)
        if prow is None:
            prow = work[pr]
            _send(self.out, prow)
        return pr, pc, prow


def _run_peer(work, guard, index, stride, out, inp):
    _rank_kernel(work, guard, _Peer(index, stride, out, inp))


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
    work, tops = _prepare_rows(rows)

    def run(packed, pk):
        pivots, last, _ = _fraction_free(packed, pk.guard, True)
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

    return [_primitive(vec) for vec in _with_fields(len(reg), work, run, tops)]


# the certificate of an empty kernel: a fixed prime, and a fixed point whose
# coordinate for the variable of index i is _CERT_POINT ** (i + 1) modulo it
_CERT_PRIME = (1 << 61) - 1
_CERT_POINT = 1_000_003


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
    rational content, first nonzero entry with a positive graded-lex lead
    (`_prepare_row`; no monomial factor is left to strip after the gcd)."""
    g = _gcd_many([p for p in vec if not p.is_zero()])
    if not g.is_const():
        vec = [p if p.is_zero() else p.exact_div(g) for p in vec]
    stripped, _ = _prepare_row({j: p for j, p in enumerate(vec) if not p.is_zero()})
    return tuple(stripped.get(j, p) for j, p in enumerate(vec))


def det(reg, rows):
    """Determinant of the square matrix of the len(rows) sparse rows, by the
    forward half of `_fraction_free` (1 with no rows); a column index
    outside range(len(rows)) raises ValueError."""
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError(f"matrix must be square: a column index is outside range({n})")

    def run(packed, pk):
        pivots, last, odd = _fraction_free(packed, pk.guard, False)
        if len(pivots) < n:
            return Poly.zero(reg)
        if last is None:
            return Poly.const(reg, 1)
        return pk.unpack(reg, _neg(last) if odd else last)

    return _with_fields(len(reg), rows, run)


def minor_gcd(reg, rows, ncols):
    """gcd of the maximal (ncols x ncols) minors of a sparse matrix M with
    len(rows) >= ncols rows, made `primitive_int`; zero when all vanish.

    One Gauss-Jordan `_fraction_free` on the transpose gives every maximal
    minor as +-D, D the last pivot, or +-(a t x t minor of Y) / D^(t-1),
    where Y holds the pivot rows on the k = len(rows) - ncols free columns
    (the `classical` module docstring derives it); below full rank all are
    zero.  So no determinant is formed for k <= 1, and the minors are read
    lazily, up to the first constant gcd.  The rows of the transpose are not
    stripped: scaling a column of M by a monomial scales every maximal minor
    by it.
    """
    cols = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(ncols)]

    def run(packed, pk):
        # with no free column there is no Y to read: the forward half will do
        pivots, last, _ = _fraction_free(packed, pk.guard, len(rows) > ncols)
        if len(pivots) < ncols:
            return None
        free = sorted(set(range(len(rows))) - set(pivots))
        y = [{c: pk.unpack(reg, row[f]) for c, f in enumerate(free) if f in row} for row in packed]
        return pk.unpack(reg, last), y, len(free)

    found = _with_fields(len(reg), cols, run)
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


def _fraction_free(rows, guard, reduce_above):
    """Fraction-free elimination with one global divisor, in place on packed
    sparse rows; returns the pivot columns, the last pivot (None if none)
    and whether the row swaps were odd.

    Step k takes the leftmost column nonzero in rows k.., its first such row
    as pivot row, and replaces every row r below (and with reduce_above,
    above) by (r * pivot - pivot row * r[column]) / previous pivot.  Every
    entry stays a minor of the input (Sylvester's identity below, Cramer's
    rule above: the last pivot times the RREF entry), so every division is
    exact.  The pivot column leaves every row; in a pivot row it would hold
    the last pivot.
    """
    pivots = []
    odd = False
    piv = None
    prev = None  # None stands for 1
    for k in range(len(rows)):
        col = min((min(r) for r in rows[k:] if r), default=None)
        if col is None:
            break
        i = next(i for i in range(k, len(rows)) if col in rows[i])
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            odd = not odd
        prow = rows[k]
        piv = prow.pop(col)
        for i in range(0 if reduce_above else k + 1, len(rows)):
            if i != k and rows[i]:
                rows[i] = _combine(rows[i], prow, col, piv, prev, guard)
        pivots.append(col)
        prev = _descending(piv)
    return pivots, piv, odd


# -- packed-term kernel of the fraction-free eliminations ---------------------
#
# The packed format and its exact division `_divide` live in `scalars`,
# beside `Poly`.  Why the field bound holds: every entry of a fraction-free
# elimination is a minor of the input, so its degree in a variable is at most
# the sum over rows of the row's largest degree; a product taken before its
# division multiplies two such entries.  `Echelon` never divides, and each of
# its updates adds at most one row's degree, so the same bound holds for it.


def _field_bounds(nvars, tops):
    """Per variable, twice the sum of the rows' degree tops."""
    total = [0] * nvars
    for top in tops:
        total = list(map(int.__add__, total, top))
    return [2 * t for t in total]


def _with_fields(nvars, rows, run, tops=None):
    """run(packed rows, packing), zero entries dropped, in fields sized for
    the rows' degree tops (read unless given) and widened until none overflows."""
    if tops is None:
        tops = [_degree_top(nvars, row.values()) for row in rows]
    bounds = _field_bounds(nvars, tops)
    while True:
        pk = _Packing(bounds)
        try:
            return run([{j: pk.pack(p) for j, p in row.items() if p.terms} for row in rows], pk)
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


def _settle(acc, guard):
    """Drop zero terms; raise _FieldOverflow if a product set a guard bit."""
    out = {m: c for m, c in acc.items() if c}
    if reduce(or_, out, 0) & guard:
        raise _FieldOverflow
    return out

"""Classification of weight modules from windowed dimension tables.

A ModuleDescriptor is finite evidence about a weight module over Vir[G]: a
table of weight-space dimensions indexed by group coordinates over a finite
window, an offset symbol naming the common shift of every weight in the
table (weight = offset + iota(coords)), optional structural flags about the
abstract group, and a provenance tag recording which builder produced the
table.

classify() decides among the trivial module, the intermediate series,
highest/lowest weight (for G isomorphic to Z), and the induced type
V(alpha, beta, G0, b) for a detected splitting G = G0 (+) Z*b -- or returns
inconclusive together with the list of predicates it checked.  Verdicts
obtained from a finite window are window-certified: they assert that the
table is consistent with the named case, which is all finite data can show.

The dichotomy driving the rank > 1 branch: a table that is uniformly
bounded off the zero weight with all dimensions <= 1 matches the
intermediate series, while an unbounded table must expose one primitive
direction b whose strings are one-side truncated and a corank-1 complement
whose strings stay bounded; b is then determined only modulo the complement
and is canonicalized by Hermite reduction.

The search reads the table once per +-pair of directions: along -g the
strings are the g-strings read backwards, so the verdict of -g is that of g
with truncated_above and truncated_below swapped.  It covers the
(2*bound + 1)^rank - 1 vectors of sup-norm <= direction_bound.  A bound
below 1 searches nothing and is refused up front; a search over more than
MAX_SEARCH_VECTORS vectors is refused where it would start, so a table that
never reaches it classifies at any bound (search_refusal, SearchRefusedError).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import (
    Group,
    box,
    gneg,
    hermite_basis,
    int_det,
    is_primitive,
    is_zero,
    reduce_modulo,
)
from .scalars import is_int, is_list_of

PROVENANCES = ("interseries", "induced", "verma", "external")
FLAGS = ("is_Z", "rank1_not_Z", "infinitely_generated_rank1")
EMPTY_WINDOW = "cannot classify an empty window"

CASES = (
    "trivial",
    "intermediate_series",
    "highest_weight",
    "lowest_weight",
    "induced_type",
    "inconclusive",
)

DESCRIPTOR_SCHEMA = "gvir.descriptor/1"
REPORT_SCHEMA = "gvir.classification/1"


class MalformedDescriptorError(ValueError):
    """The descriptor violates a structural invariant."""


class SearchRefusedError(ValueError):
    """classify declines a direction search (see search_refusal)."""


def _check_tags(provenance, flags, rank):
    """The descriptor checks that read no coordinates."""
    if provenance not in PROVENANCES:
        raise MalformedDescriptorError(
            f"unknown provenance {provenance!r}; expected one of {PROVENANCES}"
        )
    bad_flags = set(flags) - set(FLAGS)
    if bad_flags:
        raise MalformedDescriptorError(f"unknown flags {sorted(bad_flags)}")
    if flags and rank > 1:
        raise MalformedDescriptorError(
            f"rank-1 flags contradict a coordinate lattice of rank {rank}"
        )
    if "is_Z" in flags and ("rank1_not_Z" in flags or "infinitely_generated_rank1" in flags):
        raise MalformedDescriptorError("is_Z contradicts the non-Z rank-1 flags")


@dataclass(frozen=True)
class ModuleDescriptor:
    """Weight-dimension table of a module over a finite window.

    rows maps group coordinates to a nonnegative dimension; every listed
    weight is offset + iota(coords).  offset_element gives coordinates a
    with offset = iota(a) when the offset is structurally a group member
    (so the zero weight sits at coords = -a); None means generic.  flags
    assert facts about the abstract group that coordinates cannot express;
    meta is informational only and never read by the decision procedures.
    """

    group: Group
    rows: dict
    provenance: str
    offset: str = "alpha"
    offset_element: tuple | None = None
    flags: frozenset = frozenset()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.offset, str):
            raise MalformedDescriptorError(f"offset must be a string, got {self.offset!r}")
        _check_tags(self.provenance, self.flags, self.group.rank)
        rows = {}
        for coords, dim in self.rows.items():
            coords = self._coords(coords)
            if not is_int(dim) or dim < 0:
                raise MalformedDescriptorError(
                    f"dimension at {coords} must be a nonnegative integer, got {dim!r}"
                )
            rows[coords] = dim
        object.__setattr__(self, "rows", rows)
        if self.offset_element is not None:
            object.__setattr__(self, "offset_element", self._coords(self.offset_element))
        object.__setattr__(self, "flags", frozenset(self.flags))
        if self.provenance == "interseries":
            dims = [d for _, d in self.nonzero_weight_items()]
            if dims and len(set(dims)) == 1 and dims[0] >= 2:
                raise MalformedDescriptorError(
                    "a uniformly bounded table with equal dimensions >= 2 off the "
                    "zero weight cannot come from an intermediate-series module"
                )

    def _coords(self, coords):
        try:
            return self.group.validate(coords)
        except ValueError as exc:
            raise MalformedDescriptorError(str(exc)) from exc

    # -- weight geometry -----------------------------------------------------

    def zero_weight_coords(self):
        """Coordinates carrying the number zero as weight, if identifiable."""
        if self.offset_element is None:
            return None
        return gneg(self.offset_element)

    def nonzero_weight_items(self):
        """(coords, dim) pairs excluding the zero-weight point."""
        z = self.zero_weight_coords()
        return [(c, d) for c, d in sorted(self.rows.items()) if c != z]

    def support(self):
        return sorted(c for c, d in self.rows.items() if d > 0)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "schema": DESCRIPTOR_SCHEMA,
            "group": {"rank": self.group.rank, "names": list(self.group.names)},
            "flags": sorted(self.flags),
            "provenance": self.provenance,
            "offset": self.offset,
            "offset_element": list(self.offset_element)
            if self.offset_element is not None
            else None,
            "rows": [
                [self.offset, list(coords), dim]
                for coords, dim in sorted(self.rows.items())
            ],
            "meta": self.meta,
        }

    @staticmethod
    def from_json(payload):
        if not isinstance(payload, dict):
            raise MalformedDescriptorError("descriptor payload must be an object")
        schema = payload.get("schema", DESCRIPTOR_SCHEMA)
        if schema != DESCRIPTOR_SCHEMA:
            raise MalformedDescriptorError(f"unsupported descriptor schema {schema!r}")
        gspec = payload.get("group")
        if not isinstance(gspec, dict) or "rank" not in gspec:
            raise MalformedDescriptorError("descriptor needs group: {rank, names?}")
        rank = gspec["rank"]
        if not is_int(rank) or rank < 1:
            raise MalformedDescriptorError("group rank must be a positive integer")
        names = gspec.get("names")
        if not (names is None or is_list_of(names, str)):
            raise MalformedDescriptorError(f"group names must be a list of strings, got {names!r}")
        if names and len(names) != rank:
            raise MalformedDescriptorError("group names must match the rank")

        # coordinate counts are checked before the group is built: its
        # generator names take memory linear in the rank
        def counted(coords):
            if len(coords) != rank:
                raise MalformedDescriptorError(
                    f"element {tuple(coords)} has wrong length for rank {rank}"
                )
            return tuple(coords)

        raw_rows = payload.get("rows")
        if not isinstance(raw_rows, list):
            raise MalformedDescriptorError("descriptor needs rows: [offset, coords, dim]")
        offset = payload.get("offset")
        if not (offset is None or isinstance(offset, str)):
            raise MalformedDescriptorError(f"offset must be a string, got {offset!r}")
        rows = {}
        for entry in raw_rows:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise MalformedDescriptorError(
                    f"row {entry!r} is not [offset, coords, dim]"
                )
            sym, coords, dim = entry
            if not isinstance(sym, str):
                raise MalformedDescriptorError(f"row {entry!r} needs a string offset symbol")
            if not is_list_of(coords, int):
                raise MalformedDescriptorError(f"row {entry!r} needs integer coordinates")
            coords = counted(coords)
            if offset is None:
                offset = sym
            if sym != offset:
                raise MalformedDescriptorError(
                    f"rows mix offset symbols {offset!r} and {sym!r}"
                )
            if coords in rows:
                raise MalformedDescriptorError(f"duplicate row at coords {coords}")
            rows[coords] = dim
        off_elem = payload.get("offset_element")
        if not (off_elem is None or is_list_of(off_elem, int)):
            raise MalformedDescriptorError(f"offset_element {off_elem!r} needs integer coordinates")
        if off_elem is not None:
            off_elem = counted(off_elem)
        flags = payload.get("flags", [])
        if not is_list_of(flags, str):
            raise MalformedDescriptorError(f"flags must be a list of strings, got {flags!r}")
        provenance = payload.get("provenance", "external")
        if not rows:
            # refused as classify refuses it, before the group is built
            _check_tags(provenance, flags, rank)
            raise MalformedDescriptorError(EMPTY_WINDOW)
        return ModuleDescriptor(
            group=Group(rank, tuple(names)) if names else Group.of_rank(rank),
            rows=rows,
            provenance=provenance,
            offset=offset if offset is not None else "alpha",
            offset_element=off_elem,
            flags=frozenset(flags),
            meta=payload.get("meta", {}),
        )


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classify() plus the predicates that were checked."""

    case: str
    detected_b: tuple | None
    detected_G0_basis: tuple | None
    certificates: tuple

    def to_json(self):
        return {
            "schema": REPORT_SCHEMA,
            "case": self.case,
            "detected_b": list(self.detected_b) if self.detected_b else None,
            "detected_G0_basis": [list(g) for g in self.detected_G0_basis]
            if self.detected_G0_basis
            else None,
            "certificates": list(self.certificates),
        }


# -- uniform boundedness -------------------------------------------------------


def is_uniformly_bounded(d):
    """"yes", "yes (window-certified)", "no", or "inconclusive".

    The test compares dimensions off the zero weight: a bounded module has
    them all equal, so any two unequal values refute boundedness within the
    window.  Equal values prove it only when the builder guarantees the
    window is representative (interseries tables are translation images of
    one line); otherwise the verdict is window-certified.
    """
    items = d.nonzero_weight_items()
    if not items:
        return "inconclusive"
    values = {dim for _, dim in items}
    if len(values) > 1:
        return "no"
    return "yes" if d.provenance == "interseries" else "yes (window-certified)"


# -- string profiles -------------------------------------------------------------


def _g_strings(d, g):
    """The rows grouped into g-strings and summarised: (strings, key).

    With p the first nonzero entry of g, a weight's string parameter is k =
    coords[p] // g[p].  key(coords) reads the residue coords[p] % g[p] and
    the minors coords[i]*g[p] - coords[p]*g[i] for i != p (at rank 2 packed
    into the one int minor*g[p] + residue, else a tuple): equal minors make
    the difference of two weights a rational multiple of g, and an equal
    residue an integer one, so two weights share a key exactly when they lie
    on one g-string.  Along -g the strings are the same cosets with k
    reversed (k -> -k - delta, delta in {0, 1} fixed per string).  strings
    maps each key to [n, kmin, kmax, smin, smax, zeros]: n counts the
    string's rows; the rest read every row but the zero weight's, whose
    vanishing says nothing about truncation: their k range, the k range of
    their support (None, None without support) and the k's of dimension 0.
    """
    p = next(i for i, a in enumerate(g) if a)
    gp = g[p]
    others = [(i, a) for i, a in enumerate(g) if i != p]
    if len(others) == 1:
        # one int instead of a tuple: the 24 small-ops classify jobs take
        # 12.5 ms through cli.main against 16.0 ms with the tuple key and
        # 30.2 ms with a row-by-row walk of every string (2-vCPU host,
        # Python 3.11)
        ((i, a),) = others

        def key(coords):
            c = coords[p]
            return (coords[i] * gp - c * a) * gp + c % gp

    else:

        def key(coords):
            c = coords[p]
            return (c % gp, *[coords[i] * gp - c * a for i, a in others])

    z = d.zero_weight_coords()
    strings = {}
    for coords, dim in d.rows.items():
        if coords == z:
            continue
        k = coords[p] // gp
        s = strings.get(rep := key(coords))
        if s is None:
            strings[rep] = [1, k, k, k, k, []] if dim else [1, k, k, None, None, [k]]
            continue
        s[0] += 1
        if k < s[1]:
            s[1] = k
        elif k > s[2]:
            s[2] = k
        if not dim:
            s[5].append(k)
        elif s[3] is None:
            s[3] = s[4] = k
        elif k < s[3]:
            s[3] = k
        elif k > s[4]:
            s[4] = k
    if z in d.rows:
        strings.setdefault(key(z), [0, None, None, None, None, []])[0] += 1
    return strings, key


def _profile(summary):
    """Support pattern of one string from its summary: (profile, supported).

    Support stopping strictly inside the window on one side certifies
    truncation on that side; stopping inside on both sides is finite, hence
    bounded; running off both edges with an interior zero gap is the only
    pattern a window can exhibit for a genuinely two-sided mixed module.
    """
    _, kmin, kmax, smin, smax, zeros = summary
    if smin is None:
        return "bounded", False
    stops_low = smin > kmin
    stops_high = smax < kmax
    if stops_high and not stops_low:
        return "positively_truncated", True
    if stops_low and not stops_high:
        return "negatively_truncated", True
    if stops_low and stops_high:
        return "bounded", True
    gap = any(smin < k < smax for k in zeros)
    return ("mixed" if gap else "bounded"), True


def string_profile(d, g, base_weight):
    """Support pattern along base_weight + Z*g within the window.

    Returns positively_truncated (support bounded in the +g direction),
    negatively_truncated (bounded in the -g direction), bounded, or mixed.
    Requires the string to meet the window in at least 3 points.
    """
    g = d.group.validate(g)
    if is_zero(g):
        raise ValueError("string direction must be nonzero")
    base = d.group.validate(base_weight)
    strings, key = _g_strings(d, g)
    summary = strings.get(key(base))
    n = summary[0] if summary else 0
    if n < 3:
        raise ValueError(
            f"the string through {base} along {g} meets the window in only "
            f"{n} points (need at least 3)"
        )
    return _profile(summary)[0]


def _direction_verdict(d, g):
    """Aggregate the profiles of every >= 3-point g-string in the window.

    bounded needs every string bounded with support somewhere; one
    positively truncated string (and no contradicting one) gives
    truncated_above; mixed or conflicting strings disqualify the direction;
    vacuous means only zero-dimension strings were seen, unknown means no
    string was long enough.
    """
    profiles = set()
    supported_any = False
    for summary in _g_strings(d, g)[0].values():
        if summary[0] < 3:
            continue
        profile, supported = _profile(summary)
        profiles.add(profile)
        supported_any = supported_any or supported
    if not profiles:
        return "unknown"
    if "mixed" in profiles:
        return "mixed"
    pos = "positively_truncated" in profiles
    neg = "negatively_truncated" in profiles
    if pos and neg:
        return "mixed"
    if pos:
        return "truncated_above"
    if neg:
        return "truncated_below"
    return "bounded" if supported_any else "vacuous"


# the verdict of -g: its strings are those of g read backwards
_MIRRORED = {"truncated_above": "truncated_below", "truncated_below": "truncated_above"}


def _known_verdict(d, v, verdicts):
    """The verdict of v, mirrored from that of -v when verdicts holds it,
    else scanned; either way stored in verdicts."""
    if v not in verdicts:
        w = verdicts.get(gneg(v))
        verdicts[v] = _direction_verdict(d, v) if w is None else _MIRRORED.get(w, w)
    return verdicts[v]


# the most box vectors, (2*bound + 1)^rank - 1, that a direction search may
# cover: at the cap a search takes 0.13-0.24 s on a 90-row rank-2 table
# and 1.2-1.5 s on a 343-row rank-3 one (2-vCPU host, Python 3.11; README
# "Output"), and the search time grows with the count
MAX_SEARCH_VECTORS = 10_000


def search_refusal(bound, rank):
    """Why a direction search of sup-norm <= bound at this rank is refused,
    or None.  A bound below 1 searches nothing, so the search could not
    fail; at rank >= 2 the search covers (2*bound + 1)^rank - 1 vectors and
    may cover at most MAX_SEARCH_VECTORS.  The product is built factor by
    factor and stops once over the cap, so a bound of thousands of digits
    or a large rank costs a few multiplications."""
    if bound < 1:
        return f"direction_bound must be >= 1, got {bound}"
    if rank < 2:
        return None
    count = 1
    for _ in range(rank):
        count *= 2 * bound + 1
        if count - 1 > MAX_SEARCH_VECTORS:
            return (
                f"direction_bound {bound} at rank {rank} would search "
                f"(2*bound+1)^rank - 1 directions, over the cap of {MAX_SEARCH_VECTORS}"
            )
    return None


def _check_search(bound, rank):
    refusal = search_refusal(bound, rank)
    if refusal:
        raise SearchRefusedError(refusal)


def _candidate_directions(rank, bound):
    """Primitive directions with sup-norm <= bound, sorted by (norm, lex)."""
    vs = [
        v
        for v in box(bound, rank)
        if not is_zero(v) and is_primitive(v)
    ]
    return sorted(vs, key=lambda v: (max(abs(a) for a in v), v))


# -- the decision procedure ------------------------------------------------------


def classify(d, direction_bound=2):
    """Decide which weight-module case the table is consistent with.

    Rank-1 flags route directly; G isomorphic to Z is decided by the support
    pattern along the generator; rank > 1 splits on uniform boundedness,
    with the unbounded side searching for a splitting G = G0 (+) Z*b whose
    complement strings stay bounded and whose b-strings are truncated above.
    induced_type is only reported after verifying that the detected basis
    together with b spans the whole lattice (determinant +-1).
    """
    if not d.rows:
        raise MalformedDescriptorError(EMPTY_WINDOW)
    _check_search(direction_bound, 1)  # the bound alone: no box is searched yet
    certs = []
    support = d.support()
    certs.append(f"window: {len(d.rows)} weights, {len(support)} supported")

    if "rank1_not_Z" in d.flags or "infinitely_generated_rank1" in d.flags:
        flag = "rank1_not_Z" if "rank1_not_Z" in d.flags else "infinitely_generated_rank1"
        certs.append(
            f"flag {flag}: a rank-1 group not isomorphic to Z is not finitely "
            "generated, and every nontrivial irreducible Harish-Chandra module "
            "over it belongs to the intermediate series"
        )
        return ClassificationReport("intermediate_series", None, None, tuple(certs))

    if len(support) == 0 or (len(support) == 1 and d.rows[support[0]] == 1):
        certs.append("support is at most a single line: trivial module pattern")
        return ClassificationReport("trivial", None, None, tuple(certs))

    if d.group.rank == 1:
        return _classify_rank1(d, certs)
    return _classify_higher_rank(d, certs, direction_bound)


def _bounded_report(d, certs, refusal):
    """A bounded table: the intermediate series when every dimension off the
    zero weight is <= 1, else inconclusive with the caller's refusal."""
    top = max((dim for _, dim in d.nonzero_weight_items()), default=0)
    certs.append(f"max dimension off the zero weight: {top}")
    if top <= 1:
        return ClassificationReport("intermediate_series", None, None, tuple(certs))
    certs.append(refusal)
    return ClassificationReport("inconclusive", None, None, tuple(certs))


def _classify_rank1(d, certs):
    if "is_Z" not in d.flags:
        certs.append("rank-1 coordinate lattice: treated as G isomorphic to Z")
    gen = (1,)
    try:
        profile = string_profile(d, gen, d.group.zero())
    except ValueError as exc:
        certs.append(f"string along (1,): {exc}")
        return ClassificationReport("inconclusive", None, None, tuple(certs))
    certs.append(f"string along (1,): {profile}")
    if profile == "positively_truncated":
        certs.append("support bounded in the +1 direction: highest weight pattern")
        return ClassificationReport("highest_weight", None, None, tuple(certs))
    if profile == "negatively_truncated":
        certs.append("support bounded in the -1 direction: lowest weight pattern")
        return ClassificationReport("lowest_weight", None, None, tuple(certs))
    if profile == "bounded":
        return _bounded_report(
            d, certs, "bounded with a dimension >= 2 matches no irreducible case over Z"
        )
    return ClassificationReport("inconclusive", None, None, tuple(certs))


def _classify_higher_rank(d, certs, direction_bound):
    n = d.group.rank
    bounded_verdict = is_uniformly_bounded(d)
    certs.append(f"uniformly bounded: {bounded_verdict}")
    if bounded_verdict.startswith("yes"):
        return _bounded_report(
            d, certs, "bounded with dimensions >= 2 matches no irreducible case at rank > 1"
        )

    _check_search(direction_bound, n)
    verdicts = {}
    bounded_dirs = []
    first_up = None
    for v in _candidate_directions(n, direction_bound):
        verdict = _known_verdict(d, v, verdicts)
        if verdict == "bounded":
            bounded_dirs.append(v)
        elif verdict == "truncated_above" and first_up is None:
            first_up = v
        elif verdict == "mixed":
            certs.append(f"direction {v}: mixed strings")
    certs.append(
        f"bounded directions (sup-norm <= {direction_bound}): "
        + (", ".join(str(v) for v in bounded_dirs) if bounded_dirs else "none")
    )
    if first_up is None:
        certs.append("no direction with strings truncated above: search failed")
        return ClassificationReport("inconclusive", None, None, tuple(certs))
    certs.append(f"first truncated-above direction: {first_up}")

    g0 = hermite_basis(bounded_dirs, n)
    certs.append(
        "complement lattice basis: "
        + (", ".join(str(h) for h in g0) if g0 else "none")
    )
    if len(g0) != n - 1:
        certs.append(
            f"complement rank {len(g0)} != {n - 1}: not a corank-1 splitting"
        )
        return ClassificationReport("inconclusive", None, None, tuple(certs))

    b = reduce_modulo(first_up, g0)
    if b != first_up:
        certs.append(f"b canonicalized modulo the complement: {first_up} -> {b}")
    if _known_verdict(d, b, verdicts) != "truncated_above":
        certs.append(f"canonical b {b} is not truncated above: search failed")
        return ClassificationReport("inconclusive", None, None, tuple(certs))

    det = int_det([list(h) for h in g0] + [list(b)])
    certs.append(f"unimodularity of (complement basis, b): det = {det}")
    if det not in (1, -1):
        return ClassificationReport("inconclusive", None, None, tuple(certs))
    return ClassificationReport("induced_type", tuple(b), tuple(g0), tuple(certs))


# -- descriptor builders ---------------------------------------------------------


def descriptor_from_interseries(module, radius=3):
    """Dimension table of the irreducible sub-quotient V' over a box window."""
    desc = module.subquotient()
    rows = {y: dim for y, dim in module.dims_row(box(radius, module.group.rank))}
    return ModuleDescriptor(
        group=module.group,
        rows=rows,
        provenance="interseries",
        offset="alpha",
        offset_element=module.ctx.alpha_element(),
        meta={"kind": desc.kind, "radius": radius},
    )


def descriptor_from_verma(verma):
    """Level dimensions of a truncated Verma module over G = Z.

    Level n sits at weight h - n, i.e. coordinates (-n,); explicit zero
    rows at the two weights above the highest weight witness the truncation
    edge.
    """
    rows = {(-n,): dim for n, dim in enumerate(verma.dims())}
    for k in (1, 2):
        rows[(k,)] = 0
    return ModuleDescriptor(
        group=Group.of_rank(1),
        rows=rows,
        provenance="verma",
        offset="h",
        flags=frozenset({"is_Z"}),
        meta={"level_cap": verma.level_cap},
    )


def descriptor_from_induced(quotient):
    """Group-indexed dimension table of an induced-module quotient.

    Level i at G0-coordinates y sits at weight alpha + iota(y) - i*iota(b),
    i.e. group coordinates compose(-i, y).  Unstable entries (radius N and
    N+1 disagree) are left out, since an unlisted weight means an unknown
    dimension.  Explicit zero rows at b-levels 1 and 2 witness the
    truncation edge.
    """
    module = quotient.module
    sp = module.split
    rows = {}
    for (i, y), dim in quotient.entries.items():
        if quotient.stable[(i, y)]:
            rows[sp.compose(-i, y)] = dim
    radius = module.window.top_radius
    for k in (1, 2):
        for y in box(radius, module.g0_rank):
            rows.setdefault(sp.compose(k, y), 0)
    a0 = module.alpha_g0
    return ModuleDescriptor(
        group=module.group,
        rows=rows,
        provenance="induced",
        offset="alpha",
        offset_element=sp.compose(0, a0) if a0 is not None else None,
        meta={
            "b": list(sp.b),
            "g0_basis": [list(g) for g in sp.g0_basis],
            "level_cap": module.window.level_cap,
            "box_radius": module.window.box_radius,
            "stable_entries": sum(1 for v in quotient.stable.values() if v),
            "entries": len(quotient.entries),
        },
    )

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import (
    Group,
    box,
    gneg,
    gscale,
    gsub,
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


def _profile_of_ks(ks, skip=None):
    """Support pattern of one string from its in-window dimensions.

    ks maps the integer string parameter to a dimension; skip removes the
    zero-weight point, whose vanishing says nothing about truncation.
    Support stopping strictly inside the window on one side certifies
    truncation on that side; stopping inside on both sides is finite, hence
    bounded; running off both edges with an interior zero gap is the only
    pattern a window can exhibit for a genuinely two-sided mixed module.
    """
    pts = {k: dim for k, dim in ks.items() if skip is None or k != skip}
    if not pts:
        return "bounded", False
    support = [k for k, dim in pts.items() if dim > 0]
    if not support:
        return "bounded", False
    kmin, kmax = min(pts), max(pts)
    smin, smax = min(support), max(support)
    stops_low = smin > kmin
    stops_high = smax < kmax
    if stops_high and not stops_low:
        return "positively_truncated", True
    if stops_low and not stops_high:
        return "negatively_truncated", True
    if stops_low and stops_high:
        return "bounded", True
    gap = any(dim == 0 for k, dim in pts.items() if smin < k < smax)
    return ("mixed" if gap else "bounded"), True


def _g_strings(d, g):
    """The rows grouped into g-strings: (strings, place).

    place(coords) is (rep, k) with coords = rep + k*g and k = coords[p] //
    g[p] at the first nonzero entry p of g, so two weights share a rep
    exactly when their difference is a multiple of g.  strings maps each rep
    to ({k: dim}, skip), skip being the k of the zero weight when it lies on
    that string (its vanishing says nothing about truncation), else None.
    """
    p = next(i for i, a in enumerate(g) if a)

    def place(coords):
        k = coords[p] // g[p]
        return gsub(coords, gscale(k, g)), k

    strings = {}
    for coords, dim in d.rows.items():
        rep, k = place(coords)
        strings.setdefault(rep, {})[k] = dim
    z = d.zero_weight_coords()
    z_rep, z_k = place(z) if z is not None else (None, None)
    return {rep: (ks, z_k if rep == z_rep else None) for rep, ks in strings.items()}, place


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
    strings, place = _g_strings(d, g)
    ks, skip = strings.get(place(base)[0], ({}, None))
    if len(ks) < 3:
        raise ValueError(
            f"the string through {base} along {g} meets the window in only "
            f"{len(ks)} points (need at least 3)"
        )
    profile, _ = _profile_of_ks(ks, skip)
    return profile


def _direction_verdict(d, g):
    """Aggregate the profiles of every >= 3-point g-string in the window.

    bounded needs every string bounded with support somewhere; one
    positively truncated string (and no contradicting one) gives
    truncated_above; mixed or conflicting strings disqualify the direction;
    vacuous means only zero-dimension strings were seen, unknown means no
    string was long enough.
    """
    profiles = []
    supported_any = False
    for ks, skip in _g_strings(d, g)[0].values():
        if len(ks) < 3:
            continue
        profile, supported = _profile_of_ks(ks, skip)
        profiles.append(profile)
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

    bounded_dirs = []
    first_up = None
    for v in _candidate_directions(n, direction_bound):
        verdict = _direction_verdict(d, v)
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
    if _direction_verdict(d, b) != "truncated_above":
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

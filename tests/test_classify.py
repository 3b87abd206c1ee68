"""Tests for weight-module classification from dimension tables."""

import hashlib
import importlib
import itertools
import json
import random

import pytest

from gvir.classical import TruncatedVermaModule
from gvir.classify import (
    CASES,
    ClassificationReport,
    MalformedDescriptorError,
    ModuleDescriptor,
    SearchRefusedError,
    _candidate_directions,
    _direction_verdict,
    classify,
    descriptor_from_induced,
    descriptor_from_interseries,
    descriptor_from_verma,
    is_uniformly_bounded,
    string_profile,
)
from gvir.groups import Group, gneg, hermite_basis
from gvir.induced import InducedModule, QuotientDims, Window
from gvir.interseries import IntermediateSeriesModule
from gvir.scalars import Context

# the package exports the function classify under the module's name
classify_module = importlib.import_module("gvir.classify")


def interseries_descriptor(radius=3, **bindings):
    ctx = Context.of_rank(2, **bindings)
    return descriptor_from_interseries(
        IntermediateSeriesModule(ctx, Group.of_rank(2)), radius
    )


def verma_descriptor(level_cap=6, **bindings):
    return descriptor_from_verma(
        TruncatedVermaModule(Context.of_rank(1, **bindings), level_cap)
    )


def induced_build(b=(0, 1), rank=2, L=1, N=1, **bindings):
    ctx = Context.of_rank(rank, **bindings)
    mod = InducedModule(ctx, Group.of_rank(rank), b, Window.make(L, N))
    return mod, descriptor_from_induced(mod.quotient_dims())


def external(rows, rank=2, offset_element=None, flags=(), offset="alpha"):
    return ModuleDescriptor(
        group=Group.of_rank(rank),
        rows=rows,
        provenance="external",
        offset=offset,
        offset_element=offset_element,
        flags=frozenset(flags),
    )


def line_rows(dims, lo):
    """Rank-1 rows {(k,): dim} for dims starting at coordinate lo."""
    return {(lo + i,): d for i, d in enumerate(dims)}


# -- descriptor validation ------------------------------------------------------


def test_descriptor_rejects_bad_shapes():
    G = Group.of_rank(2)
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor(G, {(0, 0): -1}, "external")
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor(G, {(0, 0): 1}, "guesswork")
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor(G, {(0, 0): 1}, "external", flags=frozenset({"mystery"}))
    # rank-1 flags on a rank-2 lattice are contradictory
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor(G, {(0, 0): 1}, "external", flags=frozenset({"is_Z"}))
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor(
            Group.of_rank(1),
            {(0,): 1},
            "external",
            flags=frozenset({"is_Z", "rank1_not_Z"}),
        )
    # the offset names the shift symbol of every weight: a string only
    with pytest.raises(MalformedDescriptorError, match="offset must be a string"):
        ModuleDescriptor(G, {(0, 0): 1}, "external", offset=5)


def test_descriptor_rejects_bounded_interseries_with_big_dims():
    # equal dimensions >= 2 off the zero weight cannot be an
    # intermediate-series table; the same rows pass as external evidence
    G = Group.of_rank(2)
    rows = {(i, j): 2 for i in range(-2, 3) for j in range(-2, 3)}
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor(G, dict(rows), "interseries")
    d = ModuleDescriptor(G, dict(rows), "external")
    assert is_uniformly_bounded(d) == "yes (window-certified)"


def test_descriptor_json_round_trip():
    mod, d = induced_build()
    payload = d.to_json()
    back = ModuleDescriptor.from_json(payload)
    assert back.rows == d.rows
    assert back.provenance == d.provenance
    assert back.offset == d.offset
    assert back.offset_element == d.offset_element
    assert back.flags == d.flags
    assert back.group.rank == d.group.rank
    # classification agrees across the round trip
    assert classify(back).case == classify(d).case


def test_descriptor_json_rejects_malformed_payloads():
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor.from_json([1, 2, 3])
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor.from_json({"group": {"rank": 0}, "rows": []})
    base = {"group": {"rank": 1}, "provenance": "external"}
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor.from_json({**base, "rows": [["h", [0], 1, 9]]})
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor.from_json(
            {**base, "rows": [["h", [0], 1], ["alpha", [1], 1]]}
        )
    with pytest.raises(MalformedDescriptorError):
        ModuleDescriptor.from_json(
            {**base, "rows": [["h", [0], 1], ["h", [0], 2]]}
        )


# -- uniform boundedness ---------------------------------------------------------


def test_uniformly_bounded_verdicts():
    assert is_uniformly_bounded(interseries_descriptor()) == "yes"
    # the reducible table has its only hole at the zero weight, which the
    # comparison ignores
    red = interseries_descriptor(alpha=(1, 0), beta=1)
    assert red.rows[red.zero_weight_coords()] == 0
    assert is_uniformly_bounded(red) == "yes"
    _, ind = induced_build()
    assert is_uniformly_bounded(ind) == "no"
    assert is_uniformly_bounded(verma_descriptor()) == "no"
    assert is_uniformly_bounded(external({})) == "inconclusive"


def test_uniformly_bounded_is_window_size_independent_for_interseries():
    for bindings in ({}, {"alpha": (1, 0), "beta": 1}, {"alpha": 0, "beta": 0}):
        verdicts = {
            is_uniformly_bounded(interseries_descriptor(radius=r, **bindings))
            for r in (2, 3, 4)
        }
        assert len(verdicts) == 1


# -- string profiles -------------------------------------------------------------


def test_string_profile_on_verma_table():
    d = verma_descriptor()
    assert string_profile(d, (1,), (0,)) == "positively_truncated"
    assert string_profile(d, (-1,), (0,)) == "negatively_truncated"


def test_string_profile_on_interseries_table():
    d = interseries_descriptor()
    for g in ((1, 0), (0, 1), (1, 1), (1, -1)):
        assert string_profile(d, g, (0, 0)) == "bounded"


def test_string_profile_errors():
    d = verma_descriptor()
    with pytest.raises(ValueError):
        string_profile(d, (0,), (0,))
    short = external(line_rows([1, 1], lo=0), rank=1)
    with pytest.raises(ValueError):
        string_profile(short, (1,), (0,))


def test_string_profile_patterns():
    # support stops inside the window on both sides: finite, hence bounded
    d = external(line_rows([0, 1, 1, 0], lo=-2), rank=1)
    assert string_profile(d, (1,), (0,)) == "bounded"
    # support runs off both edges around an interior gap: mixed
    d = external(line_rows([1, 1, 0, 1, 1], lo=-2), rank=1)
    assert string_profile(d, (1,), (0,)) == "mixed"
    # the same pattern with the gap at the zero weight is a puncture, not a
    # truncation, once the offset is known to be a group element
    d = external(
        line_rows([1, 1, 0, 1, 1], lo=-2),
        rank=1,
        offset_element=(0,),
    )
    assert string_profile(d, (1,), (0,)) == "bounded"
    # one-sided zero tail with an interior gap still certifies truncation
    d = external(line_rows([1, 0, 1, 0, 0], lo=-2), rank=1)
    assert string_profile(d, (1,), (0,)) == "positively_truncated"


def test_string_profile_handles_nonunit_pivot_directions():
    # direction (2,1) is primitive with no unit coordinate; strings with odd
    # first coordinate must still be grouped correctly
    rows = {}
    for k in range(-2, 3):
        rows[(1 + 2 * k, k)] = 1 if k <= 0 else 0
    d = external(rows)
    assert string_profile(d, (2, 1), (1, 0)) == "positively_truncated"


# -- classify: rank-1 and flag routes ---------------------------------------------


def test_classify_trivial_tables():
    d = external({(i, j): 0 for i in range(-1, 2) for j in range(-1, 2)})
    assert classify(d).case == "trivial"
    rows = {(i, j): 0 for i in range(-1, 2) for j in range(-1, 2)}
    rows[(0, 0)] = 1
    assert classify(external(rows)).case == "trivial"


def test_classify_flag_routes():
    for flag in ("rank1_not_Z", "infinitely_generated_rank1"):
        d = external(line_rows([1, 1, 1, 1, 1], lo=-2), rank=1, flags=(flag,))
        report = classify(d)
        assert report.case == "intermediate_series"
        assert any(flag in c for c in report.certificates)


def test_classify_over_Z():
    assert classify(verma_descriptor()).case == "highest_weight"
    # reflected table: lowest weight
    v = TruncatedVermaModule(Context.of_rank(1), 6)
    rows = {(n,): dim for n, dim in enumerate(v.dims())}
    rows[(-1,)] = 0
    rows[(-2,)] = 0
    d = external(rows, rank=1, flags=("is_Z",), offset="h")
    assert classify(d).case == "lowest_weight"
    # bounded with all dimensions 1: intermediate series
    d = external(line_rows([1] * 7, lo=-3), rank=1, flags=("is_Z",))
    assert classify(d).case == "intermediate_series"
    # bounded with dimensions 2 matches no case over Z
    d = external(line_rows([2] * 7, lo=-3), rank=1, flags=("is_Z",))
    assert classify(d).case == "inconclusive"


def test_classify_verma_corpus_round_trip():
    for level_cap in (4, 5, 6, 7, 8):
        assert classify(verma_descriptor(level_cap)).case == "highest_weight"


# -- classify: rank > 1 ------------------------------------------------------------


def test_classify_interseries_grid_round_trip():
    # the full reducibility grid classifies as intermediate series
    element = (1, 0)
    for alpha in (None, element, 0):
        for beta in (None, 0, 1):
            bindings = {}
            if alpha is not None:
                bindings["alpha"] = alpha
            if beta is not None:
                bindings["beta"] = beta
            d = interseries_descriptor(**bindings)
            report = classify(d)
            assert report.case == "intermediate_series", (alpha, beta)


def test_classify_induced_round_trip_exact():
    for b in ((0, 1), (1, 0)):
        mod, d = induced_build(b=b)
        report = classify(d)
        assert report.case == "induced_type"
        assert report.detected_b == mod.split.b
        assert report.detected_G0_basis == hermite_basis(mod.split.g0_basis, 2)
        assert any("det" in c for c in report.certificates)


def test_classify_induced_rank3_round_trip_exact():
    mod, d = induced_build(b=(0, 0, 1), rank=3)
    report = classify(d)
    assert report.case == "induced_type"
    assert report.detected_b == mod.split.b
    assert report.detected_G0_basis == hermite_basis(mod.split.g0_basis, 3)


def test_classify_induced_noncanonical_b_is_level_compatible():
    # b = (1,1) names the same splitting as b = (1,0) modulo the complement;
    # the detected direction is the canonical coset representative
    mod, d = induced_build(b=(1, 1))
    report = classify(d)
    assert report.case == "induced_type"
    assert report.detected_G0_basis == hermite_basis(mod.split.g0_basis, 2)
    assert mod.split.level(report.detected_b) == 1


def test_classify_induced_reduced_top():
    # alpha = iota((1,0)) with beta = 1: the top row has a hole at the zero
    # weight, which must not derail the direction search
    mod, d = induced_build(b=(0, 1), alpha=(1, 0), beta=1)
    assert d.offset_element == (1, 0)
    assert d.rows[d.zero_weight_coords()] == 0
    report = classify(d)
    assert report.case == "induced_type"
    assert report.detected_b == mod.split.b


def test_descriptor_from_induced_leaves_out_unstable_entries():
    # zero every level-1 entry: flagged stable, the zeros make the table a
    # single bounded row that fits no case; flagged unstable, they are
    # unknown and leave the descriptor, and the table is induced-type again
    mod, _ = induced_build()
    q = mod.quotient_dims()
    level1 = [k for k in q.entries if k[0] == 1]
    assert len(level1) > 3 and all(q.entries[k] for k in level1)
    zeroed = dict(q.entries) | {k: 0 for k in level1}
    kept = descriptor_from_induced(QuotientDims(mod, q.window, zeroed, zeroed, q.stable))
    unstable = dict(q.stable) | {k: False for k in level1}
    left_out = descriptor_from_induced(QuotientDims(mod, q.window, zeroed, zeroed, unstable))
    coords = {mod.split.compose(-i, x) for i, x in level1}
    assert coords <= set(kept.rows)
    assert not coords & set(left_out.rows)
    assert set(kept.rows) - set(left_out.rows) == coords
    assert _direction_verdict(kept, (0, 1)) == "bounded"
    assert _direction_verdict(left_out, (0, 1)) == "truncated_above"
    assert classify(kept).case == "inconclusive"
    report = classify(left_out)
    assert report.case == "induced_type"
    assert report.detected_b == mod.split.b


def test_classify_inconclusive_cases():
    # bounded table with dimensions >= 2: no rank > 1 case fits
    rows = {(i, j): 2 for i in range(-2, 3) for j in range(-2, 3)}
    report = classify(external(rows))
    assert report.case == "inconclusive"
    # unbounded but with no truncated direction: a single spike off zero
    rows = {(i, j): 1 for i in range(-2, 3) for j in range(-2, 3)}
    rows[(1, 1)] = 5
    report = classify(external(rows))
    assert report.case == "inconclusive"
    assert any("no direction" in c for c in report.certificates)
    with pytest.raises(MalformedDescriptorError):
        classify(external({}))


def test_classify_unimodularity_check_can_fail():
    # dim 1 on the half-plane x + 2y >= 0: the bounded directions +-(2, -1)
    # span the complement, and the truncated-above direction (-1, -1)
    # reduces to b = (1, -2), which spans a sublattice of index 3 with it
    rows = {(x, y): int(x + 2 * y >= 0) for x in range(-3, 4) for y in range(-3, 4)}
    report = classify(external(rows))
    assert report.case == "inconclusive"
    assert report.detected_b is None and report.detected_G0_basis is None
    assert report.certificates[-1] == "unimodularity of (complement basis, b): det = -3"
    # the half-plane y <= 0 splits: the same check passes with det = 1
    rows = {(x, y): int(y <= 0) for x in range(-3, 4) for y in range(-3, 4)}
    report = classify(external(rows))
    assert report.case == "induced_type" and report.detected_b == (0, 1)
    assert report.certificates[-1] == "unimodularity of (complement basis, b): det = 1"


def test_classify_never_emits_unverified_induced_type():
    # every induced_type report carries a determinant certificate and a
    # basis of the right corank
    corpus = [induced_build(b=b)[1] for b in ((0, 1), (1, 0), (1, 1))]
    for d in corpus:
        report = classify(d)
        assert report.case == "induced_type"
        assert len(report.detected_G0_basis) == d.group.rank - 1
        assert any("det = 1" in c or "det = -1" in c for c in report.certificates)


def test_classification_report_json_shape():
    _, d = induced_build()
    report = classify(d)
    payload = report.to_json()
    assert payload["schema"] == "gvir.classification/1"
    assert payload["case"] in CASES
    assert payload["detected_b"] == [0, 1]
    assert payload["detected_G0_basis"] == [[1, 0]]
    assert all(isinstance(c, str) for c in payload["certificates"])


def _random_external_tables():
    """60 seeded random tables of rank 1 or 2, then 10 more with an
    offset_element inside the window, so that a zero weight is skipped."""
    rng = random.Random(20260815)
    tables = []
    for n in range(70):
        rank = rng.choice((1, 2))
        radius = rng.randint(1, 3)
        rows = {}
        if rank == 1:
            for k in range(-radius - 1, radius + 2):
                rows[(k,)] = rng.randint(0, 3)
        else:
            for i in range(-radius, radius + 1):
                for j in range(-radius, radius + 1):
                    rows[(i, j)] = rng.randint(0, 3)
        offset = None
        if n >= 60:
            offset = tuple(rng.randint(-radius, radius) for _ in range(rank))
        tables.append(external(rows, rank=rank, offset_element=offset))
    return tables


def test_classify_randomized_external_tables_never_crash():
    for d in _random_external_tables()[:60]:
        report = classify(d)
        assert isinstance(report, ClassificationReport)
        assert report.case in CASES
        assert report.certificates


def test_classifier_reading_of_random_tables_is_frozen():
    # one digest over every report, every direction verdict with sup-norm
    # <= 2 and the profile (or refusal) of the string through every row
    # along the first generator; any changed verdict, profile or
    # certificate changes it
    digest = hashlib.sha256()
    for d in _random_external_tables():
        rank = d.group.rank
        digest.update(json.dumps(classify(d).to_json(), sort_keys=True).encode())
        for v in _candidate_directions(rank, 2):
            digest.update(f"{v}:{_direction_verdict(d, v)};".encode())
        g = (1,) + (0,) * (rank - 1)
        for coords in sorted(d.rows):
            try:
                profile = string_profile(d, g, coords)
            except ValueError as exc:
                profile = f"ValueError: {exc}"
            digest.update(f"{coords}:{profile};".encode())
    assert digest.hexdigest() == (
        "ad162be05d01be0abb26f42c6dd34c8c3582a6ba3fc98d00fe4f93e36c999605"
    )


def test_classify_refuses_a_search_over_no_direction():
    # a bound below 1 searches nothing, so the search could not fail; the
    # library refuses it as the command line does, at rank 1 too
    rows = {(i, j): 1 + (i == j == 1) for i in range(-2, 3) for j in range(-2, 3)}
    for d in (external(rows), verma_descriptor()):
        with pytest.raises(ValueError, match="direction_bound must be >= 1, got 0"):
            classify(d, direction_bound=0)
    with pytest.raises(SearchRefusedError, match="direction_bound 50 at rank 2 would search"):
        classify(external(rows), direction_bound=50)
    assert classify(external(rows), direction_bound=49).case == "inconclusive"


def test_search_cap_refuses_only_a_search():
    # 5^6 - 1 and 23^3 - 1 box vectors are over the cap, but a table that is
    # trivial or bounded returns before any direction is searched
    trivial = external({(0,) * 6: 1}, rank=6)
    assert classify(trivial).case == "trivial"
    cube = list(itertools.product(range(-1, 2), repeat=3))
    bounded = external({c: 1 for c in cube}, rank=3, offset_element=(0, 0, 0))
    assert classify(bounded, direction_bound=11).case == "intermediate_series"
    assert classify(verma_descriptor(), direction_bound=10**4000).case == "highest_weight"
    unbounded = external({c: 1 + (c[0] > 0) for c in cube}, rank=3)
    assert classify(unbounded, direction_bound=10).case == "inconclusive"
    with pytest.raises(SearchRefusedError, match="direction_bound 11 at rank 3 would search"):
        classify(unbounded, direction_bound=11)
    with pytest.raises(SearchRefusedError, match="direction_bound 2 at rank 6 would search"):
        classify(external({(0,) * 6: 1, (1,) * 6: 2}, rank=6))


def _walked_profile(d, g, base):
    """string_profile restated on the string read by stepping from base in
    steps of g, so with no coset arithmetic; None below 3 points."""
    span = 2 * max(abs(a) for c in d.rows for a in c) + 1
    line = [tuple(b + t * a for b, a in zip(base, g)) for t in range(-span, span + 1)]
    pts = [(t, d.rows[c]) for t, c in enumerate(line) if c in d.rows]
    if len(pts) < 3:
        return None
    z = d.zero_weight_coords()
    pts = [(t, dim) for t, dim in pts if line[t] != z]
    support = [t for t, dim in pts if dim]
    if not support:
        return "bounded"
    low, high = support[0] > pts[0][0], support[-1] < pts[-1][0]
    if low != high:
        return "negatively_truncated" if low else "positively_truncated"
    if low or not any(support[0] < t < support[-1] for t, dim in pts if not dim):
        return "bounded"
    return "mixed"


def test_string_profile_groups_strings_of_non_primitive_directions():
    # a canonical b need not be primitive: along k*g the g-strings split
    # into k strings, one per residue of the string parameter
    cases = [(d, g) for d in _random_external_tables()[:40] if d.group.rank == 2
             for g in ((2, 0), (0, 3), (2, 2), (-2, 4), (1, 2))]
    cases += [(d, g) for d in _rank3_tables()[::4] for g in ((0, 0, -3), (2, 0, 2), (1, 1, 1))]
    for d, g in cases:
        for base in d.rows:
            try:
                profile = string_profile(d, g, base)
            except ValueError:
                profile = None
            assert profile == _walked_profile(d, g, base), (d.rows, g, base)


_MIRROR = {"truncated_above": "truncated_below", "truncated_below": "truncated_above"}


def test_the_verdict_of_minus_g_mirrors_that_of_g():
    # along -g the strings are those of g read backwards: the truncation
    # sides swap, and every other verdict stays
    for d in _random_external_tables():
        for v in _candidate_directions(d.group.rank, 2):
            verdict = _direction_verdict(d, v)
            assert _direction_verdict(d, gneg(v)) == _MIRROR.get(verdict, verdict), (d.rows, v)


def _catalogue_induced_descriptor(b=(1, 2), g0=(0, 1), dims=(1, 2, 4, 8)):
    """An induced-type table built as the benchmark's classify catalogue
    builds it: level i at t*g0 - i*b with dimension dims[i] for |t| <= 2 + i,
    and zero rows at levels -1 and -2 as wide as the whole table."""
    rows = {}
    width = 2 + 3 * len(dims)
    for i, dim in enumerate(dims):
        for t in range(-(2 + i), 3 + i):
            rows[tuple(t * g - i * bb for g, bb in zip(g0, b))] = dim
    for k in (1, 2):
        for t in range(-width, width + 1):
            rows[tuple(t * g + k * bb for g, bb in zip(g0, b))] = 0
    return ModuleDescriptor(Group.of_rank(2), rows, "induced")


def test_the_search_scans_one_direction_of_each_pair(monkeypatch):
    # 16 primitive directions of sup-norm <= 2 make 8 +- pairs: one scan
    # each, and one more for the canonical b only when neither b nor -b
    # was scanned
    d = _catalogue_induced_descriptor()
    expected = classify(d, direction_bound=2)
    assert expected.case == "induced_type" and expected.detected_b == (1, 0)
    scanned = []

    def counted(d, g):
        scanned.append(g)
        return _direction_verdict(d, g)

    monkeypatch.setattr(classify_module, "_direction_verdict", counted)
    assert classify(d, direction_bound=2) == expected
    assert len(_candidate_directions(2, 2)) == 16
    assert len(scanned) <= 9
    assert not any(gneg(v) in scanned for v in scanned)


def _rank3_tables():
    """24 seeded rank-3 tables, each unbounded off the zero weight: random
    dimensions, then half-space tables (support where a small linear form is
    <= a threshold) that give one-side truncated strings, a third of them
    with an offset_element inside the window."""
    rng = random.Random(20261020)
    tables = []
    for n in range(24):
        radius = rng.randint(1, 2)
        coords = list(itertools.product(range(-radius, radius + 1), repeat=3))
        if n < 8:
            rows = {c: rng.randint(0, 3) for c in coords}
        else:
            form = [rng.randint(-1, 1) for _ in range(2)] + [rng.choice((-1, 1))]
            cut = rng.randint(-1, 1)
            rows = {
                c: rng.randint(1, 3) if sum(a * x for a, x in zip(form, c)) <= cut else 0
                for c in coords
            }
        offset = tuple(rng.randint(-radius, radius) for _ in range(3)) if n % 3 == 2 else None
        d = external(rows, rank=3, offset_element=offset)
        assert not is_uniformly_bounded(d).startswith("yes")
        tables.append(d)
    return tables


def test_classifier_reading_of_rank3_tables_is_frozen():
    # one digest over every report and every direction verdict with
    # sup-norm <= 2 (98 directions, 49 +- pairs) of seeded rank-3 tables
    digest = hashlib.sha256()
    for d in _rank3_tables():
        digest.update(json.dumps(classify(d).to_json(), sort_keys=True).encode())
        for v in _candidate_directions(3, 2):
            digest.update(f"{v}:{_direction_verdict(d, v)};".encode())
    assert digest.hexdigest() == (
        "a2cd9b1771100a96f23d2ad270c15d2f246b4ae2c1f9940718b5987645417530"
    )

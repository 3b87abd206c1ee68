"""Job catalogues of the benchmark workloads and their seeded draws.

A job is one in-process call of ``gvir.cli.main`` with a config file, or, in
``small-ops`` only, one direct call of ``gvir.algebra.pbw_normalize``.  Each
workload owns a finite catalogue of jobs, grouped into slots of similar cost.
A pass draws a fixed number of entries from every slot and shuffles them; the
run seed and the pass number fix the draw, so the same seed always gives the
same job list.  Fixing the count per slot keeps the cost of a pass nearly the
same across seeds, which is what makes the timings comparable between seeds.

The program under test never sees the seed: it only receives the generated
configs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

# -- jobs -------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One catalogue entry.

    key      stable identifier, also the digest key
    command  a gvir CLI command, or "pbw" for a direct pbw_normalize call
    config   the JSON config handed to the CLI (for "pbw": rank and word)
    check    which output check applies: "induce", "verma", "classify",
             "digest" or "pbw"
    expect   data the check needs, computed by the benchmark itself
    """

    key: str
    command: str
    config: dict
    check: str
    expect: dict = field(default_factory=dict)


def _key(command, config):
    return command + ":" + json.dumps(config, sort_keys=True, separators=(",", ":"))


def _job(command, config, check, **expect):
    return Job(_key(command, config), command, config, check, expect)


# -- induce ------------------------------------------------------------------------


def _induce(b, L, N, alpha="free", beta="free", rank=2):
    config = {
        "group": {"rank": rank},
        "b": list(b),
        "bindings": {"alpha": alpha, "beta": beta},
        "window": {"L": L, "N": N},
    }
    return _job("induce", config, "induce")


# alpha free: each level row is one symbolic rank per radius.  The heavy
# slot holds the two beta-free matrices of equal cost (b=(1,2) runs about
# 10% faster, enough to move a pass by 5%).  Every pass runs all six light
# jobs, so the median of a run is taken over a dozen similar jobs.
INDUCE_GENERIC_HEAVY = [_induce(b, 2, 1) for b in ((2, 1), (1, -1))]
INDUCE_GENERIC_LIGHT = [
    _induce((0, 1), 2, 1, beta="1/2"),
    _induce((1, -1), 2, 1, beta="1/2"),
    _induce((1, -1), 2, 1, beta="2"),
    _induce((1, 2), 2, 1, beta="2"),
    _induce((2, 1), 2, 1, beta="2"),
    _induce((0, 0, 1), 1, 1, rank=3),
]

# alpha bound: one rank per report weight and radius
INDUCE_POINTWISE_DEFECT = [
    # known defect: ExactDivisionError from linalg.symbolic_rank; drawn in
    # every pass and counted as failed, never frozen as the expected output
    _induce((0, 1), 2, 1, alpha=[1, 0], beta=beta)
    for beta in ("1/2", "2", "free")
]
INDUCE_POINTWISE_REDUCIBLE = [
    _induce((0, 1), 2, 1, alpha=alpha, beta=beta)
    for alpha, beta in (([0, 0], 0), ([-1, 0], 1), ([1, 0], 0), ([1, 0], 1))
]
# each entry is one config at N = 1 and N = 3, drawn together so the pair
# can be checked for monotonicity in the box radius
INDUCE_POINTWISE_L1 = [
    tuple(_induce(b, 1, N, alpha=alpha, beta=beta) for N in (1, 3))
    for b, alpha, beta in (
        ((0, 1), [1, 0], 0),
        ((0, 1), [1, 0], 1),
        ((0, 1), [1, 0], "2"),
        ((0, 1), [0, 1], "1/2"),
        ((1, 2), [0, 1], 0),
        ((1, 2), [0, 1], 1),
        ((1, 2), [1, 1], "1/2"),
    )
]

# -- verma --------------------------------------------------------------------------

# quotient dimensions at levels 0..5 after dividing out every singular
# vector, from the Kac determinant (with h -> -h, the package's sign
# convention); a generic point keeps p(n)
KAC_QUOTIENT_DIMS = {
    ("1/2", "-1/16"): [1, 1, 1, 2, 2, 3],
    ("1/2", "-1/2"): [1, 1, 1, 1, 2, 2],
    ("0", "-5/8"): [1, 1, 1, 2, 3, 4],
    ("0", "-1/3"): [1, 1, 2, 2, 4, 5],
    ("3/7", "2/5"): None,
}


def partition_counts(L):
    """p(0..L) by the Euler recurrence over generalized pentagonal numbers."""
    p = [1] + [0] * L
    for n in range(1, L + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def _verma(c, h, L, levels):
    config = {
        "bindings": {"c": c, "h": h},
        "window": {"L": L},
        "singular_levels": list(levels),
    }
    expect = {"dims": partition_counts(L)}
    if (c, h) in KAC_QUOTIENT_DIMS:
        kac = KAC_QUOTIENT_DIMS[(c, h)]
        expect["quotient_dims"] = (kac or partition_counts(5))[: L + 1]
    return _job("verma", config, "verma", **expect)


VERMA_FREE = [_verma("free", "free", 5, range(1, 6))]
VERMA_C_BOUND = [_verma(c, "free", 5, range(1, 6)) for c in ("1/2", "0")]
VERMA_POINTS = [_verma(c, h, 5, (1, 2)) for c, h in KAC_QUOTIENT_DIMS]

# -- small operations ----------------------------------------------------------------


def _bracket_catalogue(rng):
    out = []
    for rank, radius, pairs, deltas in ((1, 3, 24, 6), (2, 2, 40, 12), (3, 1, 24, 8)):
        box = list(itertools.product(range(-radius, radius + 1), repeat=rank))
        nonzero = [x for x in box if any(x)]
        for i in range(pairs):
            x = rng.choice(box)
            if i < deltas:
                y = tuple(-v for v in rng.choice(nonzero))
                x = tuple(-v for v in y)
            else:
                y = rng.choice(box)
            xs = "C" if i % 11 == 10 else list(x)
            out.append(
                _job("bracket", {"group": {"rank": rank}, "x": xs, "y": list(y)}, "digest")
            )
    return out


def _interseries_catalogue():
    out = []
    alphas = {1: ["free", "0", "1/2", [1], [-2]], 2: ["free", "1/2", [1, 0], [0, -1]]}
    for rank, N in ((1, 2), (2, 1)):
        for alpha in alphas[rank]:
            for beta in ("free", 0, 1, "1/2", "2"):
                config = {
                    "group": {"rank": rank},
                    "bindings": {"alpha": alpha, "beta": beta},
                    "window": {"N": N},
                    "seed": 7,
                    "trials": 10,
                }
                out.append(_job("interseries", config, "digest"))
    return out


def _small_verma_catalogue():
    points = [("free", "free"), ("1/2", "free"), ("0", "free")] + list(KAC_QUOTIENT_DIMS)
    return [_verma(c, h, L, range(1, L + 1)) for c, h in points for L in (1, 2, 3)]


def _descriptor(rank, rows, provenance="external", offset="alpha", flags=(), offset_element=None):
    return {
        "schema": "gvir.descriptor/1",
        "group": {"rank": rank},
        "provenance": provenance,
        "offset": offset,
        "offset_element": offset_element,
        "flags": list(flags),
        "rows": [[offset, list(c), d] for c, d in sorted(rows.items())],
    }


def _box(radius, rank):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


def _classify_catalogue():
    """Descriptors built from the defining formulas of each module family."""
    out = []

    def add(family, descriptor):
        out.append(_job("classify", {"descriptor": descriptor}, "classify", family=family))

    for rank, radius in ((1, 3), (2, 2)):
        rows = {c: 0 for c in _box(radius, rank)}
        rows[(0,) * rank] = 1
        add("trivial", _descriptor(rank, rows, offset="h" if rank == 1 else "alpha"))
    for rank, radius in ((1, 4), (2, 2), (2, 3), (3, 1)):
        add("intermediate_series", _descriptor(rank, {c: 1 for c in _box(radius, rank)}, "interseries"))
        # reducible top: the line at the zero weight is dropped
        a = (1,) + (0,) * (rank - 1)
        rows = {c: 1 for c in _box(radius, rank)}
        rows[tuple(-v for v in a)] = 0
        add(
            "intermediate_series",
            _descriptor(rank, rows, "interseries", offset_element=list(a)),
        )
    for L in (3, 5, 7):
        p = partition_counts(L)
        high = {(-n,): p[n] for n in range(L + 1)}
        high.update({(k,): 0 for k in (1, 2)})
        add("highest_weight", _descriptor(1, high, "verma", offset="h", flags=("is_Z",)))
        low = {(n,): p[n] for n in range(L + 1)}
        low.update({(-k,): 0 for k in (1, 2)})
        add("lowest_weight", _descriptor(1, low, "external", offset="h", flags=("is_Z",)))
    # induced type: level i sits at y*g0 - i*b with dimension growing in i,
    # every positive level is zero; the zero levels are as wide as the whole
    # table, so every string that climbs out of the support meets them
    for b, g0 in (((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 2), (0, 1))):
        for dims in ((1, 3, 15), (1, 2, 4, 8)):
            rows = {}
            top = 2
            width = top + 3 * len(dims)
            for i, d in enumerate(dims):
                for t in range(-(top + i), top + i + 1):
                    rows[tuple(t * g - i * bb for g, bb in zip(g0, b))] = d
            for k in (1, 2):
                for t in range(-width, width + 1):
                    rows[tuple(t * g + k * bb for g, bb in zip(g0, b))] = 0
            add("induced_type", _descriptor(2, rows, "induced"))
    return out


def _pbw_catalogue(rng):
    out = []
    for rank, radius, count in ((1, 3, 60), (2, 2, 60)):
        box = [x for x in itertools.product(range(-radius, radius + 1), repeat=rank)]
        for _ in range(count):
            length = rng.randint(2, 5)
            word = [list(rng.choice(box)) for _ in range(length)]
            if rng.random() < 0.15:
                word.insert(rng.randrange(length + 1), "C")
            out.append(_job("pbw", {"rank": rank, "word": word}, "pbw"))
    return out


def _small_ops():
    rng = random.Random("gvir-perfbench-small-ops-catalogue")
    return {
        "bracket": _bracket_catalogue(rng),
        "interseries": _interseries_catalogue(),
        "classify": _classify_catalogue(),
        "verma": _small_verma_catalogue(),
        "pbw": _pbw_catalogue(rng),
    }


SMALL_OPS = _small_ops()
# one slot per Verma level count: the 8 L=3 entries (6.5-10 ms) sit in the
# slowest dozen jobs of a pass with the 8 induced-type descriptors, so a
# fixed number of them per pass keeps job_tail_s on the same jobs
SMALL_VERMA_BY_L = [[j for j in SMALL_OPS["verma"] if j.config["window"]["L"] == L] for L in (1, 2, 3)]

# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload: slots of (catalogue, entries drawn per pass) and a per-job
    cap.  An entry is a job, or a tuple of jobs that are drawn together.

    pass_s is the nominal time of one pass (2-core sandbox, Python 3.11); a
    run of S seconds makes max(1, S // pass_s) passes, so the job count of a
    run never depends on how fast the program is."""

    name: str
    cap_s: float
    pass_s: float
    slots: tuple

    def passes(self, seconds):
        return max(1, int(seconds // self.pass_s))

    def catalogue(self):
        return _flatten(entry for entries, _ in self.slots for entry in entries)

    def draw(self, seed, pass_no):
        """The job list of one pass; a pure function of (seed, pass_no)."""
        rng = random.Random(f"{self.name}/{seed}/{pass_no}")
        jobs = _flatten(e for entries, count in self.slots for e in rng.sample(entries, count))
        rng.shuffle(jobs)
        return jobs


def _flatten(entries):
    jobs = []
    for entry in entries:
        jobs += entry if isinstance(entry, tuple) else [entry]
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "induce-generic",
            cap_s=20.0,
            pass_s=10.0,
            slots=(
                (INDUCE_GENERIC_HEAVY, 1),
                (INDUCE_GENERIC_LIGHT, 6),
            ),
        ),
        Workload(
            "induce-pointwise",
            cap_s=12.0,
            pass_s=16.0,
            slots=(
                (INDUCE_POINTWISE_DEFECT, 3),
                (INDUCE_POINTWISE_REDUCIBLE, 4),
                (INDUCE_POINTWISE_L1, 1),
            ),
        ),
        Workload(
            "verma",
            cap_s=15.0,
            pass_s=10.0,
            slots=((VERMA_FREE, 1), (VERMA_C_BOUND, 1), (VERMA_POINTS, 2)),
        ),
        Workload(
            "small-ops",
            cap_s=2.0,
            pass_s=0.8,
            slots=(
                (SMALL_OPS["bracket"], 72),
                (SMALL_OPS["interseries"], 24),
                (SMALL_OPS["classify"], 24),
                *((entries, 4) for entries in SMALL_VERMA_BY_L),
                (SMALL_OPS["pbw"], 72),
            ),
        ),
    )
}

"""Output checks that do not take their expected values from the code under test.

Each check returns a list of problems; an empty list means the output passed.

- ``induce``: the (2i+1)!! bound on stable entries, the level-0 row against
  the intermediate-series row (1 everywhere, 0 on the dropped line of a
  reducible top), constant level rows when alpha is free, and, across a
  pass, entries at radius N no larger than at a wider radius.
- ``verma``: level dimensions against the partition numbers, and quotient
  dimensions at rational points against the Kac-determinant values; other
  points are compared by digest.
- ``classify``: the case equals the family the descriptor was built from.
- ``digest`` and ``pbw``: the deterministic report (without ``timing_ms``)
  against a digest recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def canonical(report):
    """The deterministic part of a report as one compact JSON string."""
    report = {k: v for k, v in report.items() if k != "timing_ms"}
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def double_factorial_odd(i):
    out = 1
    for k in range(1, 2 * i + 2, 2):
        out *= k
    return out


def _solve_unimodular(basis, target):
    """Integer coordinates of target in a basis of Z^n, or None."""
    n = len(target)
    m = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    coords = [m[i][n] / m[i][i] for i in range(n)]
    if any(x.denominator != 1 for x in coords):
        return None
    return [int(x) for x in coords]


def check_induce(job, report):
    problems = []
    res = report["results"]
    config = job.config
    rows = res["rows"]
    L = config["window"]["L"]
    if res["splitting_b"] != config["b"]:
        problems.append(f"splitting_b {res['splitting_b']} != b {config['b']}")
        return problems
    if len(rows) != res["entry_count"] or sum(r["stable"] for r in rows) != res["stable_count"]:
        problems.append("entry_count or stable_count disagrees with the rows")
    for r in rows:
        if not 0 <= r["level"] <= L or not isinstance(r["dim"], int) or r["dim"] < 0:
            problems.append(f"malformed row {r}")
        elif r["stable"] and r["dim"] > double_factorial_odd(r["level"]):
            problems.append(f"stable entry {r} exceeds (2i+1)!!")

    # level 0 is the top V'(alpha, beta, G0): reducible exactly when alpha
    # lies in G0 and beta is 0 or 1, and then the line at -alpha is dropped
    alpha = config["bindings"].get("alpha", "free")
    beta = str(config["bindings"].get("beta", "free"))
    dropped = None
    if isinstance(alpha, list) and beta in ("0", "1"):
        coords = _solve_unimodular(res["g0_basis"] + [res["splitting_b"]], alpha)
        if coords is None:
            problems.append("g0_basis and b do not span the group")
        elif coords[-1] == 0:
            dropped = [-v for v in coords[:-1]]
    for r in rows:
        if r["level"] == 0:
            want = 0 if r["coords"] == dropped else 1
            if r["dim"] != want:
                problems.append(f"level-0 entry {r} != interseries dimension {want}")

    # a free alpha makes each level row constant (alpha -> alpha + iota(x)
    # is a field automorphism carrying the matrix at 0 to the one at x)
    if alpha == "free":
        for i in range(L + 1):
            values = {r["dim"] for r in rows if r["level"] == i}
            if len(values) > 1:
                problems.append(f"level {i} row is not constant for free alpha: {sorted(values)}")
    return problems


def check_radius_pairs(results):
    """Windowed dimensions never drop when the box radius grows.

    results: (job, report) pairs of successful induce jobs from one pass;
    returns (job key, problem) pairs, charged to the smaller radius."""
    problems = []
    by_config = {}
    for job, report in results:
        cfg = dict(job.config)
        window = dict(cfg.pop("window"))
        N = window.pop("N")
        key = json.dumps([cfg, window], sort_keys=True)
        table = {(r["level"], tuple(r["coords"])): r["dim"] for r in report["results"]["rows"]}
        by_config.setdefault(key, []).append((N, job.key, table))
    for tables in by_config.values():
        tables.sort(key=lambda t: t[0])
        for (n1, k1, t1), (n2, k2, t2) in zip(tables, tables[1:]):
            for w in t1.keys() & t2.keys():
                if t1[w] > t2[w]:
                    problems.append((k1, f"entry {w}: {t1[w]} > {t2[w]} at N={n2}"))
    return problems


def check_verma(job, report, digests):
    res = report["results"]
    problems = []
    if res["dims"] != job.expect["dims"]:
        problems.append(f"dims {res['dims']} != partition numbers {job.expect['dims']}")
    if "quotient_dims" in job.expect:
        if res.get("quotient_dims") != job.expect["quotient_dims"]:
            problems.append(
                f"quotient_dims {res.get('quotient_dims')} != Kac table {job.expect['quotient_dims']}"
            )
    else:
        problems += check_digest(job, canonical(report), digests)
    return problems


def check_classify(job, report):
    case = report["results"]["report"]["case"]
    if case != job.expect["family"]:
        return [f"case {case} != source family {job.expect['family']}"]
    return []


def check_digest(job, text, digests):
    want = digests.get(job.key)
    if want is None:
        return ["no recorded digest"]
    got = digest(text)
    if got != want:
        return [f"digest {got} != recorded {want}"]
    return []


def check(job, output, digests):
    """Problems with one job's output; output is the parsed report (a dict)."""
    if job.check == "induce":
        return check_induce(job, output)
    if job.check == "verma":
        return check_verma(job, output, digests)
    if job.check == "classify":
        return check_classify(job, output)
    return check_digest(job, canonical(output), digests)

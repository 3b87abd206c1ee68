"""Self-test of the benchmark: its checks can fail and its job lists are seeded.

    python3 perfbench/selftest.py

Runs a few cheap real jobs, confirms that their outputs pass, then corrupts
one dimension in a report, one recorded digest, one classification and one
radius pair, and asserts that the checker rejects each.  Also asserts that a
seed always gives the same job list and that a held-out seed gives another.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import copy
import os
import shutil
import signal
import sys

import checks
import run
import workloads

SEED, HELD_OUT_SEED = 11, 12


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def find(catalogue, **match):
    for job in catalogue:
        if all(job.config.get(k) == v for k, v in match.items()):
            return job
    raise LookupError(match)


def main():
    for name, w in workloads.WORKLOADS.items():
        first = [j.key for j in w.draw(SEED, 0)]
        expect(first == [j.key for j in w.draw(SEED, 0)], f"{name}: seed {SEED} repeats its job list")
        expect(first != [j.key for j in w.draw(HELD_OUT_SEED, 0)], f"{name}: seed {HELD_OUT_SEED} draws another list")

    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._alarm)
    workdir = os.path.join(run.HERE, ".work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    digests = checks.load_digests()
    pointwise = workloads.WORKLOADS["induce-pointwise"].catalogue()
    small = workloads.SMALL_OPS
    jobs = {
        "induce_n1": find(pointwise, b=[0, 1], bindings={"alpha": [1, 0], "beta": 0}, window={"L": 1, "N": 1}),
        "induce_n3": find(pointwise, b=[0, 1], bindings={"alpha": [1, 0], "beta": 0}, window={"L": 1, "N": 3}),
        "verma": find(small["verma"], bindings={"c": "1/2", "h": "-1/16"}, window={"L": 3}),
        "bracket": small["bracket"][0],
        "classify": small["classify"][-1],
    }
    try:
        executor = run.Executor(workdir, cap_s=60)
        executor.prepare(jobs.values())
        reports = {}
        for label, job in jobs.items():
            _, report, error = executor.run(job)
            expect(error is None and not checks.check(job, report, digests), f"{label}: real output passes")
            reports[label] = report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = copy.deepcopy(reports["induce_n1"])
    row = next(r for r in bad["results"]["rows"] if r["level"] == 1 and r["stable"])
    row["dim"] = 4  # above (2*1+1)!! = 3
    expect(checks.check(jobs["induce_n1"], bad, digests), "induce: a stable dimension above (2i+1)!! is rejected")

    bad = copy.deepcopy(reports["induce_n1"])
    row = next(r for r in bad["results"]["rows"] if r["level"] == 0 and r["dim"] == 1)
    row["dim"] = 0
    expect(checks.check(jobs["induce_n1"], bad, digests), "induce: a wrong level-0 dimension is rejected")

    pair = [(jobs["induce_n1"], reports["induce_n1"]), (jobs["induce_n3"], reports["induce_n3"])]
    expect(not checks.check_radius_pairs(pair), "induce: the real radius pair passes")
    bad = copy.deepcopy(reports["induce_n1"])
    row = next(r for r in bad["results"]["rows"] if r["level"] == 1)
    row["dim"] += 1
    expect(
        checks.check_radius_pairs([(jobs["induce_n1"], bad), pair[1]]),
        "induce: an entry that drops at a wider radius is rejected",
    )

    bad = copy.deepcopy(reports["verma"])
    bad["results"]["quotient_dims"][2] += 1
    expect(checks.check(jobs["verma"], bad, digests), "verma: a wrong quotient dimension is rejected")

    bad_digests = dict(digests)
    key = jobs["bracket"].key
    bad_digests[key] = ("0" if digests[key][0] != "0" else "1") + digests[key][1:]
    expect(checks.check(jobs["bracket"], reports["bracket"], bad_digests), "digest: a corrupted digest is rejected")

    bad = copy.deepcopy(reports["classify"])
    bad["results"]["report"]["case"] = "intermediate_series"
    expect(checks.check(jobs["classify"], bad, digests), "classify: a wrong case is rejected")
    print("selftest passed")


if __name__ == "__main__":
    main()

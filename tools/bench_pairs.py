"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/bench_pairs.py --parent ../gvir-parent --change ../gvir-change \
        --workload verma --seeds 101-110 --out BENCH_19.json

Each seed is one pair: `perfbench/run.py` runs once from each checkout with
that seed, in a fresh process, and the side that runs first alternates from
pair to pair.  Place both checkouts side by side (the same parent
directory): where a checkout sits moved paired results by a few percent, so
the script warns when they are not siblings.  The run length is the
`run_seconds` of the change's BENCHMARK.json, and each metric's direction
and bound come from there too.

For every workload and end-to-end metric it prints both sides' medians and
quartiles, the change's relative shift of the median, its wins, losses and
ties over the pairs, and whether a gain holds: the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile range.  A metric is unresolved when the parent's own
spread, its interquartile range over its median, is wider than the
metric's bound, unless every change run reads better than every parent
run: within such noise a shift inside the bound says nothing.  The JSON
file written with --out holds the same summary and every run's metrics;
committed as BENCH_<change>.json beside the change, its parent commit is
the parent that was run.  Standard library only.

The JSON file and the run header also record what was compared: each
checkout's path, its `git rev-parse HEAD` and whether `git status
--porcelain` listed uncommitted changes (both null when the path is not the
top of a git checkout, or git is missing), and the line count of its
`src/gvir/*.py` (null without that directory).  Every benchmark process
compiles gvir where bytecode is not written, so `setup_s` and
`peak_rss_mb` move with that count.

Another tenant on the host can hold the second CPU, and then a forked job
runs at one-process speed while the benchmark's host-speed scale, timed in
one process, reads the host as fast.  So before and after each pair a CPU
loop is timed in one process and in two processes at once; a pair whose
two-to-one ratio exceeds BUSY_RATIO (2 on a busy second CPU, about 1 on a
free one) is marked busy in its progress line, and each workload's summary
counts such pairs.  The verdicts count every pair.  The loop's child is
pinned off the parent's CPU, by the rule of `gvir.forks.Child`: Linux keeps
a forked child on its parent's CPU for its first half second or so, so an
unpinned child reads a free second CPU as busy.  The loop's step count is
calibrated once, by time, so that one loop takes at least LOOP_SECONDS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

# above this two-to-one ratio of the CPU loop, a pair ran on a busy CPU
BUSY_RATIO = 1.5
# the least time of one CPU loop.  On a 2-vCPU Xeon host an unpinned child
# shared its parent's CPU for its first 0.5-1 s (migration delay): ratios of
# 0.03 s loops read 1.04-2.22, of 0.3 s loops 0.93-1.46, and one of 0.25 s
# loops read 1.71 on an idle host.  Pinned, 5 ratios each of 0.05 s and
# 0.25 s loops read 1.04-1.34 and 1.02-1.15
LOOP_SECONDS = 0.25


def parse_seeds(text):
    """'101-110' or '1,5,9' (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout, workload, seed, seconds):
    """The result object of one benchmark run (the last line of its stdout)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_lines(path):
    """The line count of path's src/gvir/*.py as `wc -l` gives it (the
    newlines), None without src/gvir."""
    src = os.path.join(path, "src", "gvir")
    if not os.path.isdir(src):
        return None
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def checkout_state(path):
    """{"path", "commit", "dirty", "source_lines"} of a checkout: its HEAD
    commit and whether git lists uncommitted changes, both None unless path
    is the top of a git checkout and git runs, and `source_lines`."""
    state = {"path": path, "commit": None, "dirty": None, "source_lines": source_lines(path)}

    def git(*args):
        out = subprocess.run(["git", *args], cwd=path, capture_output=True, text=True)
        return out.stdout if out.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top.strip()) != os.path.realpath(path):
            return state
        commit, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except OSError:  # no git
        return state
    if commit is not None and status is not None:
        state["commit"], state["dirty"] = commit.strip(), bool(status.strip())
    return state


def header(side, state):
    """The run header's line for one checkout."""
    lines = state["source_lines"]
    size = "no src/gvir" if lines is None else f"src/gvir {lines} lines"
    if state["commit"] is None:
        return f"{side}: {state['path']} (not a git checkout; {size})"
    changes = "uncommitted changes" if state["dirty"] else "clean"
    return f"{side}: {state['path']} at {state['commit']} ({changes}; {size})"


def _loop(n):
    x = 0
    for i in range(n):
        x += i * i
    return x


def calibrate(seconds=LOOP_SECONDS, clock=time.perf_counter):
    """The CPU loop's step count: scaled up from a short loop, a little past
    the time it takes, until one loop takes at least seconds by clock."""
    n = 10_000
    while True:
        start = clock()
        _loop(n)
        took = clock() - start
        if took >= seconds:
            return n
        n = math.ceil(1.05 * n * seconds / max(took, 1e-6))


def current_cpu():
    """The CPU this process last ran on: field 39 of /proc/self/stat,
    counted after the last ')'; None where it cannot be read."""
    try:
        with open("/proc/self/stat", encoding="ascii", errors="replace") as fh:
            text = fh.read()
        return int(text[text.rindex(")") + 1 :].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def pin_off(cpu):
    """Narrow this process's affinity to its CPUs other than cpu, when it
    holds more than one; unpinned without a cpu or when the kernel refuses."""
    try:
        allowed = os.sched_getaffinity(0)
        if cpu is not None and len(allowed) > 1:
            os.sched_setaffinity(0, allowed - {cpu})
    except OSError:
        pass


def cpu_ratio(n, rounds=3):
    """The least time of n loop steps run in this process and in a forked
    child, pinned off this process's CPU, at once, over the least time of n
    steps in this process alone, over a few rounds (the least time is the
    one that noise moves least)."""
    one, two = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        _loop(n)
        one.append(time.perf_counter() - start)
        cpu = current_cpu()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                pin_off(cpu)
                _loop(n)
            finally:
                os._exit(0)
        _loop(n)
        os.waitpid(pid, 0)
        two.append(time.perf_counter() - start)
    return min(two) / min(one)


def busy(ratios):
    """Whether a pair with these CPU-loop ratios ran on a busy CPU."""
    return max(ratios) > BUSY_RATIO


def progress(workload, run):
    """The progress line of one pair, marked when it ran on a busy CPU."""
    wall = [run[s]["metrics"]["wall_s"]["value"] for s in ("parent", "change")]
    before, after = run["cpu_ratio"]
    mark = "  BUSY CPU" if busy(run["cpu_ratio"]) else ""
    return (f"{workload} seed {run['seed']} ({run['first']} first): wall_s {wall[0]:.6g} -> {wall[1]:.6g}"
            f"  cpu 2:1 {before:.2f}, {after:.2f}{mark}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, spec):
    """Per metric: both sides' quartiles, relative median shift, wins,
    whether a gain holds and whether the parent's spread leaves the metric
    unresolved.  pairs is a list of (parent, change) results."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [p["metrics"][name]["value"] for p, _ in pairs]
        b = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        pa, pb = quartiles(a), quartiles(b)
        iqr = pa[2] - pa[0]
        better = (pb[1] < pa[1]) if lower else (pb[1] > pa[1])
        shift = (pb[1] - pa[1]) / pa[1] if pa[1] else 0.0
        worse = shift if lower else -shift
        spread = iqr / abs(pa[1]) if pa[1] else 0.0
        apart = max(b) < min(a) if lower else min(b) > max(a)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"q1": pa[0], "median": pa[1], "q3": pa[2]},
            "change": {"q1": pb[0], "median": pb[1], "q3": pb[2]},
            "relative_shift": shift,
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
            "parent_spread": spread,
            "unresolved": spread > metric["bound"] and not apart,
            "wins": wins,
            "losses": len(pairs) - wins - ties,
            "ties": ties,
            "pairs": len(pairs),
            "gain": better and wins >= 0.9 * len(pairs) and abs(pb[1] - pa[1]) > iqr,
        }
    return out


def summary_line(name, m):
    """The line of one metric in a workload's summary."""
    p, c = m["parent"], m["change"]
    return (f"  {name:12} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
            f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}  "
            f"{100 * m['relative_shift']:+.1f}%  wins {m['wins']}/{m['pairs']} "
            f"ties {m['ties']}  gain {m['gain']}  within bound {m['within_bound']}  "
            f"unresolved {m['unresolved']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 101-110: one pair each")
    parser.add_argument("--out", help="write the summary and every run to this JSON file")
    args = parser.parse_args(argv)

    parent, change = os.path.realpath(args.parent), os.path.realpath(args.change)
    if os.path.dirname(parent) != os.path.dirname(change):
        print("warning: the checkouts are not side by side; placement can move results",
              file=sys.stderr)
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    steps = calibrate()

    checkouts = {"parent": checkout_state(parent), "change": checkout_state(change)}
    for side, state in checkouts.items():
        print(header(side, state))
    report = {
        "checkouts": checkouts,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))},
        "run_seconds": seconds,
        "cpu_loop_steps": steps,
        "workloads": {},
    }
    for workload in args.workload:
        pairs, runs = [], []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            ratios = [cpu_ratio(steps)]
            for side in order:
                got[side] = run_once(parent if side == "parent" else change, workload, seed, seconds)
            ratios.append(cpu_ratio(steps))
            pairs.append((got["parent"], got["change"]))
            runs.append({"seed": seed, "first": order[0], "cpu_ratio": ratios, **got})
            print(progress(workload, runs[-1]), file=sys.stderr, flush=True)
        summary = summarize(pairs, spec)
        busy_pairs = sum(busy(r["cpu_ratio"]) for r in runs)
        report["workloads"][workload] = {"summary": summary, "busy_pairs": busy_pairs, "runs": runs}
        print(f"\n{workload}: {len(pairs)} pairs, {busy_pairs} on a busy CPU (2:1 loop ratio > {BUSY_RATIO})")
        for name, m in summary.items():
            print(summary_line(name, m))
        correct = all(r[s]["correct"] for r in runs for s in ("parent", "change"))
        print(f"  every run correct: {correct}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

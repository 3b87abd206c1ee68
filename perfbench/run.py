"""Benchmark of the gvir CLI: seeded closed-loop job lists with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload induce-generic --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs one after another in this process
(closed loop).  A run makes a fixed number of passes over seeded job lists,
sized so that on the reference machine it lasts about ``--seconds``; it
stops early only if it reaches twice that.  Every job's time is scaled to a
fixed host speed (see hostspeed.py); each time metric is taken per pass and
the run reports its median over passes.  Every job's output is checked (see
checks.py).  A job fails when it raises, exits non-zero, exceeds the
workload's per-job cap or fails its check; a failed job is charged the cap,
unscaled, in every time metric.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first pass runs twice per job,
once plain and once traced (see tracing.py), the two reports must agree byte
for byte, and the JSON object carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15

# one fresh process: import the CLI, build its parser, generate the jobs;
# scaled like a job, by reference samples right before and right after
SETUP_CODE = """
import json, sys, time
src, here, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path.insert(0, here)
import hostspeed
before = hostspeed.sample()
t0 = time.perf_counter()
sys.path.insert(0, src)
import gvir.cli
gvir.cli.build_parser()
import workloads
for job in workloads.WORKLOADS[name].draw(seed, 0):
    json.dumps(job.config)
seconds = time.perf_counter() - t0
print(repr(seconds * hostspeed.factor([before, hostspeed.sample()])))
"""


class JobTimeout(BaseException):
    """Raised by the alarm when a job exceeds its cap (not an Exception, so
    the CLI's own error handling cannot swallow it)."""


def _alarm(signum, frame):
    raise JobTimeout()


def measure_setup(name, seed):
    """Median of SETUP_SAMPLES fresh processes, each scaled to the reference
    host speed in the same process (see hostspeed.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, HERE, name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class Executor:
    """Runs jobs in this process with a per-job cap."""

    def __init__(self, workdir, cap_s):
        from gvir import algebra, cli, groups, scalars

        # modules, not functions: the tracer swaps module attributes
        self.cli, self.algebra, self.groups, self.scalars = cli, algebra, groups, scalars
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        self.cap_s = cap_s
        self.config_paths = {}
        os.makedirs(self.outdir, exist_ok=True)

    def prepare(self, jobs):
        """Write each distinct config once, before any timing."""
        for job in jobs:
            if job.command != "pbw" and job.key not in self.config_paths:
                name = hashlib.sha1(job.key.encode()).hexdigest()[:16] + ".json"
                path = os.path.join(self.workdir, name)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(job.config, fh)
                self.config_paths[job.key] = path

    def _call(self, job):
        if job.command == "pbw":
            rank = job.config["rank"]
            word = [w if w == "C" else tuple(w) for w in job.config["word"]]
            ctx, group = self.scalars.Context.of_rank(rank), self.groups.Group.of_rank(rank)
            terms = self.algebra.pbw_normalize(ctx, group, word)
            return 0, {"rendered": self.algebra.render_pbw(terms)}
        argv = [job.command, "--config", self.config_paths[job.key], "--out", self.outdir]
        rc = self.cli.main(argv)
        return rc, None

    def run(self, job, during=None):
        """(seconds, report or None, error or None) for one job.

        ``during`` (a hostspeed.During) samples the host speed while the job
        runs; the time it takes is not counted in the job's seconds."""
        stdout, stderr = io.StringIO(), io.StringIO()
        report = error = None
        # every job writes into an empty output directory: rewriting a file
        # that already holds data makes ext4 start writeback on close
        # (auto_da_alloc), which put the host's disk latency, 0.3-2 ms per
        # file, into the time of jobs that compute for 1-2 ms
        for entry in os.scandir(self.outdir):
            os.unlink(entry.path)
        # start every job from the same heap state: collect what earlier jobs
        # left and freeze the survivors (the benchmark's own objects), so
        # collections during the job scan only the job's objects
        gc.collect()
        gc.freeze()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap_s)
            if during is not None:
                during.arm()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc, report = self._call(job)
                if rc != 0:
                    error = f"exit {rc}: {stderr.getvalue().strip()[:200]}"
            except JobTimeout:
                error = f"exceeded the {self.cap_s} s cap"
            except Exception as exc:  # any failure of the program is the job's failure
                error = f"raised {exc!r}"[:200]
            finally:
                seconds = time.perf_counter() - start
                if during is not None:
                    during.disarm()
                    seconds -= during.busy_s
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:  # the alarm fired between the call and disarming it
            if during is not None:
                during.disarm()
            seconds, error = self.cap_s, f"exceeded the {self.cap_s} s cap"
        if error is None and seconds > self.cap_s:
            error = f"exceeded the {self.cap_s} s cap"
        if error is None and report is None:
            report = json.loads(stdout.getvalue())
        return seconds, report, error


class Outcome:
    __slots__ = ("job", "seconds", "report", "error")

    def __init__(self, job, seconds, report, error):
        self.job, self.seconds, self.report, self.error = job, seconds, report, error


def check_pass(outcomes, digests):
    """Check every output of one pass; failed checks become job errors.

    Returns the number of outputs that were wrong (as opposed to missing)."""
    import checks

    wrong = 0
    for o in outcomes:
        if o.error is None:
            problems = checks.check(o.job, o.report, digests)
            if problems:
                o.error = "check failed: " + "; ".join(problems)[:300]
                wrong += 1
    induce = [(o.job, o.report) for o in outcomes if o.error is None and o.job.check == "induce"]
    by_key = {o.job.key: o for o in outcomes}
    for key, problem in checks.check_radius_pairs(induce):
        o = by_key[key]
        if o.error is None:
            o.error = "check failed: " + problem
            wrong += 1
    return wrong


def tail(times, completed):
    """(value, percentile) of one pass: the highest percentile with at least
    ten jobs beyond it, while that lies above the median (21 jobs or more);
    below that, the slowest job that completed (percentile 100), since the
    failed ones all read the cap."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return max(completed or times), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_plain(workload, seed, seconds, executor, digests):
    """Returns the outcomes, and the charged time, median job and tail of
    every pass, scaled to the reference host speed, and the unscaled charged
    time of every pass.

    The tail is taken per pass: over a whole run of thousands of short
    jobs, the eleventh-slowest job is one that a host stall happened to
    hit, not a slow job of the program."""
    outcomes, pass_times, pass_p50s, pass_tails, raw_times = [], [], [], [], []
    wrong = 0
    started = time.perf_counter()
    for pass_no in range(workload.passes(seconds)):
        if time.perf_counter() - started > 2 * seconds:
            break  # a far slower machine: keep the run inside its time limit
        jobs = workload.draw(seed, pass_no)
        executor.prepare(jobs)
        done, scales = [], []
        before = hostspeed.sample()
        for job in jobs:
            during = hostspeed.During()
            done.append(Outcome(job, *executor.run(job, during)))
            after = hostspeed.sample()
            scales.append(hostspeed.factor([before, *during.samples, after]))
            before = after
        wrong += check_pass(done, digests)
        for o in done:
            o.report = None  # checked; keep the heap small for later jobs
        outcomes += done
        raw_times.append(sum(o.seconds if o.error is None else workload.cap_s for o in done))
        charged = [o.seconds * f if o.error is None else workload.cap_s for o, f in zip(done, scales)]
        pass_times.append(sum(charged))
        pass_p50s.append(statistics.median(charged))
        pass_tails.append(tail(charged, [c for o, c in zip(done, charged) if o.error is None]))
    return outcomes, pass_times, pass_p50s, pass_tails, raw_times, wrong


def run_traced(workload, seed, executor, digests, spans_path):
    import checks
    from tracing import Tracer

    tracer = Tracer()
    jobs = workload.draw(seed, 0)
    executor.prepare(jobs)
    plain, traced_s, plain_s, mismatched = [], 0.0, 0.0, 0
    for i, job in enumerate(jobs):
        results = {}
        # alternate which run goes first, so neither side always runs warm
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.begin_job(i)
                try:
                    results[traced] = executor.run(job)
                finally:
                    tracer.uninstall()
                    tracer.end_job()
            else:
                results[traced] = executor.run(job)
        (ps, prep, perr), (ts, trep, terr) = results[False], results[True]
        plain.append(Outcome(job, ps, prep, perr))
        plain_s += ps
        traced_s += ts
        same = (perr is None) == (terr is None) and (
            perr is not None or checks.canonical(prep) == checks.canonical(trep)
        )
        if not same:
            mismatched += 1
    wrong = check_pass(plain, digests) + mismatched
    tracer.write_spans(spans_path)
    return plain, layer_metrics(tracer, traced_s / plain_s), wrong


PER_LAYER = [
    # (metric, unit, source)
    ("linalg.symbolic_rank.calls", "count", ("calls", "linalg.symbolic_rank")),
    ("linalg.symbolic_rank.self_s", "s", ("self", "linalg.symbolic_rank")),
    ("linalg.symbolic_rank.rows", "count", ("extra", "linalg.symbolic_rank.rows")),
    ("linalg.symbolic_rank.cols", "count", ("extra", "linalg.symbolic_rank.cols")),
    ("linalg.symbolic_rank.terms_in", "count", ("extra", "linalg.symbolic_rank.terms_in")),
    ("linalg.symbolic_rank.rank_per_row", "1", ("ratio", "linalg.symbolic_rank.rank", "linalg.symbolic_rank.rows")),
    ("scalars.Poly.exact_div.calls", "count", ("calls", "scalars.Poly.exact_div")),
    ("scalars.Poly.exact_div.terms", "count", ("extra", "scalars.Poly.exact_div.terms")),
    ("scalars.Poly.exact_div.busy_s", "s", ("busy", "scalars.Poly.exact_div")),
    ("scalars.Poly.mul.calls", "count", ("calls", "scalars.Poly.mul")),
    ("induced.dims_at.self_s", "s", ("self", "induced.dims_at")),
    ("induced.basis_at.self_s", "s", ("self", "induced.basis_at")),
    ("induced.quotient_dims.total_s", "s", ("total", "induced.quotient_dims")),
    ("induced.memo_entries", "count", ("memo",)),
    ("classical.find_singular.self_s", "s", ("self", "classical.find_singular")),
    ("linalg.det.calls", "count", ("calls", "linalg.det")),
    ("linalg.det.self_s", "s", ("self", "linalg.det")),
    ("scalars.gcd.calls", "count", ("calls", "scalars.gcd")),
    ("scalars.gcd.busy_s", "s", ("busy", "scalars.gcd")),
    ("classical.raising_rows.self_s", "s", ("self", "classical.raising_rows")),
    ("linalg.kernel_basis.calls", "count", ("calls", "linalg.kernel_basis")),
    ("linalg.kernel_basis.self_s", "s", ("self", "linalg.kernel_basis")),
    ("linalg.Echelon.add_row.calls", "count", ("calls", "linalg.Echelon.add_row")),
    ("linalg.Echelon.add_row.self_s", "s", ("self", "linalg.Echelon.add_row")),
    ("linalg.Echelon.add_row.grew_ratio", "1", ("ratio", "linalg.Echelon.add_row.grew", "linalg.Echelon.add_row")),
    ("classical.quotient_dims_after_singular.self_s", "s", ("self", "classical.quotient_dims_after_singular")),
    ("algebra.bracket.calls", "count", ("calls", "algebra.bracket")),
    ("algebra.bracket.self_s", "s", ("self", "algebra.bracket")),
    ("algebra.pbw_normalize.calls", "count", ("calls", "algebra.pbw_normalize")),
    ("algebra.pbw_normalize.self_s", "s", ("self", "algebra.pbw_normalize")),
    ("interseries.self_s", "s", ("self", "interseries.")),
    ("classify.classify.calls", "count", ("calls", "classify.classify")),
    ("classify.classify.self_s", "s", ("self", "classify.classify")),
    ("cli.validate.self_s", "s", ("self", "cli.validate")),
    ("cli.run.self_s", "s", ("self", "cli.run")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("scalars.Scalar.make.calls", "count", ("calls", "scalars.Scalar.make")),
    ("trace.overhead_ratio", "1", ("overhead",)),
]


def layer_metrics(tracer, overhead):
    self_s, total_s = tracer.layer_totals()
    counts = dict(tracer.calls)
    counts.update(tracer.extra)
    out = {}
    for metric, unit, (kind, *names) in PER_LAYER:
        if kind == "calls":
            value = tracer.calls[names[0]]
        elif kind == "extra":
            value = tracer.extra[names[0]]
        elif kind == "ratio":
            num, den = counts.get(names[0], 0), counts.get(names[1], 0)
            value = num / den if den else 0.0
        elif kind == "self":
            # a name ending in "." sums a whole module's spans
            value = sum(v for k, v in self_s.items() if k == names[0] or (names[0].endswith(".") and k.startswith(names[0])))
        elif kind == "total":
            value = total_s.get(names[0], 0.0)
        elif kind == "busy":
            value = tracer.busy.get(names[0], 0.0)
        elif kind == "memo":
            value = max(tracer.memo_entries, default=0)
        else:
            value = overhead
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gvir", "cli.py")):
        print(f"error: no gvir sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = measure_setup(workload.name, args.seed) if not args.trace else None
    digests = checks.load_digests()
    workdir = os.path.join(HERE, ".work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        executor = Executor(workdir, workload.cap_s)
        if args.trace:
            spans_path = os.path.join(HERE, ".work", f"spans-{workload.name}-{args.seed}.jsonl")
            outcomes, metrics, wrong = run_traced(workload, args.seed, executor, digests, spans_path)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            outcomes, pass_times, pass_p50s, pass_tails, raw_times, wrong = run_plain(
                workload, args.seed, args.seconds, executor, digests
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"failed: {o.job.key}: {o.error}")
    attempted = len(outcomes)
    print(f"workload {workload.name}: {attempted} jobs, {len(failed)} failed, "
          f"fail_ratio {len(failed) / attempted:.6f}, per-job cap {workload.cap_s} s")
    if not args.trace:
        pct = pass_tails[0][1]
        print(f"passes {len(pass_times)}; each time metric is the median over passes; "
              f"job_tail_s is p{pct:.2f} of {len(outcomes) // len(pass_times)} jobs per pass")
        print(f"unscaled pass time: median {statistics.median(raw_times)!r} s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
            "job_p50_s": {"value": statistics.median(pass_p50s), "unit": "s"},
            "job_tail_s": {"value": statistics.median(t for t, _ in pass_tails), "unit": "s"},
            "ok_ratio": {"value": (attempted - len(failed)) / attempted, "unit": "1"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

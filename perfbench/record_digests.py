"""Record the digests that the ``digest`` checks compare against.

Runs every catalogue entry whose check is a digest, once, and writes
perfbench/digests.json.  Run it only at a commit whose reports are trusted:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import checks
import run
import workloads


def needs_digest(job):
    return job.check in ("digest", "pbw") or (job.check == "verma" and "quotient_dims" not in job.expect)


def main():
    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._alarm)
    jobs = {}
    for w in workloads.WORKLOADS.values():
        for job in w.catalogue():
            if needs_digest(job):
                jobs[job.key] = job
    workdir = os.path.join(run.HERE, ".work", "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        executor = run.Executor(workdir, cap_s=600)
        executor.prepare(jobs.values())
        recorded = {}
        for key, job in sorted(jobs.items()):
            _, report, error = executor.run(job)
            if error is not None:
                raise SystemExit(f"{key}: {error}")
            recorded[key] = checks.digest(checks.canonical(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} digests in {os.path.relpath(checks.DIGESTS_PATH, run.ROOT)}")


if __name__ == "__main__":
    main()

"""Host-speed reference: scales measured times to a fixed host speed.

The benchmark runs on shared hosts whose speed moves on two time scales: it
flips between a fast and a slow state every few seconds, and the speed of
those states drifts by up to 2x over minutes (on a 2-core sandbox, the same
pass of ``small-ops`` took 0.17 s in one minute and 0.35 s two minutes
later, with no page faults and no I/O, and an ``induce-generic`` pass 6.2 s
and 8.4 s in runs two minutes apart).  A process cannot avoid this, and a
median over a 20 s run cannot average it out.

So the benchmark also times a reference routine that runs no gvir code, in
the same process: right before and right after every job, and, while a job
runs, every ``EVERY_S`` seconds of process CPU time from a ``SIGPROF``
handler.  The job's time, less the time spent in that handler, is
multiplied by the mean of ``REFERENCE_S / t`` over those samples ``t``, so
it reads as seconds on a host that runs the routine in ``REFERENCE_S``.  A
short job gets the two samples around it; a long one is scaled by the host
speed measured across its whole run, not at its two ends.  A change to gvir
cannot move the routine, so a slower or faster program still moves every
scaled time by the same share as the raw one.

The routine is dict, tuple, str and call work, the mix that the small gvir
jobs spend their time on; of the routines tried, its time tracked theirs
most closely when the host changed speed.
"""

from __future__ import annotations

import signal
import time

# the routine's time (best of SAMPLE_REPEAT) on a 2-core sandbox with
# Python 3.11, in the host's fast state
REFERENCE_S = 0.001
SAMPLE_REPEAT = 2
EVERY_S = 0.1


def _step(a, b):
    return b, a + b


def routine():
    for _ in range(6):
        counts = {}
        for i in range(400):
            key = _step(i % 17, i)
            counts[key] = counts.get(key, 0) + len(str(i))
        sorted(counts.items())


def sample():
    """Best of SAMPLE_REPEAT timings of the routine, in seconds."""
    best = float("inf")
    for _ in range(SAMPLE_REPEAT):
        start = time.perf_counter()
        routine()
        best = min(best, time.perf_counter() - start)
    return best


def factor(samples):
    """The scale for a time measured among these samples."""
    return sum(REFERENCE_S / t for t in samples) / len(samples)


class During:
    """Samples the routine while a job runs, every EVERY_S s of CPU time.

    ``busy_s`` is the time spent sampling, to be taken off the job's time."""

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.busy_s += time.perf_counter() - start

    def arm(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

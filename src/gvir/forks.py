"""Child processes of one call: how many may run, how they fork and stop.

`usable_cpus` counts the processes a computation may spread over.  `Children`
forks them and owns them: signals stay blocked from each fork until the
child's pid is registered, so a signal handler that raises (a job timeout)
cannot lose it, and leaving the `with` block stops every child still running
(SIGKILL) and reaps it (waitpid), so no child outlives the call.  A child
talks to the caller over pipes only, runs its body and leaves through
os._exit; it never returns into the caller's stack.

`induced` forks helpers that rank whole shares of a table, `linalg` forks
peers that share the rows of one large elimination; both go through here.
"""

from __future__ import annotations

import os
import threading


def usable_cpus():
    """CPUs this process may run on, or 1 where work must stay in this
    process: no fork, or a second live thread (forking a threaded process
    can copy a lock that another thread holds)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _signal():
    # imported only by a run that forks, so a single-process run does not
    # pay for the import
    import signal

    return signal


class Children:
    """The children forked inside one `with` block; none outlives it."""

    def __init__(self):
        self.fds = {}  # pid -> the caller's ends of its pipes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # a child that delivered its result is exiting already; any other
        # one is stopped (an error or a timeout in the caller)
        signal = _signal()
        for pid, fds in self.fds.items():
            for fd in fds:
                os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.fds.clear()

    def fork(self, body):
        """Fork a child that runs body(out, inp), out and inp being its
        ends of a pipe to the caller and of one from the caller.  Returns
        the caller's ends: (read end, write end).  An OSError (no pipe, no
        process) leaves nothing behind."""
        signal = _signal()
        mine, theirs = [], []
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            r, w = os.pipe()  # child to caller
            mine.append(r)
            theirs.append(w)
            r, w = os.pipe()  # caller to child
            mine.append(w)
            theirs.append(r)
            pid = os.fork()
            if pid == 0:
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    # no end of another pipe stays open here, so a child
                    # sees the end of its input when the caller is gone
                    for fd in mine + [fd for fds in self.fds.values() for fd in fds]:
                        os.close(fd)
                    body(*theirs)
                finally:
                    os._exit(0)
            self.fds[pid] = mine
        except BaseException:
            for fd in mine:
                os.close(fd)
            raise
        finally:
            for fd in theirs:
                os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return tuple(mine)

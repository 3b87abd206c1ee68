"""Child processes of one call: whether one may run, how it forks and stops.

The rule: a call forks at most one child, so a computation runs in at most
two processes.  `second_cpu` says whether that child may run: not without
fork, inside a child, while this process has a live child (so forks never
nest), with a second live thread, or on one usable CPU.  `Child` forks it
and owns it: signals stay blocked from the fork until the child's pid is
registered, so a signal handler that raises (a job timeout) cannot lose it;
a second fork raises; and leaving the `with` block stops the child if it
still runs (SIGKILL) and reaps it (waitpid), so no child outlives the call.
A child talks to the caller over pipes only, in pickles (`send`, `recv`),
runs its body and leaves through os._exit; it never returns into the
caller's stack.  `induced` forks a helper that ranks a table from its far
end, `linalg` a peer that shares the rows of one large elimination.

The child is pinned off the caller's CPU: Linux keeps a forked child on its
parent's CPU for its first half second or so, where the two share one CPU.
`Child.fork` reads the caller's CPU (`_current_cpu`), and the child narrows
its affinity to the rest of the kernel's set when that holds more than one
CPU; it never widens the set or touches the caller's, and runs unpinned
when there is no CPU to read or the kernel refuses.
"""

from __future__ import annotations

import os
import threading

# whether this process has a child not yet reaped; a forked child holds True
_live = False
# the affinity the kernel holds, which the pin narrows whatever fake set a
# test patches into os.sched_getaffinity for second_cpu
_affinity = getattr(os, "sched_getaffinity", lambda pid: set())


def second_cpu():
    """Whether the one child of a call may run, on a second CPU of this
    process's affinity (see the module docstring).  A second live thread
    rules it out: forking a threaded process can copy a held lock."""
    if _live or threading.active_count() > 1 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) > 1


def send(fd, obj):
    """Write obj, pickled, to the pipe end fd.  pickle is imported here and
    in recv, by runs that fork only, so that other runs do not pay for it."""
    import pickle

    with open(fd, "wb", closefd=False) as pipe:
        pickle.dump(obj, pipe, pickle.HIGHEST_PROTOCOL)


def recv(pipe):
    """The next object `send` wrote to pipe, a binary file open for reading;
    EOFError when the pipe ends before a whole pickle (a writer that died)."""
    import pickle

    try:
        return pickle.load(pipe)
    except pickle.UnpicklingError as exc:
        raise EOFError("truncated pickle") from exc


def _current_cpu(stat="/proc/self/stat"):
    """The CPU this process last ran on (field 39 of stat, counted after the
    last ')', since the command name may hold spaces and ')'), or None."""
    try:
        with open(stat, encoding="ascii", errors="replace") as fh:
            text = fh.read()
        return int(text[text.rindex(")") + 1 :].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _signal():
    # imported only by a run that forks, so a single-process run does not
    # pay for the import
    import signal

    return signal


class Child:
    """The one child forked inside a `with` block; it does not outlive it."""

    def __init__(self):
        self.pid = None
        self.fds = ()  # the caller's ends of its pipes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # a child that delivered its result is exiting already; otherwise
        # it is stopped (an error or a timeout in the caller)
        global _live
        if self.pid is None:
            return
        for fd in self.fds:
            os.close(fd)
        os.kill(self.pid, _signal().SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid, self.fds = None, ()
        _live = False

    def fork(self, body):
        """Fork the child, pinned off the caller's CPU, which runs body(out,
        inp), out and inp being its ends of a pipe to the caller and of one
        from the caller.  Returns the caller's ends: (read end, write end).
        RuntimeError while a child is live or inside one; an OSError (no
        pipe, no process) leaves nothing behind."""
        global _live
        if _live:
            raise RuntimeError("a call forks at most one child, and a child forks none")
        cpu = _current_cpu()
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
                    _live = True
                    try:  # the pin of the module docstring
                        allowed = _affinity(0)
                        if cpu is not None and len(allowed) > 1:
                            os.sched_setaffinity(0, allowed - {cpu})
                    except OSError:
                        pass  # unpinned
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    # the caller's ends close here, so the child sees the
                    # end of its input when the caller is gone
                    for fd in mine:
                        os.close(fd)
                    body(*theirs)
                finally:
                    os._exit(0)
            self.pid, self.fds = pid, tuple(mine)
            _live = True
        except BaseException:
            for fd in mine:
                os.close(fd)
            raise
        finally:
            for fd in theirs:
                os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return self.fds

"""The process rule of `forks`: one child per call, pinned off the caller's
CPU, one codec."""

import os
import pickle
import threading

import pytest

from gvir import forks
from gvir.forks import Child, recv, second_cpu, send


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_second_cpu_is_false_in_a_child_and_while_a_child_lives(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert second_cpu() is True

    def report(out, _):
        send(out, second_cpu())

    with Child() as child:
        assert second_cpu()  # no child yet
        r, _ = child.fork(report)
        with open(r, "rb", closefd=False) as pipe:
            assert recv(pipe) is False  # inside the forked child
        # the child has reported, but it is not reaped until the block ends
        assert not second_cpu()
    assert second_cpu()
    # an error in the block reaps the child too
    with pytest.raises(KeyError):
        with Child() as child:
            child.fork(report)
            assert not second_cpu()
            raise KeyError
    assert second_cpu()
    _no_child_left()
    # one usable CPU, or a second live thread, leaves the work here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert second_cpu() is False
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert second_cpu() is False
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert second_cpu() is True


def test_a_second_fork_in_one_block_raises_and_leaves_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    forks = []
    with pytest.raises(RuntimeError, match="at most one child"):
        with Child() as child:
            forks.append(child.fork(lambda out, inp: None))
            forks.append(child.fork(lambda out, inp: None))
    assert len(forks) == 1
    _no_child_left()
    if before is not None:  # no pipe end stays open
        assert set(os.listdir("/proc/self/fd")) == before
    assert second_cpu()


def test_recv_reads_a_cut_pickle_as_the_end_of_the_pipe():
    data = pickle.dumps({(1, (0,), 2): 3}, pickle.HIGHEST_PROTOCOL)
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        r, w = os.pipe()
        os.write(w, data[:cut])
        os.close(w)
        with open(r, "rb") as pipe:
            with pytest.raises(EOFError):
                recv(pipe)
    r, w = os.pipe()
    send(w, {(1, (0,), 2): 3})
    os.close(w)
    with open(r, "rb") as pipe:
        assert recv(pipe) == {(1, (0,), 2): 3}


# -- the pin -----------------------------------------------------------------

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")


def _allowed_list():
    """This process's affinity as the kernel reports it, from the
    Cpus_allowed_list line of /proc/self/status."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("Cpus_allowed_list:"))
    cpus = set()
    for part in line.split(":", 1)[1].strip().split(","):
        lo, _, hi = part.partition("-")
        cpus.update(range(int(lo), int(hi or lo) + 1))
    return cpus


def _child_affinity(monkeypatch):
    """The CPU that Child.fork read in the caller, and the affinity that its
    child's body reads from /proc/self/status."""
    read, real = [], forks._current_cpu
    monkeypatch.setattr(forks, "_current_cpu", lambda: read.append(real()) or read[-1])

    def report(out, _):
        send(out, _allowed_list())

    with Child() as child:
        r, _ = child.fork(report)
        with open(r, "rb", closefd=False) as pipe:
            got = recv(pipe)
    _no_child_left()
    return read[0], got


@needs_proc
def test_a_child_runs_off_the_callers_cpu(monkeypatch):
    allowed = _allowed_list()
    if len(allowed) < 2:
        pytest.skip("one usable CPU")
    cpu, got = _child_affinity(monkeypatch)
    assert cpu in allowed and got == allowed - {cpu}
    # the caller's set stays as it was
    assert _allowed_list() == os.sched_getaffinity(0) == allowed


@needs_proc
@pytest.mark.parametrize("blocker", ["one-cpu", "no-cpu-read", "refused"])
def test_a_child_keeps_the_callers_set_when_it_cannot_pin(monkeypatch, blocker):
    allowed = os.sched_getaffinity(0)
    if blocker == "one-cpu":
        os.sched_setaffinity(0, {min(allowed)})
    elif blocker == "no-cpu-read":
        monkeypatch.setattr(forks, "_current_cpu", lambda: None)
    else:
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    try:
        caller = _allowed_list()
        assert _child_affinity(monkeypatch)[1] == caller
    finally:
        if blocker == "one-cpu":
            os.sched_setaffinity(0, allowed)
    assert os.sched_getaffinity(0) == allowed


@needs_proc
@pytest.mark.parametrize("fake", [{0, 1, 2}, {0, 1}, {5, 6}])
def test_a_fake_affinity_leaves_the_child_alive_within_the_real_set(monkeypatch, fake):
    # tests patch os.sched_getaffinity to ask for forks; the child narrows
    # the set the kernel holds, never the fake one, so it never widens
    allowed = _allowed_list()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: fake)
    cpu, got = _child_affinity(monkeypatch)
    assert got == (allowed - {cpu} if len(allowed) > 1 else allowed)


def test_the_cpu_is_read_after_the_last_parenthesis(tmp_path):
    tail = " ".join(str(n) for n in range(3, 60))  # field k holds k
    for comm in ("python3", "a b", "x) (y", ") )", "(("):
        stat = tmp_path / "stat"
        stat.write_text(f"4879 ({comm}) {tail}\n")
        assert forks._current_cpu(str(stat)) == 39
    stat.write_text("4879 (a) b c\n")  # too few fields
    assert forks._current_cpu(str(stat)) is None
    stat.write_text("4879 no parenthesis\n")
    assert forks._current_cpu(str(stat)) is None
    assert forks._current_cpu(str(tmp_path / "missing")) is None

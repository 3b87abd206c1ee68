"""The process rule of `forks`: one child per call, one codec."""

import os
import pickle
import threading

import pytest

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

"""The process rule of `forks`: one owner of the CPU count, one codec."""

import os
import pickle

import pytest

from gvir.forks import Children, recv, send, usable_cpus


def test_usable_cpus_is_one_in_a_child_and_while_a_child_lives(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert usable_cpus() == 3

    def report(out, _):
        send(out, usable_cpus())

    with Children() as children:
        assert usable_cpus() == 3  # no child yet
        r, _ = children.fork(report)
        with open(r, "rb", closefd=False) as pipe:
            assert recv(pipe) == 1  # inside the forked child
        # the child has reported, but it is not reaped until the block ends
        assert usable_cpus() == 1
    assert usable_cpus() == 3
    # an error in the block reaps the children too
    with pytest.raises(KeyError):
        with Children() as children:
            children.fork(report)
            assert usable_cpus() == 1
            raise KeyError
    assert usable_cpus() == 3


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

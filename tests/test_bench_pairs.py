"""The pure parts of tools/bench_pairs.py: seed lists, quartiles, the
gain, bound and unresolved verdicts of `summarize` and their summary
line, the busy-CPU mark of a pair, the
calibration of its CPU loop (on a fake clock), the pin of the loop's child
and the recorded state and source size of a checkout (in temporary
directories).  No benchmark process runs."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ok_ratio", "unit": "1", "better": "higher", "bound": 0.001},
    ]
}


def _pairs(parent, change, metric="wall_s"):
    """(parent, change) results holding one metric, with ok_ratio 1 where
    the metric is wall_s and wall_s 1 where it is ok_ratio."""
    other = "ok_ratio" if metric == "wall_s" else "wall_s"

    def result(v):
        return {"metrics": {metric: {"value": v}, other: {"value": 1.0}}}

    return [(result(a), result(b)) for a, b in zip(parent, change)]


def test_parse_seeds_reads_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("101-103,7") == [101, 102, 103, 7]
    assert bench_pairs.parse_seeds("5") == [5]


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    nine = [0.80] * 9 + [1.20]
    m = bench_pairs.summarize(_pairs(parent, nine), SPEC)["wall_s"]
    assert (m["wins"], m["losses"], m["ties"], m["pairs"]) == (9, 1, 0, 10)
    assert m["gain"]
    eight = [0.80] * 8 + [1.20] * 2
    m = bench_pairs.summarize(_pairs(parent, eight), SPEC)["wall_s"]
    assert (m["wins"], m["losses"]) == (8, 2)
    assert not m["gain"]


def test_ties_count_for_neither_side():
    # eight wins and two ties: 8 of 10 pairs won, short of nine tenths
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    change = [0.80] * 8 + parent[8:]
    m = bench_pairs.summarize(_pairs(parent, change), SPEC)["wall_s"]
    assert (m["wins"], m["losses"], m["ties"]) == (8, 0, 2)
    assert not m["gain"]


def test_gain_needs_a_shift_beyond_the_parent_iqr():
    # every pair won, but the medians differ by less than the parent's IQR
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    change = [v - 0.05 for v in parent]
    m = bench_pairs.summarize(_pairs(parent, change), SPEC)["wall_s"]
    assert m["wins"] == 10
    assert abs(m["change"]["median"] - m["parent"]["median"]) < m["parent"]["q3"] - m["parent"]["q1"]
    assert not m["gain"]


def test_within_bound_for_a_lower_is_better_metric():
    parent = [1.0] * 10
    m = bench_pairs.summarize(_pairs(parent, [1.2] * 10), SPEC)["wall_s"]
    assert m["relative_shift"] > 0 and m["within_bound"] and not m["gain"]
    m = bench_pairs.summarize(_pairs(parent, [1.3] * 10), SPEC)["wall_s"]
    assert not m["within_bound"]
    m = bench_pairs.summarize(_pairs(parent, [0.5] * 10), SPEC)["wall_s"]
    assert m["within_bound"] and m["gain"]


def test_within_bound_for_ok_ratio_which_is_higher_is_better():
    parent = [1.0] * 10
    m = bench_pairs.summarize(_pairs(parent, [0.9995] * 10, "ok_ratio"), SPEC)["ok_ratio"]
    assert m["within_bound"] and m["wins"] == 0 and m["losses"] == 10
    m = bench_pairs.summarize(_pairs(parent, [0.99] * 10, "ok_ratio"), SPEC)["ok_ratio"]
    assert not m["within_bound"]
    low = [0.5] * 10
    m = bench_pairs.summarize(_pairs(low, [0.6] * 10, "ok_ratio"), SPEC)["ok_ratio"]
    assert m["within_bound"] and m["wins"] == 10 and m["gain"]


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    # the parent's IQR/median is 0.9 / 1.9, over wall_s's bound of 0.25
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    m = bench_pairs.summarize(_pairs(parent, parent[::-1]), SPEC)["wall_s"]
    assert m["parent_spread"] == pytest.approx(0.9 / 1.9) and m["within_bound"] and m["unresolved"]
    # a change run that reads no better than some parent run: still unresolved
    m = bench_pairs.summarize(_pairs(parent, [0.5] * 9 + [1.0]), SPEC)["wall_s"]
    assert m["gain"] and m["unresolved"]
    # every change run better than every parent run resolves it, either way
    m = bench_pairs.summarize(_pairs(parent, [0.9] * 10), SPEC)["wall_s"]
    assert m["gain"] and not m["unresolved"]
    low = [0.5 + 0.1 * i for i in range(10)]
    m = bench_pairs.summarize(_pairs(low, [1.6] * 10, "ok_ratio"), SPEC)["ok_ratio"]
    assert m["parent_spread"] > 0.001 and not m["unresolved"]
    m = bench_pairs.summarize(_pairs(low, [1.4] * 10, "ok_ratio"), SPEC)["ok_ratio"]
    assert m["unresolved"]
    # a spread at or inside the bound is resolved, whatever the runs
    m = bench_pairs.summarize(_pairs([1.0] * 10, [1.2, 0.9] * 5), SPEC)["wall_s"]
    assert m["parent_spread"] == 0 and not m["unresolved"]


def test_summary_line_prints_the_verdicts():
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    m = bench_pairs.summarize(_pairs(parent, parent), SPEC)["wall_s"]
    assert bench_pairs.summary_line("wall_s", m) == (
        "  wall_s       1.9 [1.45, 2.35] -> 1.9 [1.45, 2.35] s  +0.0%  wins 0/10 "
        "ties 10  gain False  within bound True  unresolved True"
    )


def _run(before, after):
    result = {"metrics": {"wall_s": {"value": 1.0}}}
    return {"seed": 3, "first": "parent", "cpu_ratio": [before, after], "parent": result, "change": result}


def test_a_pair_is_busy_when_either_cpu_ratio_exceeds_the_limit():
    assert bench_pairs.BUSY_RATIO == 1.5
    assert not bench_pairs.busy([1.0, 1.1])
    assert not bench_pairs.busy([1.5, 1.5])  # the limit itself is not busy
    assert bench_pairs.busy([1.6, 1.0]) and bench_pairs.busy([1.0, 2.1])


def test_progress_line_marks_a_busy_pair():
    line = bench_pairs.progress("verma", _run(1.04, 1.12))
    assert line == "verma seed 3 (parent first): wall_s 1 -> 1  cpu 2:1 1.04, 1.12"
    assert bench_pairs.progress("verma", _run(1.04, 1.98)).endswith("cpu 2:1 1.04, 1.98  BUSY CPU")


def _fake_loop(monkeypatch, step_s, stalls=()):
    """A CPU loop that advances a fake clock by step_s per step, plus the
    next of stalls (seconds) on each call while they last."""
    now, calls, stalls = [0.0], [], list(stalls)

    def loop(n):
        calls.append(n)
        now[0] += n * step_s + (stalls.pop(0) if stalls else 0.0)

    monkeypatch.setattr(bench_pairs, "_loop", loop)
    return (lambda: now[0]), calls


def test_calibration_times_one_loop_for_at_least_loop_seconds(monkeypatch):
    assert bench_pairs.LOOP_SECONDS == 0.25
    clock, calls = _fake_loop(monkeypatch, 2e-7)  # 0.002 s for the first loop
    n = bench_pairs.calibrate(clock=clock)
    assert calls[-1] == n and len(calls) == 2
    assert 0.25 <= n * 2e-7 < 0.27  # a little past the floor, not double it
    # a stalled first loop makes too small a guess; the calibration loops
    # again until one loop, unstalled, takes the floor
    clock, calls = _fake_loop(monkeypatch, 2e-7, stalls=[0.1])
    n = bench_pairs.calibrate(clock=clock)
    assert calls[-1] == n and len(calls) == 3 and 0.25 <= n * 2e-7 < 0.27
    # a host slower than the floor at the first guess takes it as it is
    clock, calls = _fake_loop(monkeypatch, 1e-4)
    assert bench_pairs.calibrate(clock=clock) == 10_000 and len(calls) == 1


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc")
def test_the_loop_child_runs_off_the_parents_cpu(monkeypatch):
    # the rule of gvir.forks.Child: the child narrows the parent's affinity
    # to its other CPUs, when it holds more than one
    parent, read = os.getpid(), []
    real_cpu = bench_pairs.current_cpu
    monkeypatch.setattr(bench_pairs, "current_cpu", lambda: read.append(real_cpu()) or read[-1])
    r, w = os.pipe()

    def loop(n):
        if os.getpid() != parent:
            os.write(w, json.dumps(sorted(os.sched_getaffinity(0))).encode())

    monkeypatch.setattr(bench_pairs, "_loop", loop)
    bench_pairs.cpu_ratio(1, rounds=1)
    os.close(w)
    with open(r, "rb") as pipe:
        child = set(json.loads(pipe.read()))
    allowed = os.sched_getaffinity(0)
    assert read[0] in allowed
    assert child == (allowed - {read[0]} if len(allowed) > 1 else allowed)


def test_a_plain_directory_records_its_path_and_no_commit(tmp_path):
    state = bench_pairs.checkout_state(str(tmp_path))
    assert state == {"path": str(tmp_path), "commit": None, "dirty": None, "source_lines": None}
    assert bench_pairs.header("parent", state) == f"parent: {tmp_path} (not a git checkout; no src/gvir)"


def test_a_checkout_records_the_line_count_of_its_source(tmp_path):
    src = tmp_path / "src" / "gvir"
    src.mkdir(parents=True)
    assert bench_pairs.source_lines(str(tmp_path)) == 0
    (src / "a.py").write_text("x = 1\ny = 2\n")
    (src / "b.py").write_text("z = 3\nw = 4")  # as `wc -l`: newlines only
    (src / "notes.txt").write_text("not\ncounted\n")
    (src / "sub").mkdir()
    (src / "sub" / "c.py").write_text("not counted\n")
    assert bench_pairs.source_lines(str(tmp_path)) == 3
    state = bench_pairs.checkout_state(str(tmp_path))
    assert state["source_lines"] == 3
    assert bench_pairs.header("change", state) == f"change: {tmp_path} (not a git checkout; src/gvir 3 lines)"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_git_checkout_records_its_commit_and_uncommitted_changes(tmp_path):
    def git(*args, cwd=tmp_path):
        out = subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=cwd, check=True, capture_output=True, text=True,
        )
        return out.stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD")
    state = bench_pairs.checkout_state(str(tmp_path))
    assert state == {"path": str(tmp_path), "commit": head, "dirty": False, "source_lines": None}
    assert bench_pairs.header("change", state) == f"change: {tmp_path} at {head} (clean; no src/gvir)"
    (tmp_path / "a.txt").write_text("b\n")
    state = bench_pairs.checkout_state(str(tmp_path))
    assert state["commit"] == head and state["dirty"] is True
    assert bench_pairs.header("change", state).endswith("(uncommitted changes; no src/gvir)")
    # a directory inside the checkout is not the top of one
    (tmp_path / "sub").mkdir()
    assert bench_pairs.checkout_state(str(tmp_path / "sub"))["commit"] is None


def test_without_git_the_commit_and_changes_are_null(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))  # no git on it
    state = bench_pairs.checkout_state(str(tmp_path))
    assert state == {"path": str(tmp_path), "commit": None, "dirty": None, "source_lines": None}

"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys

import pytest

from gvir.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_VALIDATION, main, validate


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(tmp_path, command):
    return json.loads((tmp_path / f"{command}.json").read_text())


# -- bracket ---------------------------------------------------------------------


def test_bracket_renders_mixed_index_pair(tmp_path, capsys):
    rc = main(["bracket", "d[1,0]", "d[0,1]", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = read_report(tmp_path, "bracket")
    assert report["results"]["rendered"] == "(-g1 + g2)*d[1,1]"
    assert report["results"]["weight"] == [1, 1]
    # stdout carries the same JSON report
    printed = json.loads(capsys.readouterr().out)
    assert printed["results"] == report["results"]


def test_bracket_fires_central_term_on_opposite_pair(tmp_path):
    cfg = write_config(tmp_path, {"x": [1, 0], "y": [-1, 0]})
    rc = main(["bracket", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    results = read_report(tmp_path, "bracket")["results"]
    assert results["d_terms"] == [[[0, 0], "-2*g1"]]
    assert results["c_coeff"] == "1/12*g1^3 - 1/12*g1"


def test_bracket_with_central_element_is_zero(tmp_path):
    rc = main(["bracket", "C", "d[2,-3]", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert read_report(tmp_path, "bracket")["results"]["rendered"] == "0"


# -- verma -----------------------------------------------------------------------


def test_verma_dims_and_csv(tmp_path):
    rc = main(["verma", "--window-L", "4", "--format", "csv", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = read_report(tmp_path, "verma")
    assert report["results"]["dims"] == [1, 1, 2, 3, 5]
    assert report["results"]["singular"][0]["condition"] == "h"
    csv_text = (tmp_path / "verma.csv").read_text()
    assert csv_text.splitlines()[0] == "level,dim"
    assert csv_text.splitlines()[1] == "0,1"
    assert csv_text.splitlines()[-1] == "4,5"


def test_verma_with_bound_h_reports_kernel(tmp_path):
    cfg = write_config(
        tmp_path,
        {"bindings": {"c": 0, "h": 0}, "window": {"L": 2}, "singular_levels": [1]},
    )
    rc = main(["verma", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    results = read_report(tmp_path, "verma")["results"]
    assert results["singular"][0]["kernel_dim"] == 1
    assert "quotient_dims" in results


# -- induce ----------------------------------------------------------------------


def test_induce_level0_row_is_all_ones(tmp_path):
    cfg = write_config(
        tmp_path,
        {"group": {"rank": 2}, "b": [0, 1], "window": {"L": 1, "N": 1}, "format": "csv"},
    )
    rc = main(["induce", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "induce.csv").read_text().splitlines()
    assert lines[0] == "level,y1,dim,stable"
    level0 = [ln for ln in lines[1:] if ln.startswith("0,")]
    assert level0 and all(ln.split(",")[2] == "1" for ln in level0)
    # every windowed table row carries the stability flag column
    assert all(ln.split(",")[3] in ("yes", "no") for ln in lines[1:])
    report = read_report(tmp_path, "induce")
    assert report["stability"]["stable"] == report["stability"]["total"]
    assert report["results"]["support_check"]["verdict"] == "pattern_A"


def test_induce_payload_is_deterministic(tmp_path):
    cfg = write_config(
        tmp_path, {"group": {"rank": 2}, "b": [0, 1], "window": {"L": 1, "N": 1}}
    )
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        rc = main(["induce", "--config", cfg, "--out", str(d)])
        assert rc == EXIT_OK
        report = json.loads((d / "induce.json").read_text())
        report.pop("timing_ms")
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


# -- interseries -------------------------------------------------------------------


def test_interseries_reducible_case(tmp_path):
    cfg = write_config(
        tmp_path,
        {"group": {"rank": 2}, "bindings": {"alpha": [1, 0], "beta": 1}, "seed": 7},
    )
    rc = main(["interseries", "--config", cfg, "--out", str(tmp_path), "--window-N", "2"])
    assert rc == EXIT_OK
    results = read_report(tmp_path, "interseries")["results"]
    assert results["reducible"] is True
    assert results["subquotient"]["kind"] == "submodule_off_zero"
    assert results["subquotient"]["excluded_index"] == [-1, 0]
    hole = [r for r in results["rows"] if r["coords"] == [-1, 0]]
    assert hole[0]["dim"] == 0
    assert results["closure_check"]["ok"] is True


def test_interseries_csv_and_seed_determinism(tmp_path):
    cfg = write_config(tmp_path, {"group": {"rank": 2}, "seed": 11, "format": "csv"})
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["interseries", "--config", cfg, "--out", str(d)]) == EXIT_OK
    ra = json.loads((tmp_path / "a" / "interseries.json").read_text())
    rb = json.loads((tmp_path / "b" / "interseries.json").read_text())
    assert ra["results"] == rb["results"]
    header = (tmp_path / "a" / "interseries.csv").read_text().splitlines()[0]
    assert header == "g1,g2,dim"


# -- classify ----------------------------------------------------------------------


def test_classify_descriptor_file(tmp_path):
    from gvir.classify import descriptor_from_induced
    from gvir.groups import Group
    from gvir.induced import InducedModule, Window
    from gvir.scalars import Context

    mod = InducedModule(Context.of_rank(2), Group.of_rank(2), (0, 1), Window.make(1, 1))
    desc_path = tmp_path / "descriptor.json"
    desc_path.write_text(json.dumps(descriptor_from_induced(mod.quotient_dims()).to_json()))
    rc = main(["classify", str(desc_path), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = read_report(tmp_path, "classify")["results"]["report"]
    assert report["case"] == "induced_type"
    assert report["detected_b"] == [0, 1]
    assert report["detected_G0_basis"] == [[1, 0]]


def test_classify_inline_descriptor_and_malformed(tmp_path):
    descriptor = {
        "group": {"rank": 1},
        "provenance": "external",
        "flags": ["is_Z"],
        "rows": [["h", [-n], d] for n, d in enumerate([1, 1, 2, 3, 5])]
        + [["h", [1], 0], ["h", [2], 0]],
    }
    cfg = write_config(tmp_path, {"descriptor": descriptor})
    rc = main(["classify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert read_report(tmp_path, "classify")["results"]["report"]["case"] == "highest_weight"
    bad = dict(descriptor, provenance="guesswork")
    cfg = write_config(tmp_path, {"descriptor": bad}, name="bad.json")
    assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION


# -- validation and error codes ------------------------------------------------------


def test_validation_diagnostics():
    assert validate("induce", {"group": {"rank": 2}, "b": [2, 0]}) != []
    assert any(
        "not primitive" in d
        for d in validate("induce", {"group": {"rank": 2}, "b": [2, 0]})
    )
    assert any(
        "nothing to induce" in d
        for d in validate(
            "induce", {"group": {"rank": 2}, "b": [0, 1], "window": {"L": 0}}
        )
    )
    assert any(
        "generator names" in d
        for d in validate("interseries", {"group": {"rank": 3, "names": ["a", "b"]}})
    )
    assert any(
        "bad binding" in d
        for d in validate("interseries", {"bindings": {"alpha": "q"}})
    )
    assert any(
        "unknown symbols" in d
        for d in validate("interseries", {"bindings": {"gamma": 1}})
    )
    # a fractional beta is a valid binding; reducibility just comes out false
    assert validate("interseries", {"bindings": {"beta": "1/2"}}) == []


def test_exit_codes(tmp_path):
    cfg = write_config(tmp_path, {"group": {"rank": 2}, "b": [2, 0]})
    assert main(["induce", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert (
        main(["bracket", "d[1,0]", "d[0,1]", "--format", "csv", "--out", str(tmp_path)])
        == EXIT_VALIDATION
    )
    # a singular level outside the truncation is a validation failure
    cfg = write_config(tmp_path, {"window": {"L": 2}, "singular_levels": [9]})
    assert main(["verma", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION
    # a computation failure: this config hits the ExactDivisionError defect
    # pinned in test_induced.test_known_defect_alpha_bound_beta_half
    cfg = write_config(
        tmp_path,
        {"b": [0, 1], "bindings": {"alpha": [1, 0], "beta": "1/2"}, "window": {"L": 2, "N": 1}},
    )
    assert main(["induce", "--config", cfg, "--out", str(tmp_path)]) == EXIT_COMPUTATION
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "artifacts"
    monkeypatch.setenv("GVIR_OUT", str(target))
    rc = main(["verma", "--window-L", "2"])
    assert rc == EXIT_OK
    assert (target / "verma.json").exists()


def test_console_entry_point_runs():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["GVIR_OUT"] = env.get("TMPDIR", "/tmp")
    proc = subprocess.run(
        [sys.executable, "-m", "gvir.cli", "bracket", "d[1,0]", "d[0,1]"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "d[1,1]" in proc.stdout


def _exit_and_stderr(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config, name="case.json")
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    return rc, err


@pytest.mark.parametrize(
    "config, needle",
    [
        ({"group": {"rank": 2}, "b": 5}, "b must be a list of integers"),
        ({"group": {"rank": 2}, "b": [0, True]}, "b must be a list of integers"),
        ({"group": {"rank": 2}, "b": ["0", "1"]}, "b must be a list of integers"),
        ({"group": {"rank": 2}, "b": [0, 1], "window": {"L": True}}, "window L"),
        ({"group": {"rank": 2}, "b": [0, 1], "window": {"N": True}}, "window N"),
        ({"group": {"rank": 2, "names": "ab"}, "b": [0, 1]}, "group names must be a list"),
        ({"group": {"rank": True}, "b": [0]}, "group rank"),
        ({"group": {"rank": 2}, "b": [0, 1], "window": 3}, "window must be an object"),
        ({"group": [2], "b": [0, 1]}, "group must be an object"),
    ],
)
def test_malformed_induce_configs_exit_2_with_diagnostic(tmp_path, capsys, config, needle):
    rc, err = _exit_and_stderr(tmp_path, capsys, "induce", config)
    assert rc == EXIT_VALIDATION
    assert needle in err
    assert "Traceback" not in err


def test_bracket_non_integer_coordinates_exit_2(tmp_path, capsys):
    for x in (["a", 1], [True, 0], [0.5, 1]):
        rc, err = _exit_and_stderr(tmp_path, capsys, "bracket", {"x": x, "y": [0, 1]})
        assert rc == EXIT_VALIDATION
        assert "integer coordinates" in err and "Traceback" not in err


_CLASSIFY_DESCRIPTOR = {
    "group": {"rank": 1},
    "provenance": "external",
    "flags": ["is_Z"],
    "rows": [["h", [-n], d] for n, d in enumerate([1, 1, 2, 3])],
}


@pytest.mark.parametrize(
    "command, config, needle",
    [
        ("interseries", {"trials": "x"}, "trials must be an integer"),
        ("interseries", {"trials": 1.5}, "trials must be an integer"),
        ("interseries", {"trials": True}, "trials must be an integer"),
        ("interseries", {"seed": "x"}, "seed must be an integer"),
        ("interseries", {"seed": 2.0}, "seed must be an integer"),
        ("classify", {"descriptor": _CLASSIFY_DESCRIPTOR, "direction_bound": "x"}, "direction_bound must be an integer"),
        ("classify", {"descriptor": _CLASSIFY_DESCRIPTOR, "direction_bound": False}, "direction_bound must be an integer"),
    ],
)
def test_non_integer_trials_seed_direction_bound_exit_2(tmp_path, capsys, command, config, needle):
    rc, err = _exit_and_stderr(tmp_path, capsys, command, config)
    assert rc == EXIT_VALIDATION
    assert needle in err
    assert "Traceback" not in err and "computation failed" not in err
    # the same keys as integers run
    fixed = dict(config, **{k: 3 for k in ("trials", "seed", "direction_bound") if k in config})
    rc, err = _exit_and_stderr(tmp_path, capsys, command, fixed)
    assert rc == EXIT_OK, err


def test_verma_singular_levels_outside_window_exit_2(tmp_path, capsys):
    rc, err = _exit_and_stderr(
        tmp_path, capsys, "verma", {"window": {"L": 6}, "singular_levels": [9]}
    )
    assert rc == EXIT_VALIDATION
    assert "[9]" in err and "1..6" in err
    # without a window the default L = 6 bounds the range
    rc, err = _exit_and_stderr(tmp_path, capsys, "verma", {"singular_levels": [0, 2]})
    assert rc == EXIT_VALIDATION
    assert "[0]" in err and "1..6" in err
    rc, err = _exit_and_stderr(tmp_path, capsys, "verma", {"singular_levels": [True]})
    assert rc == EXIT_VALIDATION
    assert "singular_levels must be a list of integers" in err
    # the flag overrides the config, and the range follows it
    cfg = write_config(tmp_path, {"window": {"L": 6}, "singular_levels": [3]}, name="ok.json")
    assert main(["verma", "--config", cfg, "--window-L", "2", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "1..2" in capsys.readouterr().err
    assert main(["verma", "--config", cfg, "--window-L", "3", "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("trials", [-3, 0])
def test_trials_below_one_exit_2(tmp_path, capsys, trials):
    # no trial would report a closure check that cannot fail
    rc, err = _exit_and_stderr(tmp_path, capsys, "interseries", {"trials": trials})
    assert rc == EXIT_VALIDATION
    assert f"trials must be >= 1, got {trials}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "interseries.json").exists()
    # one trial is the smallest check that can fail
    rc, err = _exit_and_stderr(tmp_path, capsys, "interseries", {"trials": 1})
    assert rc == EXIT_OK, err
    check = read_report(tmp_path, "interseries")["results"]["closure_check"]
    assert check["trials"] == 1 and check["ok"]


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_artifacts_and_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    rc = main(["bracket", "d[1,0]", "d[0,1]", "--format", "json", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert read_report(tmp_path, "bracket")["results"]["rendered"] == "(-g1 + g2)*d[1,1]"
    cfg = write_config(tmp_path, {"window": {"L": 2}})
    rc = main(["verma", "--config", cfg, "--format", "csv", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "verma.json").exists() and (tmp_path / "verma.csv").exists()
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_0_without_traceback(tmp_path):
    # the reader of the pipe is gone before the CLI writes (gvir ... | head)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gvir.cli", "bracket", "d[1,0]", "d[0,1]", "--out", str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert (tmp_path / "bracket.json").exists()

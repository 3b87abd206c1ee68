"""Tests for the command-line front end."""

import importlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gvir import cli
from gvir.cli import (
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_VALIDATION,
    TABLE_COMMANDS,
    build_parser,
    main,
    validate,
)
from gvir.groups import gadd
from gvir.induced import Window
from gvir.interseries import IntermediateSeriesModule


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


def test_interseries_closure_check_can_fail(tmp_path, capsys, monkeypatch):
    # an action with a nonzero coefficient on every target, the dropped line
    # included, must fail the closure trials of the submodule case
    def broken_act(self, x, y):
        return self.ctx.one(), gadd(x, y)

    monkeypatch.setattr(IntermediateSeriesModule, "act", broken_act)
    config = {"group": {"rank": 2}, "bindings": {"alpha": [1, 0], "beta": 1}}
    rc, err = _exit_and_stderr(tmp_path, capsys, "interseries", config)
    assert rc == EXIT_COMPUTATION
    assert "claimed submodule is not closed" in err


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


def _diagnostics(command, config):
    diagnostics, job = validate(command, config)
    assert (job is None) == bool(diagnostics)
    return diagnostics


def test_validation_diagnostics():
    assert _diagnostics("induce", {"group": {"rank": 2}, "b": [2, 0]}) != []
    assert any(
        "not primitive" in d
        for d in _diagnostics("induce", {"group": {"rank": 2}, "b": [2, 0]})
    )
    assert any(
        "nothing to induce" in d
        for d in _diagnostics(
            "induce", {"group": {"rank": 2}, "b": [0, 1], "window": {"L": 0}}
        )
    )
    assert any(
        "generator names" in d
        for d in _diagnostics("interseries", {"group": {"rank": 3, "names": ["a", "b"]}})
    )
    assert any(
        "bad binding" in d
        for d in _diagnostics("interseries", {"bindings": {"alpha": "q"}})
    )
    assert any(
        "unknown symbols" in d
        for d in _diagnostics("interseries", {"bindings": {"gamma": 1}})
    )
    # a fractional beta is a valid binding; reducibility just comes out false
    assert _diagnostics("interseries", {"bindings": {"beta": "1/2"}}) == []


@pytest.mark.parametrize(
    "config, needle",
    [
        # 317^2 and 47^3 rows, the fewest over the cap at ranks 2 and 3
        ({"window": {"N": 158}}, "window N 158 at rank 2 would report (2N+1)^rank rows, over the cap of 100000"),
        ({"group": {"rank": 3}, "window": {"N": 23}}, "window N 23 at rank 3 would report"),
        ({"group": {"rank": 12}}, "window N 3 at rank 12 would report"),
        ({"window": {"N": 10**4000}}, "at rank 2 would report (2N+1)^rank rows, over the cap of 100000"),
    ],
)
def test_interseries_window_over_the_row_cap_exits_2(tmp_path, capsys, config, needle):
    rc, err = _exit_and_stderr(tmp_path, capsys, "interseries", config)
    assert rc == EXIT_VALIDATION and needle in err, err
    assert "Traceback" not in err and not (tmp_path / "interseries.json").exists()


def test_interseries_windows_under_the_row_cap_validate(tmp_path):
    # rank 2 at N = 100, rank 3 at N = 20 and the largest windows under the
    # cap stay legal; the --window-N flag is checked the same way
    for rank, N in ((2, 100), (3, 20), (2, 157), (3, 22), (10, 1)):
        assert _diagnostics("interseries", {"group": {"rank": rank}, "window": {"N": N}, "out": str(tmp_path)}) == []
    assert cli.interseries_refusal(157, 2) is None and cli.interseries_refusal(158, 2)
    assert main(["interseries", "--window-N", "158", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert not os.listdir(tmp_path)


def test_validate_returns_parsed_values_with_command_defaults(tmp_path):
    out = str(tmp_path)
    _, job = validate("interseries", {"bindings": {"beta": "1/2"}, "out": out})
    assert (job.command, job.fmt, job.out) == ("interseries", "json", out)
    assert job.args["ctx"].binding("beta").value == Fraction(1, 2)
    assert (job.args["radius"], job.args["trials"], job.args["seed"]) == (3, 25, 0)
    assert job.echo == {"bindings": {"beta": "1/2"}}
    _, job = validate("induce", {"b": [0, 1], "window": {"N": 2}, "out": out})
    assert job.args["b"] == (0, 1)
    assert job.args["window"] == Window.make(1, 2)
    assert job.args["group"].rank == job.args["ctx"].rank == 2
    _, job = validate("verma", {"window": {"L": 5}, "out": out})
    assert (job.args["level_cap"], job.args["singular_levels"]) == (5, [1, 2, 3, 4])
    _, job = validate("verma", {"out": out})
    assert job.args["level_cap"] == 6
    _, job = validate("classify", {"descriptor": _CLASSIFY_DESCRIPTOR, "out": out})
    assert job.args["direction_bound"] == 2
    assert job.args["descriptor"].group.rank == 1
    _, job = validate("bracket", {"x": "C", "y": [1, -2], "out": out})
    assert (job.args["x"], job.args["y"]) == (("C", "C", None), ([1, -2], "d", (1, -2)))


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


def _cli_in_fresh_process(*argv, timeout=120):
    """gvir argv run as `python -m gvir.cli` in a new interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["GVIR_OUT"] = env.get("TMPDIR", "/tmp")
    return subprocess.run(
        [sys.executable, "-m", "gvir.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_console_entry_point_runs():
    proc = _cli_in_fresh_process("bracket", "d[1,0]", "d[0,1]")
    assert proc.returncode == 0
    assert "d[1,1]" in proc.stdout


# -- one parser per process ------------------------------------------------------


def _without_timing(report):
    return {key: value for key, value in report.items() if key != "timing_ms"}


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_flags_of_one_run_do_not_reach_the_next(tmp_path):
    cfg = write_config(tmp_path, {"window": {"L": 3}, "bindings": {"c": "1/2"}})
    flagged, plain, fresh = (tmp_path / name for name in ("flagged", "plain", "fresh"))
    flags = ["--window-L", "2", "--format", "csv"]
    assert main(["verma", "--config", cfg, *flags, "--out", str(flagged)]) == EXIT_OK
    assert read_report(flagged, "verma")["results"]["level_cap"] == 2
    assert (flagged / "verma.csv").exists()
    assert main(["verma", "--config", cfg, "--out", str(plain)]) == EXIT_OK
    report = read_report(plain, "verma")
    assert report["results"]["level_cap"] == 3
    assert sorted(os.listdir(plain)) == ["verma.json"]
    # the same config in a new interpreter, whose parser has seen nothing
    proc = _cli_in_fresh_process("verma", "--config", cfg, "--out", str(fresh))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert _without_timing(report) == _without_timing(read_report(fresh, "verma"))


def test_parser_exits_between_runs_change_no_report(tmp_path, capsys):
    argv = ["bracket", "d[2,1]", "d[-1,3]", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    first = read_report(tmp_path, "bracket")
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["bracket", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gvir")
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == read_report(tmp_path, "bracket")
    assert _without_timing(read_report(tmp_path, "bracket")) == _without_timing(first)


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
        ({"b": [0, 1], "window": {"top_radius": "x"}}, "window top_radius must be an integer"),
        ({"b": [0, 1], "window": {"top_radius": True}}, "window top_radius must be an integer"),
        ({"b": [0, 1], "window": {"top_radius": 0}}, "window top_radius must be >= 1"),
        ({"b": [0, 1], "window": {"L": None}}, "window L must be an integer"),
        ({"b": [0, 1], "bindings": {"alpha": {"element": 5}}}, "bad binding for alpha"),
        ({"b": [0, 1], "bindings": {"alpha": {"element": [True, 0]}}}, "bad binding for alpha"),
        ({"b": [0, 1], "bindings": {"alpha": [1.5, 0]}}, "bad binding for alpha"),
        ({"b": [0, 1], "bindings": {"alpha": True}}, "bad binding for alpha"),
        ({"b": [0, 1], "bindings": {"beta": False}}, "bad binding for beta"),
        ([{"b": [0, 1]}], "config must be a JSON object"),
        ({"group": {"rank": 1}, "b": [1]}, "induce needs a group of rank >= 2"),
        ({"group": {"rank": 2, "names": ["x", "x"]}, "b": [0, 1]}, "duplicate symbol names in registry"),
        # names outside the grammar of parsed text would render coefficients
        # that read back as something else
        ({"group": {"rank": 2, "names": ["1x", "y"]}, "b": [0, 1]}, "generator name '1x'"),
        ({"group": {"rank": 2, "names": ["g*1", "g2"]}, "b": [0, 1]}, "generator name 'g*1'"),
        ({"group": {"rank": 2, "names": ["g\u00b2", "g2"]}, "b": [0, 1]}, "generator name 'g\u00b2'"),
        ({"group": {"rank": 2, "names": ["g 1", "g2"]}, "b": [0, 1]}, "generator name 'g 1'"),
    ],
)
def test_malformed_induce_configs_exit_2_with_diagnostic(tmp_path, capsys, config, needle):
    rc, err = _exit_and_stderr(tmp_path, capsys, "induce", config)
    assert rc == EXIT_VALIDATION
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, got",
    [
        (["verma", "stray-arg", "--window-L", "1"], "['stray-arg']"),
        (["interseries", "a", "b"], "['a', 'b']"),
        (["induce", "d[1,0]", "--window-L", "0"], "['d[1,0]']"),
    ],
)
def test_stray_positional_inputs_exit_2(tmp_path, capsys, argv, got):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {argv[0]} takes no positional inputs, got {got}\n"
    assert os.listdir(tmp_path) == []


def test_bracket_non_integer_coordinates_exit_2(tmp_path, capsys):
    for x, needle in (
        (["a", 1], "integer coordinates"),
        ([True, 0], "integer coordinates"),
        ([0.5, 1], "integer coordinates"),
        ("d[1,x]", "cannot parse element 'd[1,x]'"),
        ("d[]", "cannot parse element 'd[]'"),
        # int() takes these; the ASCII grammar of binding strings does not
        ("d[1_0,0]", "cannot parse element 'd[1_0,0]'"),
        ("d[\u0661,0]", "cannot parse element 'd[\u0661,0]'"),
        ("d[0,+\uff13]", "cannot parse element 'd[0,+\uff13]'"),
    ):
        rc, err = _exit_and_stderr(tmp_path, capsys, "bracket", {"x": x, "y": [0, 1]})
        assert rc == EXIT_VALIDATION
        assert needle in err and "Traceback" not in err


def test_bracket_coordinates_allow_a_sign_and_spaces(tmp_path, capsys):
    rc, err = _exit_and_stderr(tmp_path, capsys, "bracket", {"x": "d[ +1, -2 ]", "y": [0, 1]})
    assert rc == EXIT_OK, err


@pytest.mark.parametrize(
    "argv",
    [
        ["verma", "--window-L", "\u0663"],
        ["verma", "--window-L", "1_0"],
        ["induce", "--window-N", "\u0661"],
        ["interseries", "--seed", "1_0"],
        ["interseries", "--seed", "+ 1"],
    ],
)
def test_integer_flags_take_ascii_digits_only(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path)])
    assert err.value.code == EXIT_VALIDATION
    assert f"argument {argv[1]}: invalid ascii_int value: {argv[2]!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # a sign and surrounding spaces are part of the grammar
    assert main(["verma", "--window-L", " +1 ", "--out", str(tmp_path)]) == EXIT_OK


_CLASSIFY_DESCRIPTOR = {
    "group": {"rank": 1},
    "provenance": "external",
    "flags": ["is_Z"],
    "rows": [["h", [-n], d] for n, d in enumerate([1, 1, 2, 3])],
}
# unbounded at rank 2, so every direction bound is searched
_SEARCH_DESCRIPTOR = {
    "group": {"rank": 2},
    "provenance": "external",
    "rows": [["alpha", c, d] for c, d in (([0, 0], 1), ([0, 1], 2), ([1, 0], 1), ([0, -1], 3))],
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
        # a search over no direction is a check that cannot succeed
        ("classify", {"descriptor": _CLASSIFY_DESCRIPTOR, "direction_bound": 0}, "direction_bound must be >= 1, got 0"),
        ("classify", {"descriptor": _CLASSIFY_DESCRIPTOR, "direction_bound": -3}, "direction_bound must be >= 1, got -3"),
        # 101^2 - 1 box vectors, the fewest over the cap: the search itself
        # would take a tenth of a second
        (
            "classify",
            {"descriptor": _SEARCH_DESCRIPTOR, "direction_bound": 50},
            "direction_bound 50 at rank 2 would search (2*bound+1)^rank - 1 directions, over the cap of 10000",
        ),
        (
            "classify",
            {"descriptor": _SEARCH_DESCRIPTOR, "direction_bound": 10**4000},
            "at rank 2 would search (2*bound+1)^rank - 1 directions, over the cap",
        ),
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


def test_over_cap_bound_classifies_a_table_that_is_never_searched(tmp_path, capsys):
    # 5^6 - 1 box vectors at the default bound: over the cap, but a trivial
    # table returns before the search
    trivial = {"group": {"rank": 6}, "provenance": "external", "rows": [["alpha", [0] * 6, 1]]}
    rc, err = _exit_and_stderr(tmp_path, capsys, "classify", {"descriptor": trivial})
    assert rc == EXIT_OK, err
    with open(tmp_path / "classify.json", encoding="utf-8") as fh:
        assert json.load(fh)["results"]["report"]["case"] == "trivial"


@pytest.mark.parametrize(
    "descriptor, needle",
    [
        (dict(_CLASSIFY_DESCRIPTOR, rows=[["alpha", 5, 1]]), "needs integer coordinates"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[["alpha", [0, "a"], 1]]), "needs integer coordinates"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[["h", [True], 1]]), "needs integer coordinates"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[["h", [0, 1], 1]]), "wrong length for rank 1"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[["h", [0], True]]), "nonnegative integer"),
        (dict(_CLASSIFY_DESCRIPTOR, group={"rank": 2, "names": 5}, flags=[]), "group names must be a list"),
        (dict(_CLASSIFY_DESCRIPTOR, group={"rank": True}), "group rank must be a positive integer"),
        (dict(_CLASSIFY_DESCRIPTOR, flags=5), "flags must be a list of strings"),
        (dict(_CLASSIFY_DESCRIPTOR, offset_element=5), "offset_element 5 needs integer coordinates"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[[5, [0], 1]]), "needs a string offset symbol"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[[None, [0], 1]]), "needs a string offset symbol"),
        (dict(_CLASSIFY_DESCRIPTOR, rows=[[["x"], [0], 1]]), "needs a string offset symbol"),
        (dict(_CLASSIFY_DESCRIPTOR, offset=5), "offset must be a string, got 5"),
    ],
)
def test_malformed_descriptors_exit_2(tmp_path, capsys, descriptor, needle):
    rc, err = _exit_and_stderr(tmp_path, capsys, "classify", {"descriptor": descriptor})
    assert rc == EXIT_VALIDATION
    assert needle in err
    assert "Traceback" not in err and "computation failed" not in err


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


# -- fuzzing ---------------------------------------------------------------------

# small valid configs of every command (L <= 1, N <= 1), each touching as many
# keys as it can; the fuzz test breaks them at random places
_FUZZ_BASES = (
    ("bracket", {"x": [1, 0], "y": "d[0,-1]", "bindings": {"alpha": [1, 0], "c": 0}}),
    (
        "interseries",
        {
            "group": {"rank": 2, "names": ["a", "b"]},
            "bindings": {"alpha": "1/3", "beta": 1},
            "window": {"N": 1},
            "trials": 2,
            "seed": 5,
            "format": "csv",
        },
    ),
    (
        "induce",
        {
            "group": {"rank": 2},
            "b": [0, 1],
            "bindings": {"alpha": {"element": [1, 0]}, "beta": 0},
            "window": {"L": 1, "N": 1, "top_radius": 2},
        },
    ),
    (
        "verma",
        {
            "bindings": {"c": "1/2", "h": 0},
            "window": {"L": 1},
            "singular_levels": [1],
            "format": "csv",
        },
    ),
    (
        "classify",
        {
            "descriptor": {
                "group": {"rank": 1, "names": ["t"]},
                "provenance": "verma",
                "offset": "h",
                "flags": ["is_Z"],
                "rows": [["h", [-n], d] for n, d in enumerate([1, 1, 2])] + [["h", [1], 0]],
            },
            "direction_bound": 1,
        },
    ),
    (
        "classify",
        {
            "descriptor": {
                "group": {"rank": 2},
                "provenance": "external",
                "offset_element": [0, 0],
                "rows": [["alpha", [i, j], 1] for i in (-1, 0, 1) for j in (-1, 0, 1)],
            },
        },
    ),
)
# bad types, bools, negatives and wrong shapes; no integer above 1, so no
# mutation can make a run slow
_FUZZ_VALUES = (
    None, True, False, -3, -1, 0, 1, 1.5, "x", "", "1/0", "free", "d[1,0]",
    [], [True, 0], [0, "a"], [[0]], [-1, 1], {}, {"element": 5}, {"rank": True},
)
_FUZZ_KEYS = (
    "group", "rank", "names", "bindings", "alpha", "beta", "element", "window",
    "L", "N", "top_radius", "b", "x", "trials", "seed", "direction_bound",
    "singular_levels", "format", "out", "descriptor", "rows", "flags",
    "offset_element", "provenance", "schema",
)


def _fuzz_nodes(node, path=()):
    """(path, value) of every node of a JSON value, the root included."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _fuzz_nodes(child, path + (key,))


def _fuzz_mutate(config, rng):
    """config with one to three random replacements, deletions or additions."""
    config = json.loads(json.dumps(config))
    for _ in range(rng.randint(1, 3)):
        path, node = rng.choice(list(_fuzz_nodes(config)))
        value = json.loads(json.dumps(rng.choice(_FUZZ_VALUES)))
        if isinstance(node, dict) and (not path or rng.random() < 0.5):
            node[rng.choice(_FUZZ_KEYS)] = value
            continue
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.25:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return config


def fuzz_cases(count, seed=20260701):
    """count (command, config) pairs: seeded mutations of _FUZZ_BASES."""
    rng = random.Random(seed)
    return [
        (command, _fuzz_mutate(config, rng))
        for command, config in (rng.choice(_FUZZ_BASES) for _ in range(count))
    ]


def test_fuzzed_configs_exit_0_2_or_3_with_a_diagnostic(tmp_path, capsys, monkeypatch):
    # the configs carry their own "out" (no --out flag): relative paths land
    # in tmp_path, and a missing one falls back to GVIR_OUT
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GVIR_OUT", str(tmp_path / "default"))
    for command, config in _FUZZ_BASES:
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg]) == EXIT_OK, capsys.readouterr().err
    codes = {}
    for command, config in fuzz_cases(600):
        cfg = write_config(tmp_path, config)
        case = f"{command} {json.dumps(config)}"
        try:
            rc = main([command, "--config", cfg])
        except Exception as exc:  # any exception escaping main is the failure
            pytest.fail(f"{case} raised {exc!r}")
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTATION), case
        assert "Traceback" not in captured.err, case
        if rc == EXIT_OK:
            assert json.loads(captured.out)["command"] == command, case
        else:
            assert captured.err.startswith(("error: ", "computation failed: ")), case
        codes[rc] = codes.get(rc, 0) + 1
    # the mutations reach both the runs and the refusals
    assert codes.get(EXIT_OK, 0) > 50 and codes.get(EXIT_VALIDATION, 0) > 300, codes


# only values argparse accepts (ints in -2..2, both formats), so each refusal
# comes from validate or main; with no window above 2 the slowest case,
# induce at L = N = 2, takes about a second
_FLAG_VALUES = {
    "--window-L": range(-2, 3),
    "--window-N": range(-2, 3),
    "--seed": range(-2, 3),
    "--format": ("json", "csv"),
}
# the commands that read each flag; every command reads --format
_FLAG_READERS = {
    "--window-L": ("induce", "verma"),
    "--window-N": ("interseries", "induce"),
    "--seed": ("interseries",),
}
# element tokens, junk, and (for classify) the path of a descriptor file
_POSITIONAL_TOKENS = ("d[1,0]", "d[0,-1]", "C", "d[1]", "stray", "descriptor.json")


def _reads(command, flag):
    return command in _FLAG_READERS.get(flag, (command,))


def flag_cases(count, seed=20261018):
    """count gvir argument lists: a _FUZZ_BASES command and config, zero to
    three positional tokens, and each flag of _FLAG_VALUES with probability
    1/2 if the command reads it, else 1/8 (each unread flag is a refusal)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        command, config = rng.choice(_FUZZ_BASES)
        tokens = [rng.choice(_POSITIONAL_TOKENS) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        flags = []
        for flag, values in _FLAG_VALUES.items():
            if rng.random() < (0.5 if _reads(command, flag) else 0.125):
                flags += [flag, str(rng.choice(values))]
        cases.append((command, config, tokens, flags))
    return cases


def test_fuzzed_flags_exit_0_2_or_3_with_a_diagnostic(tmp_path, capsys, monkeypatch):
    # the same contract as the config fuzz, for flags and positional inputs
    # on top of valid configs; all cases share this process's one parser
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GVIR_OUT", str(tmp_path / "default"))
    descriptor = next(config["descriptor"] for command, config in _FUZZ_BASES if command == "classify")
    write_config(tmp_path, descriptor, name="descriptor.json")
    codes = {}
    for command, config, tokens, flags in flag_cases(300):
        cfg = write_config(tmp_path, config)
        argv = [command, *tokens, "--config", cfg, *flags]
        case = f"{' '.join(argv)} {json.dumps(config)}"
        try:
            rc = main(argv)
        except Exception as exc:  # any exception escaping main is the failure
            pytest.fail(f"{case} raised {exc!r}")
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTATION), case
        assert "Traceback" not in captured.err, case
        if rc == EXIT_OK:
            report = json.loads(captured.out)
            assert report["command"] == command, case
            if command == "verma" and "--window-L" in flags:
                assert report["results"]["level_cap"] == int(flags[flags.index("--window-L") + 1]), case
        else:
            assert captured.err.startswith(("error: ", "computation failed: ")), case
        if tokens and command in TABLE_COMMANDS:
            assert rc == EXIT_VALIDATION and "takes no positional inputs" in captured.err, case
        for flag in (f for f in flags[::2] if not _reads(command, f)):
            assert rc == EXIT_VALIDATION and f"error: {flag} does not apply to {command}" in captured.err, case
        codes[rc] = codes.get(rc, 0) + 1
    # the draws reach both the runs and the refusals
    assert codes.get(EXIT_OK, 0) > 30 and codes.get(EXIT_VALIDATION, 0) > 150, codes


@pytest.mark.parametrize(
    "command, inputs, flag",
    [
        (command, inputs, flag)
        for command, inputs in (
            ("bracket", ["d[1,0]", "d[0,1]"]),
            ("interseries", []),
            ("induce", []),
            ("verma", []),
            ("classify", ["descriptor.json"]),
        )
        for flag, readers in _FLAG_READERS.items()
        if command not in readers
    ],
)
def test_unread_flag_exits_2_and_names_it(tmp_path, capsys, monkeypatch, command, inputs, flag):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, _CLASSIFY_DESCRIPTOR, name="descriptor.json")
    out = tmp_path / "out"
    assert main([command, *inputs, flag, "1", "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {flag} does not apply to {command}" in err and "Traceback" not in err
    assert not out.exists()  # refused before the run


def test_verma_refuses_the_flags_it_does_not_read(tmp_path, capsys):
    argv = ["verma", "--window-L", "1", "--out", str(tmp_path)]
    assert main([*argv, "--window-N", "9", "--seed", "4"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: --window-N does not apply to verma; only interseries and induce read it",
        "error: --seed does not apply to verma; only interseries read it",
    ]
    assert not (tmp_path / "verma.json").exists()
    # the flag it reads still runs, and the report echoes no unread value
    assert main(argv) == EXIT_OK
    assert read_report(tmp_path, "verma")["config"] == {"window": {"L": 1}}


@pytest.mark.parametrize(
    "out, needle",
    [
        (5, "out must be a directory path, got 5"),
        (["x"], "out must be a directory path"),
        ("", "out must be a directory path, got ''"),
        ("file", "cannot create output directory file"),
        ("file/sub", "cannot create output directory file/sub"),
    ],
)
def test_unusable_out_exits_2_and_names_it(tmp_path, capsys, monkeypatch, out, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, {"out": out})
    assert main(["interseries", "--config", cfg]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


def test_empty_out_flag_exits_2(tmp_path, capsys, monkeypatch):
    # --out "$DIR" with DIR unset must not write into the current directory
    monkeypatch.chdir(tmp_path)
    assert main(["verma", "--window-L", "1", "--out", ""]) == EXIT_VALIDATION
    assert "out must be a directory path, got ''" in capsys.readouterr().err
    assert not (tmp_path / "verma.json").exists()


def test_unwritable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # root may write anywhere, so the refusal of the file system is simulated
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    rc = main(["verma", "--window-L", "1", "--out", str(tmp_path / "new")])
    assert rc == EXIT_VALIDATION
    assert f"output directory {tmp_path / 'new'} is not writable" in capsys.readouterr().err


def test_report_that_cannot_be_written_exits_2(tmp_path, capsys):
    (tmp_path / "verma.json").mkdir()  # the report path is taken by a directory
    rc = main(["verma", "--window-L", "1", "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"cannot write the report to {tmp_path}" in err and "Traceback" not in err


def test_verma_needs_a_rank_1_group(tmp_path, capsys):
    # verma works over G = Z, so an alpha element binding has one coordinate
    rc, err = _exit_and_stderr(tmp_path, capsys, "verma", {"group": {"rank": 2}, "window": {"L": 1}})
    assert rc == EXIT_VALIDATION and "needs a group of rank 1" in err
    config = {"group": {"rank": 1, "names": ["t"]}, "bindings": {"alpha": [2]}, "window": {"L": 1}}
    rc, err = _exit_and_stderr(tmp_path, capsys, "verma", config)
    assert rc == EXIT_OK, err
    rc, err = _exit_and_stderr(tmp_path, capsys, "verma", dict(config, bindings={"alpha": [1, 0]}))
    assert rc == EXIT_VALIDATION and "alpha element binding needs 1 coordinates" in err


_HUGE = 10**9


@pytest.mark.parametrize(
    "command, config, needle",
    [
        ("verma", {"group": {"rank": _HUGE}}, "verma works over G = Z and needs a group of rank 1"),
        ("induce", {"group": {"rank": _HUGE}, "b": [0, 1]}, f"b needs {_HUGE} coordinates, got 2"),
        (
            "bracket",
            {"group": {"rank": _HUGE}, "x": "d[1,0]", "y": "d[0,1]"},
            f"element 'd[1,0]' needs {_HUGE} coordinates",
        ),
        ("bracket", {"group": {"rank": _HUGE}, "x": [1, 0], "y": "C"}, f"element [1, 0] needs {_HUGE} coordinates"),
        (
            "classify",
            {"descriptor": dict(_CLASSIFY_DESCRIPTOR, group={"rank": _HUGE}, flags=[])},
            f"element (0,) has wrong length for rank {_HUGE}",
        ),
        (
            "classify",
            {"descriptor": dict(_CLASSIFY_DESCRIPTOR, group={"rank": _HUGE}, flags=[], rows=[], offset_element=[0])},
            f"element (0,) has wrong length for rank {_HUGE}",
        ),
        # no coordinates at all: the diagnostics of a small rank, and no group
        ("classify", {"descriptor": dict(_CLASSIFY_DESCRIPTOR, group={"rank": _HUGE}, flags=[], rows=[])}, "cannot classify an empty window"),
        (
            "classify",
            {"descriptor": dict(_CLASSIFY_DESCRIPTOR, group={"rank": _HUGE}, rows=[])},
            f"rank-1 flags contradict a coordinate lattice of rank {_HUGE}",
        ),
        (
            "classify",
            {"descriptor": dict(_CLASSIFY_DESCRIPTOR, group={"rank": _HUGE}, flags=[], rows=[], provenance="x")},
            "unknown provenance 'x'",
        ),
        (
            "interseries",
            {"group": {"rank": _HUGE}},
            f"window N 3 at rank {_HUGE} would report (2N+1)^rank rows, over the cap of 100000",
        ),
    ],
)
def test_rank_mismatch_exits_2_before_building_the_rank(tmp_path, capsys, monkeypatch, command, config, needle):
    # generator names take memory linear in the rank: a rank of 10**9 that
    # the config contradicts must be refused without building any of them
    # (classify builds the descriptor's group in classify)
    built, refused = _refuse_contexts_and_groups(monkeypatch)
    if command == "classify":
        # gvir.classify the module; the package exports the function under its name
        monkeypatch.setattr(importlib.import_module("gvir.classify"), "Group", refused)
    rc, err = _exit_and_stderr(tmp_path, capsys, command, config)
    assert rc == EXIT_VALIDATION and needle in err, err
    assert not built


@pytest.mark.parametrize(
    "descriptor, needle",
    [
        (dict(_CLASSIFY_DESCRIPTOR, rows=[]), "cannot classify an empty window"),
        (dict(_CLASSIFY_DESCRIPTOR, group={"rank": 3}, flags=[], rows=[]), "cannot classify an empty window"),
        (dict(_CLASSIFY_DESCRIPTOR, group={"rank": 3}, rows=[]), "rank-1 flags contradict a coordinate lattice of rank 3"),
        (dict(_CLASSIFY_DESCRIPTOR, flags=[], rows=[], provenance="x"), "unknown provenance 'x'"),
    ],
)
def test_empty_window_exits_2(tmp_path, capsys, descriptor, needle):
    # the diagnostics that the rank-10**9 cases above pin, at ranks built cheaply
    rc, err = _exit_and_stderr(tmp_path, capsys, "classify", {"descriptor": descriptor})
    assert rc == EXIT_VALIDATION and needle in err, err
    assert "Traceback" not in err and "computation failed" not in err


def _refuse_contexts_and_groups(monkeypatch):
    """Make cli's Context and Group raise when built: (the list of attempted
    builds, the raising stand-in)."""
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("built a Context or Group for a refused rank")

    class Refused:
        __new__ = of_rank = staticmethod(refuse)

    monkeypatch.setattr(cli, "Context", Refused)
    monkeypatch.setattr(cli, "Group", Refused)
    return built, Refused


def test_classify_config_builds_no_rank_many_names(tmp_path, capsys, monkeypatch):
    # classify reads only its descriptor, so the config's group rank costs
    # nothing: no Context or Group is built for it
    built, _ = _refuse_contexts_and_groups(monkeypatch)
    config = {"group": {"rank": _HUGE}, "descriptor": _CLASSIFY_DESCRIPTOR}
    started = time.monotonic()
    rc, err = _exit_and_stderr(tmp_path, capsys, "classify", config)
    assert rc == EXIT_OK, err
    assert time.monotonic() - started < 1.0
    assert not built


@pytest.mark.parametrize(
    "bindings, needle",
    [
        ({"beta": [1, 0]}, "beta cannot be bound to a group element"),
        ({"alpha": "x"}, "bad binding for alpha: 'x'"),
        ({"alpha": [1, 0, 0]}, "alpha element binding needs 2 coordinates"),
    ],
)
def test_classify_config_bindings_keep_their_diagnostics(tmp_path, capsys, bindings, needle):
    config = {"bindings": bindings, "descriptor": _CLASSIFY_DESCRIPTOR}
    rc, err = _exit_and_stderr(tmp_path, capsys, "classify", config)
    assert rc == EXIT_VALIDATION and f"error: {needle}" in err, err


@pytest.mark.parametrize(
    "content",
    [
        b'\xff\xfe{"group": {"rank": 1}}',
        b'{"group": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        b"[" * 100000,
        b'{"bindings": {"alpha": ' + b"9" * 5000 + b"}}",
    ],
    ids=["not-utf8", "nested-5000", "nested-100000", "int-5000-digits"],
)
@pytest.mark.parametrize("entry", ["config", "descriptor"])
def test_unreadable_json_exits_2_without_a_traceback(tmp_path, capsys, entry, content):
    # a --config file or a classify descriptor path that is not UTF-8, nests
    # deeper than the JSON decoder recurses, or holds an integer past Python's
    # 4,300-digit conversion limit, is a validation failure
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = ["verma", "--config", str(path)] if entry == "config" else ["classify", str(path)]
    rc = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert f"error: config {path}" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["1e99999999", "1e5000"])
def test_exponent_binding_strings_exit_2_at_once(tmp_path, capsys, spec):
    # the README grammar has no exponents; Fraction alone would build
    # 10**99999999 (a hang) or overflow the digit limit at run time (exit 3).
    # The fresh process bounds a regression's hang by its timeout.
    config = write_config(tmp_path, {"bindings": {"beta": spec}})
    proc = _cli_in_fresh_process("interseries", "--config", config, "--out", str(tmp_path), timeout=20)
    needle = f"error: bad binding for beta: {spec!r}"
    assert proc.returncode == EXIT_VALIDATION and needle in proc.stderr, proc.stderr
    started = time.monotonic()
    rc, err = _exit_and_stderr(tmp_path, capsys, "interseries", {"bindings": {"beta": spec}})
    assert time.monotonic() - started < 1.0
    assert rc == EXIT_VALIDATION and needle in err and "Traceback" not in err

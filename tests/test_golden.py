"""Frozen outputs: CLI reports and PBW normal forms.

tests/golden/cli_reports.json holds a set of CLI configs with the report
each one produced (everything except `timing_ms`, which is a wall time);
tests/golden/pbw_words.json holds seeded PBW words in the benchmark's
shapes (ranks 1 and 2, lengths 2-5, sometimes a C) with `render_pbw` of
their normal form.  Both were recorded before the three PBW straightening
routines were merged into one, and every refactor must reproduce them
byte for byte.

Rerun `PYTHONPATH=src python tests/test_golden.py --record` only for an
intended output change, and record the reason in CHANGES.md.
"""

import json
import os
import random
import sys

import pytest

from gvir.algebra import pbw_normalize, render_pbw
from gvir.cli import EXIT_OK, main
from gvir.groups import Group
from gvir.scalars import Context

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REPORTS = os.path.join(GOLDEN, "cli_reports.json")
WORDS = os.path.join(GOLDEN, "pbw_words.json")


def _halfplane(inside):
    """External rank-2 descriptor over the box of radius 3: dim 1 where
    inside(x, y) holds, else 0."""
    rows = [["alpha", [x, y], int(inside(x, y))] for x in range(-3, 4) for y in range(-3, 4)]
    return {"group": {"rank": 2}, "provenance": "external", "rows": rows}


# name -> (command, config); b = [1, 2] for the alpha = [1, 0], beta = 1/2
# top because b = [0, 1] hits the known ExactDivisionError already at L = 1
CASES = {
    "verma_L5_free": ("verma", {"window": {"L": 5}}),
    "verma_L5_c_half": ("verma", {"bindings": {"c": "1/2"}, "window": {"L": 5}}),
    "verma_L4_kac_point": (
        "verma",
        {"bindings": {"c": "1/2", "h": "-1/16"}, "window": {"L": 4}},
    ),
    "induce_alpha_free_L2_N1": ("induce", {"b": [0, 1], "window": {"L": 2, "N": 1}}),
    "induce_alpha_bound_beta_half_L1": (
        "induce",
        {"b": [1, 2], "bindings": {"alpha": [1, 0], "beta": "1/2"}, "window": {"L": 1}},
    ),
    "induce_reducible_beta_0": (
        "induce",
        {"b": [0, 1], "bindings": {"alpha": [1, 0], "beta": 0}, "window": {"L": 1}},
    ),
    "induce_reducible_beta_1": (
        "induce",
        {"b": [0, 1], "bindings": {"alpha": [1, 0], "beta": 1}, "window": {"L": 1}},
    ),
    "interseries": (
        "interseries",
        {
            "group": {"rank": 2},
            "bindings": {"alpha": "1/3", "beta": "1/2"},
            "window": {"N": 2},
            "seed": 7,
            "trials": 5,
        },
    ),
    "bracket": ("bracket", {"group": {"rank": 2}, "x": [2, -1], "y": [-2, 1]}),
    # three unstable entries at the top radius, so the stability hint is pinned
    "induce_unstable_top_radius_1": (
        "induce",
        {
            "b": [0, 1],
            "bindings": {"alpha": [0, 0], "beta": 1},
            "window": {"L": 2, "N": 1, "top_radius": 1},
        },
    ),
    # the median job of the benchmark's induce-pointwise workload, as it
    # runs there
    "induce_pointwise_reducible_L2": (
        "induce",
        {
            "group": {"rank": 2},
            "b": [0, 1],
            "bindings": {"alpha": [1, 0], "beta": 0},
            "window": {"L": 2, "N": 1},
        },
    ),
    # the unimodularity certificate fails (det = -3) and passes (det = 1)
    "classify_det_minus_3": ("classify", {"descriptor": _halfplane(lambda x, y: x + 2 * y >= 0)}),
    "classify_det_1": ("classify", {"descriptor": _halfplane(lambda x, y: y <= 0)}),
}


def _report(tmp_dir, command, config):
    path = os.path.join(tmp_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    rc = main([command, "--config", path, "--out", tmp_dir])
    assert rc == EXIT_OK
    with open(os.path.join(tmp_dir, f"{command}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    del report["timing_ms"]
    return report


def _words():
    """20 words in the shapes of the benchmark's PBW catalogue."""
    rng = random.Random(20)
    out = []
    for _ in range(20):
        rank = rng.choice((1, 2))
        radius = 3 if rank == 1 else 2
        length = rng.randint(2, 5)
        word = [[rng.randint(-radius, radius) for _ in range(rank)] for _ in range(length)]
        if rng.random() < 0.3:
            word.insert(rng.randrange(length + 1), "C")
        out.append({"rank": rank, "word": word})
    return out


def _render(rank, word):
    ctx, group = Context.of_rank(rank), Group.of_rank(rank)
    items = [w if w == "C" else tuple(w) for w in word]
    return render_pbw(pbw_normalize(ctx, group, items))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path, capsys):
    command, config = CASES[name]
    frozen = _load(REPORTS)[name]
    assert (frozen["command"], frozen["config"]) == (command, config)
    got = _report(str(tmp_path), command, config)
    capsys.readouterr()
    assert got == frozen["report"]


def test_golden_has_no_stale_case():
    assert sorted(_load(REPORTS)) == sorted(CASES)


def test_pbw_renderings_match_golden():
    frozen = _load(WORDS)
    assert len(frozen) == 20
    for entry in frozen:
        assert _render(entry["rank"], entry["word"]) == entry["rendered"], entry["word"]


def _record():
    import contextlib
    import io
    import tempfile

    reports = {}
    for name, (command, config) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            reports[name] = {"command": command, "config": config,
                             "report": _report(tmp, command, config)}
    words = [dict(entry, rendered=_render(entry["rank"], entry["word"])) for entry in _words()]
    os.makedirs(GOLDEN, exist_ok=True)
    for path, data in ((REPORTS, reports), (WORDS, words)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    _record()

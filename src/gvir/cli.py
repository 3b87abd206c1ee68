"""Command-line front end: configuration, dispatch, and artifact output.

Commands
    bracket      evaluate a Lie bracket of basis elements and render it
    interseries  reducibility, sub-quotient, and dimension row of V(alpha, beta, G)
    induce       windowed dimension table of the induced-module quotient
    verma        truncated Verma dimensions and singular-vector conditions
    classify     decide the module case from a JSON dimension-table descriptor

Configuration is a JSON object (see README for the schema); command-line
flags override the matching config keys.  Every run prints a self-describing
JSON report to stdout and writes it under the output directory (flag --out,
else the GVIR_OUT environment variable, else the current directory).  The
report payload is deterministic for a fixed config; only the timing field
varies between runs.

Exit status: 0 success, 2 validation failure (bad config, malformed
descriptor, unusable flags), 3 computation failure.  A reader that closes
stdout early does not change the status: the artifacts are written before
the report is printed, and the broken pipe is silenced.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time

from .algebra import AlgebraElement, bracket as lie_bracket
from .classical import TruncatedVermaModule
from .classify import MalformedDescriptorError, ModuleDescriptor, classify
from .groups import Group, SplitError, box, is_primitive, is_zero
from .induced import InducedModule, Window
from .interseries import IntermediateSeriesModule
from .scalars import Context

RUN_SCHEMA = "gvir.run/1"
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3

TABLE_COMMANDS = ("interseries", "induce", "verma")
VERMA_DEFAULT_L = 6


class ConfigError(ValueError):
    """The configuration cannot be used for the requested command."""


# -- configuration ---------------------------------------------------------------


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return payload


def merge_config(config, args):
    """Command-line flags override the matching config keys."""
    merged = dict(config)
    window = merged.get("window", {})
    if isinstance(window, dict):  # anything else is left to validate
        window = dict(window)
        if args.window_L is not None:
            window["L"] = args.window_L
        if args.window_N is not None:
            window["N"] = args.window_N
        if window:
            merged["window"] = window
    if args.format is not None:
        merged["format"] = args.format
    if args.out is not None:
        merged["out"] = args.out
    if args.seed is not None:
        merged["seed"] = args.seed
    return merged


def _is_int(v):
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(v, int) and not isinstance(v, bool)


def validate(command, config):
    """All diagnostics preventing the run, in a deterministic order."""
    diagnostics = []
    group = config.get("group", {})
    if not isinstance(group, dict):
        diagnostics.append(f"group must be an object, got {group!r}")
        group = {}
    rank = group.get("rank", 2 if command != "verma" else 1)
    if not _is_int(rank) or rank < 1:
        diagnostics.append(f"group rank must be a positive integer, got {rank!r}")
        rank = None
    names = group.get("names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        diagnostics.append(f"group names must be a list of strings, got {names!r}")
        names = None
    if names is not None and rank is not None:
        if len(names) != rank:
            diagnostics.append(f"group needs {rank} generator names, got {len(names)}")
        else:
            missing = [i + 1 for i, n in enumerate(names) if not n]
            if missing:
                diagnostics.append(f"generator names missing at positions {missing}")

    bindings = config.get("bindings", {})
    if not isinstance(bindings, dict):
        diagnostics.append("bindings must be an object")
        bindings = {}
    unknown = sorted(set(bindings) - {"alpha", "beta", "c", "h"})
    if unknown:
        diagnostics.append(f"bindings reference unknown symbols: {unknown}")
    if rank is not None:
        try:
            _build_context(rank, names, bindings)
        except ValueError as exc:
            diagnostics.append(str(exc))

    window = config.get("window", {})
    if not isinstance(window, dict):
        diagnostics.append(f"window must be an object, got {window!r}")
        window = {}
    L = window.get("L")
    N = window.get("N")
    if L is not None and (not _is_int(L) or L < 0):
        diagnostics.append(f"window L must be an integer >= 0, got {L!r}")
        L = None
    if N is not None and (not _is_int(N) or N < 1):
        diagnostics.append(f"window N must be an integer >= 1, got {N!r}")

    for key in ("trials", "seed", "direction_bound"):
        if key in config and not _is_int(config[key]):
            diagnostics.append(f"{key} must be an integer, got {config[key]!r}")
    trials = config.get("trials", 1)
    if _is_int(trials) and trials < 1:
        # no trial at all would report a closure check that cannot fail
        diagnostics.append(f"trials must be >= 1, got {trials!r}")

    fmt = config.get("format", "json")
    if fmt not in ("json", "csv"):
        diagnostics.append(f"format must be json or csv, got {fmt!r}")
    elif fmt == "csv" and command not in TABLE_COMMANDS:
        diagnostics.append(
            f"csv applies to dimension tables only, not to {command}"
        )

    if command == "induce":
        if rank is not None and rank < 2:
            diagnostics.append("induce needs a group of rank >= 2")
        b = config.get("b")
        if b is None:
            diagnostics.append("induce needs a splitting direction b")
        elif not (isinstance(b, list) and all(_is_int(v) for v in b)):
            diagnostics.append(f"b must be a list of integers, got {b!r}")
        elif rank is not None:
            if len(b) != rank:
                diagnostics.append(f"b needs {rank} coordinates, got {len(b)}")
            elif is_zero(tuple(b)) or not is_primitive(tuple(int(v) for v in b)):
                diagnostics.append(f"b {list(b)} is not primitive")
        if L == 0:
            diagnostics.append("window L = 0 leaves nothing to induce")

    if command == "verma" and "singular_levels" in config:
        levels = config["singular_levels"]
        cap = VERMA_DEFAULT_L if L is None else L
        if not (isinstance(levels, list) and all(_is_int(n) for n in levels)):
            diagnostics.append(f"singular_levels must be a list of integers, got {levels!r}")
        else:
            outside = [n for n in levels if not 1 <= n <= cap]
            if outside:
                diagnostics.append(
                    f"singular_levels {outside} lie outside the valid range 1..{cap} (window L = {cap})"
                )

    if command == "bracket":
        for key in ("x", "y"):
            if key not in config:
                diagnostics.append(f"bracket needs input {key}")
                continue
            try:
                _parse_element_spec(config[key], rank or 2)
            except ConfigError as exc:
                diagnostics.append(str(exc))

    if command == "classify" and "descriptor" not in config:
        diagnostics.append("classify needs a descriptor (inline or via file)")

    return diagnostics


def _build_context(rank, names, bindings):
    kw = {k: bindings.get(k) for k in ("alpha", "beta", "c", "h")}
    if names:
        return Context(tuple(str(n) for n in names), **kw)
    return Context.of_rank(rank, **kw)


def _parse_element_spec(spec, rank):
    """Coordinates, "C", or a "d[1,-2]" token -> ("d", coords) | ("C", None)."""
    if isinstance(spec, (list, tuple)):
        if not all(_is_int(v) for v in spec):
            raise ConfigError(f"element {list(spec)} must have integer coordinates")
        coords = tuple(spec)
        if len(coords) != rank:
            raise ConfigError(f"element {list(spec)} needs {rank} coordinates")
        return "d", coords
    if isinstance(spec, str):
        text = spec.strip()
        if text == "C":
            return "C", None
        if text.startswith("d[") and text.endswith("]"):
            try:
                coords = tuple(int(v) for v in text[2:-1].split(","))
            except ValueError as exc:
                raise ConfigError(f"cannot parse element {spec!r}") from exc
            if len(coords) != rank:
                raise ConfigError(f"element {spec!r} needs {rank} coordinates")
            return "d", coords
    raise ConfigError(f"cannot parse element {spec!r} (expected coords, d[...], or C)")


def _binding_echo(ctx):
    out = {}
    for name in ("alpha", "beta", "c", "h"):
        b = ctx.binding(name)
        if b.kind == "free":
            out[name] = "free"
        elif b.kind == "rational":
            out[name] = str(b.value)
        else:
            out[name] = list(b.value)
    return out


# -- command payloads ------------------------------------------------------------


def _window_from(config, default_L, default_N):
    window = config.get("window", {})
    L = window.get("L", default_L)
    N = window.get("N", default_N)
    top = window.get("top_radius")
    return Window.make(L, N, top)


def run_bracket(config):
    rank = config.get("group", {}).get("rank", 2)
    ctx = _build_context(rank, config.get("group", {}).get("names"), config.get("bindings", {}))
    G = Group(ctx.rank, ctx.gen_names)
    elems = {}
    for key in ("x", "y"):
        kind, coords = _parse_element_spec(config[key], rank)
        elems[key] = (
            AlgebraElement.central(ctx, G) if kind == "C" else AlgebraElement.d(ctx, G, coords)
        )
    result = lie_bracket(elems["x"], elems["y"])
    weight = result.weight_of()
    return {
        "x": config["x"] if isinstance(config["x"], str) else list(config["x"]),
        "y": config["y"] if isinstance(config["y"], str) else list(config["y"]),
        "bindings": _binding_echo(ctx),
        "rendered": result.render(),
        "d_terms": [
            [list(coords), str(s)] for coords, s in sorted(result.d_terms.items())
        ],
        "c_coeff": str(result.c_coeff),
        "weight": "mixed" if weight == "mixed" else list(weight),
    }, None


def run_interseries(config, seed):
    rank = config.get("group", {}).get("rank", 2)
    ctx = _build_context(rank, config.get("group", {}).get("names"), config.get("bindings", {}))
    G = Group(ctx.rank, ctx.gen_names)
    module = IntermediateSeriesModule(ctx, G)
    desc = module.subquotient()
    radius = config.get("window", {}).get("N", 3)
    dims = module.dims_row(box(radius, rank), desc)

    rng = random.Random(seed)
    trials = config.get("trials", 25)
    closed = 0
    for _ in range(trials):
        x = tuple(rng.randint(-2, 2) for _ in range(rank))
        y = tuple(rng.randint(-2, 2) for _ in range(rank))
        if desc.excluded is not None and y == desc.excluded:
            continue
        coeff, target = module.act_reduced(x, y, desc)
        if desc.excluded is not None and target == desc.excluded:
            assert coeff.is_zero()
        closed += 1
    payload = {
        "bindings": _binding_echo(ctx),
        "reducible": module.is_reducible(),
        "subquotient": desc.to_json(),
        "radius": radius,
        "rows": [
            {"coords": list(y), "dim": dim} for y, dim in dims
        ],
        "closure_check": {"seed": seed, "trials": closed, "ok": True},
    }
    return payload, _csv_table(
        list(ctx.gen_names) + ["dim"],
        [list(y) + [dim] for y, dim in dims],
    )


def run_induce(config):
    rank = config.get("group", {}).get("rank", 2)
    ctx = _build_context(rank, config.get("group", {}).get("names"), config.get("bindings", {}))
    G = Group(ctx.rank, ctx.gen_names)
    b = tuple(int(v) for v in config["b"])
    window = _window_from(config, default_L=1, default_N=1)
    try:
        module = InducedModule(ctx, G, b, window)
    except SplitError as exc:
        raise ConfigError(str(exc)) from exc
    table = module.quotient_dims()
    payload = table.to_json()
    payload["bindings"] = _binding_echo(ctx)
    unstable = payload["entry_count"] - payload["stable_count"]
    stability = {
        "stable": payload["stable_count"],
        "total": payload["entry_count"],
    }
    if unstable:
        stability["hint"] = (
            f"{unstable} entries changed between N and N+1; increase N for a "
            "stable table"
        )
    rows = [
        [r["level"], *r["coords"], r["dim"], "yes" if r["stable"] else "no"]
        for r in payload["rows"]
    ]
    coord_names = [f"y{i+1}" for i in range(module.g0_rank)]
    return payload, _csv_table(["level", *coord_names, "dim", "stable"], rows), stability


def run_verma(config):
    # always over G = Z; any group spec in the config is ignored
    ctx = _build_context(1, None, config.get("bindings", {}))
    window = config.get("window", {})
    L = window.get("L", VERMA_DEFAULT_L)
    module = TruncatedVermaModule(ctx, L)
    dims = module.dims()
    # the minor gcd of the d_1, d_2 stack is cheap at every level (12 minors
    # at level 6); the cap stays only so that default reports remain
    # byte-identical, and lifting it changes the output for L > 4
    singular_levels = config.get("singular_levels", list(range(1, min(L, 4) + 1)))
    singular = []
    for n in singular_levels:
        rep = module.find_singular(int(n))
        singular.append(
            {
                "level": rep.level,
                "kernel_dim": rep.kernel_dim(),
                "condition": str(rep.conditions[0]),
                "vectors": [
                    [[list(word), str(s)] for word, s in sorted(vec.items())]
                    for vec in rep.vectors
                ],
            }
        )
    payload = {
        "bindings": _binding_echo(ctx),
        "level_cap": L,
        "dims": dims,
        "singular": singular,
    }
    if ctx.binding("c").kind == "rational" and ctx.binding("h").kind == "rational":
        payload["quotient_dims"] = module.quotient_dims_after_singular()
    rows = [[n, d] for n, d in enumerate(dims)]
    return payload, _csv_table(["level", "dim"], rows)


def run_classify(config):
    try:
        descriptor = ModuleDescriptor.from_json(config["descriptor"])
        report = classify(descriptor, direction_bound=config.get("direction_bound", 2))
    except MalformedDescriptorError as exc:
        raise ConfigError(str(exc)) from exc
    return {
        "descriptor": {
            "group": {"rank": descriptor.group.rank, "names": list(descriptor.group.names)},
            "provenance": descriptor.provenance,
            "flags": sorted(descriptor.flags),
            "offset": descriptor.offset,
            "rows": len(descriptor.rows),
        },
        "report": report.to_json(),
    }, None


def _csv_table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# -- driver ------------------------------------------------------------------------


def run(command, config):
    """Dispatch and assemble the run report (no I/O)."""
    started = time.monotonic()
    stability = None
    table = None
    if command == "bracket":
        payload, table = run_bracket(config)
    elif command == "interseries":
        payload, table = run_interseries(config, config.get("seed", 0))
    elif command == "induce":
        payload, table, stability = run_induce(config)
    elif command == "verma":
        payload, table = run_verma(config)
    elif command == "classify":
        payload, table = run_classify(config)
    else:
        raise ConfigError(f"unknown command {command!r}")
    elapsed_ms = int((time.monotonic() - started) * 1000)
    report = {
        "schema": RUN_SCHEMA,
        "command": command,
        "config": _config_echo(config),
        "results": payload,
        "stability": stability,
        "timing_ms": elapsed_ms,
    }
    return report, table


def _config_echo(config):
    echo = {}
    for key in ("group", "bindings", "b", "window", "format", "seed", "trials",
                "singular_levels", "direction_bound"):
        if key in config:
            echo[key] = config[key]
    if "descriptor" in config:
        echo["descriptor"] = "(inline)"
    return echo


def _emit(report, table, command, config):
    """Write the artifacts, then print the report.

    The files come first, so a reader that closes stdout early (gvir ... |
    head) still gets them."""
    text = json.dumps(report, sort_keys=True, indent=2)
    out_dir = config.get("out") or os.environ.get("GVIR_OUT") or "."
    os.makedirs(out_dir, exist_ok=True)
    fmt = config.get("format", "json")
    wrote = []
    json_path = os.path.join(out_dir, f"{command}.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    wrote.append(json_path)
    if fmt == "csv" and table is not None:
        csv_path = os.path.join(out_dir, f"{command}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(table)
        wrote.append(csv_path)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
    return wrote


def _silence_stdout():
    """Point stdout at devnull after the reader closed it, so that the flush
    at interpreter exit raises no second BrokenPipeError (the recipe of the
    Python docs for SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gvir",
        description="Exact computations with generalized Virasoro algebras Vir[G].",
    )
    parser.add_argument("command", choices=["bracket", "interseries", "induce", "verma", "classify"])
    parser.add_argument("inputs", nargs="*", help="bracket: two elements (d[..] or C); classify: descriptor JSON path")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default $GVIR_OUT or .)")
    parser.add_argument("--format", choices=["json", "csv"])
    parser.add_argument("--window-L", type=int, dest="window_L", help="window level cap")
    parser.add_argument("--window-N", type=int, dest="window_N", help="window box radius")
    parser.add_argument("--seed", type=int, help="seed for randomized spot checks")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        config = merge_config(config, args)
        if args.command == "bracket" and args.inputs:
            if len(args.inputs) != 2:
                raise ConfigError("bracket takes exactly two elements")
            config["x"], config["y"] = args.inputs
        if args.command == "classify" and args.inputs:
            if len(args.inputs) != 1:
                raise ConfigError("classify takes one descriptor path")
            config["descriptor"] = load_config(args.inputs[0])
        diagnostics = validate(args.command, config)
        if diagnostics:
            for d in diagnostics:
                print(f"error: {d}", file=sys.stderr)
            return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report, table = run(args.command, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # computation failure: report and use a distinct code
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    _emit(report, table, args.command, config)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

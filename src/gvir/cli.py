"""Command-line front end: configuration, dispatch, and artifact output.

Commands
    bracket      evaluate a Lie bracket of basis elements and render it
    interseries  reducibility, sub-quotient, and dimension row of V(alpha, beta, G)
    induce       windowed dimension table of the induced-module quotient
    verma        truncated Verma dimensions and singular-vector conditions
    classify     decide the module case from a JSON dimension-table descriptor

main(argv) may be called any number of times in one process; the argparse
parser is built once, on the first call, and shared by the later ones.

Configuration is a JSON object (see README for the schema); command-line
flags override the matching config keys.  validate is its one reader: it
checks and defaults every key, and run sees only the parsed values.  Every
run prints a self-describing JSON report to stdout and writes it under the
output directory (flag --out, else the GVIR_OUT environment variable, else
the current directory).  The report payload is deterministic for a fixed
config; only the timing field varies between runs.

Exit status: 0 success, 2 validation failure (bad config, malformed
descriptor, unusable flags or output directory), 3 computation failure.  A
reader that closes stdout early does not change the status: the artifacts
are written before the report is printed, and the broken pipe is silenced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass

from .algebra import AlgebraElement, bracket as lie_bracket
from .classical import TruncatedVermaModule
from .classify import (
    MalformedDescriptorError,
    ModuleDescriptor,
    SearchRefusedError,
    classify,
    search_refusal,
)
from .groups import Group, box, box_exceeds, is_primitive, is_zero
from .induced import InducedModule, Window
from .interseries import IntermediateSeriesModule
from .scalars import SYMBOLS, Context, _parse_binding, ascii_int, is_int, is_list_of

RUN_SCHEMA = "gvir.run/1"
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3

TABLE_COMMANDS = ("interseries", "induce", "verma")
# the flags that only some commands read (by argparse dest); any other
# command refuses them instead of echoing a value it never uses
FLAG_READERS = {
    "window_L": ("induce", "verma"),
    "window_N": ("interseries", "induce"),
    "seed": ("interseries",),
}
VERMA_DEFAULT_L = 6
# the most rows, (2N+1)^rank, that an interseries report may hold: in a fresh
# process on one CPU of a 2-vCPU host (Python 3.11), 0.65 s and 61 MB of peak
# RSS for 40,401 rows (rank 2, N=100), 1.1 s and 99 MB for 68,921 (rank 3,
# N=20) and 1.0 s and 127 MB for 100,489 (rank 2, N=158), with a 9 MB report
MAX_INTERSERIES_ROWS = 100_000


def interseries_refusal(N, rank):
    """Why an interseries window of radius N at this rank is refused, or
    None: its report has (2N+1)^rank rows and may hold at most
    MAX_INTERSERIES_ROWS."""
    if box_exceeds(N, rank, MAX_INTERSERIES_ROWS):
        return (
            f"window N {N} at rank {rank} would report (2N+1)^rank rows, "
            f"over the cap of {MAX_INTERSERIES_ROWS}"
        )
    return None


class ConfigError(ValueError):
    """The configuration cannot be used for the requested command."""


@dataclass(frozen=True)
class Job:
    """One run as validate parsed it; run reads nothing else."""

    command: str
    args: dict  # keyword arguments of the command's run_* function
    fmt: str
    out: str
    echo: dict  # the raw config values the report repeats


# -- configuration ---------------------------------------------------------------


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, > 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to read") from exc
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


def unread_flags(args):
    """A diagnostic for each given flag that args.command does not read."""
    return [
        f"--{dest.replace('_', '-')} does not apply to {args.command}; "
        f"only {' and '.join(readers)} read it"
        for dest, readers in FLAG_READERS.items()
        if getattr(args, dest) is not None and args.command not in readers
    ]


def _integer(value, label, low, error):
    """value if it is an integer >= low (None: any integer), else None after
    reporting it."""
    if not is_int(value):
        error(f"{label} must be an integer, got {value!r}")
    elif low is not None and value < low:
        error(f"{label} must be >= {low}, got {value!r}")
    else:
        return value
    return None


def validate(command, config, refused=()):
    """Read, check and default every config key once: (diagnostics, job).

    The diagnostics come in a deterministic order, after those of refused
    (found before the config was read, such as unread flags); job holds the
    parsed values and is None unless the diagnostics are empty."""
    diagnostics = list(refused)
    error = diagnostics.append

    group = config.get("group", {})
    if not isinstance(group, dict):
        error(f"group must be an object, got {group!r}")
        group = {}
    rank = _integer(group.get("rank", 1 if command == "verma" else 2), "group rank", 1, error)
    names = group.get("names")
    if names is not None and not is_list_of(names, str):
        error(f"group names must be a list of strings, got {names!r}")
        names = None

    window = config.get("window", {})
    if not isinstance(window, dict):
        error(f"window must be an object, got {window!r}")
        window = {}
    L = _integer(window.get("L", VERMA_DEFAULT_L if command == "verma" else 1), "window L", 0, error)
    N = _integer(window.get("N", 3 if command == "interseries" else 1), "window N", 1, error)
    top = window.get("top_radius")  # None: N + L
    if top is not None:
        top = _integer(top, "window top_radius", 1, error)

    # every check of the rank against the config comes first, and no Context
    # is built while one has failed: its generator names take memory linear
    # in the rank, so a huge rank would exhaust it before the diagnostic
    rank_errors = []

    def rank_error(message):
        rank_errors.append(message)
        error(message)

    if names is not None and rank is not None:
        if len(names) != rank:
            rank_error(f"group needs {rank} generator names, got {len(names)}")
        elif not all(names):
            missing = [i + 1 for i, n in enumerate(names) if not n]
            error(f"generator names missing at positions {missing}")
            names = None  # the rest is checked under the default names
    if command == "interseries" and None not in (rank, N) and (refusal := interseries_refusal(N, rank)):
        rank_error(refusal)
    if command == "verma" and rank not in (None, 1):
        rank_error("verma works over G = Z and needs a group of rank 1")
    if command == "induce" and rank is not None and rank < 2:
        rank_error("induce needs a group of rank >= 2")
    elements = {}
    if command == "bracket":
        for key in ("x", "y"):
            if key not in config:
                error(f"bracket needs input {key}")
                continue
            try:
                kind, coords = _parse_element_spec(config[key])
            except ConfigError as exc:
                error(str(exc))
            else:
                if coords is not None and len(coords) != (rank or 2):
                    rank_error(f"element {config[key]!r} needs {rank or 2} coordinates")
                elements[key] = (config[key], kind, coords)
    b = config.get("b")
    if command == "induce":
        if b is None:
            error("induce needs a splitting direction b")
        elif not is_list_of(b, int):
            error(f"b must be a list of integers, got {b!r}")
        elif rank is not None:
            if len(b) != rank:
                rank_error(f"b needs {rank} coordinates, got {len(b)}")
            elif is_zero(tuple(b)) or not is_primitive(tuple(b)):
                error(f"b {b} is not primitive")

    bindings = config.get("bindings", {})
    if not isinstance(bindings, dict):
        error("bindings must be an object")
        bindings = {}
    unknown = sorted(set(bindings) - set(SYMBOLS))
    if unknown:
        error(f"bindings reference unknown symbols: {unknown}")
    ctx = G = None
    if rank is not None and not rank_errors:
        kw = {k: bindings.get(k) for k in SYMBOLS}
        try:
            if command == "classify" and not names:
                # the run reads only the descriptor: the bindings are checked
                # without the rank-many generator names of a Context
                for k in SYMBOLS:
                    _parse_binding(k, kw[k], rank)
            else:
                ctx = Context(tuple(names), **kw) if names else Context.of_rank(rank, **kw)
                G = Group(ctx.rank, ctx.gen_names)
        except ValueError as exc:
            error(str(exc))

    # no trial would report a check that cannot fail; classify's search rule
    # checks the direction bound here and its cap where a search starts
    trials = _integer(config.get("trials", 25), "trials", 1, error)
    seed = _integer(config.get("seed", 0), "seed", None, error)
    direction_bound = _integer(config.get("direction_bound", 2), "direction_bound", None, error)
    if direction_bound is not None and (refusal := search_refusal(direction_bound, 1)):
        error(refusal)

    fmt = config.get("format", "json")
    if fmt not in ("json", "csv"):
        error(f"format must be json or csv, got {fmt!r}")
    elif fmt == "csv" and command not in TABLE_COMMANDS:
        error(f"csv applies to dimension tables only, not to {command}")
    out = config.get("out")
    if out is not None and not (isinstance(out, str) and out):
        error(f"out must be a directory path, got {out!r}")
    out = out or os.environ.get("GVIR_OUT") or "."

    args = None
    if command == "bracket":
        args = {"ctx": ctx, "group": G, **elements}
    elif command == "interseries":
        args = {"ctx": ctx, "group": G, "radius": N, "trials": trials, "seed": seed}
    elif command == "induce":
        if L == 0:
            error("window L = 0 leaves nothing to induce")
        if not diagnostics:
            args = {"ctx": ctx, "group": G, "b": tuple(b), "window": Window.make(L, N, top)}
    elif command == "verma" and L is not None:
        # the minor gcd of the d_1, d_2 stack is cheap at every level (12 minors
        # at level 6); the default cap of 4 stays only so that default reports
        # remain byte-identical, and lifting it changes the output for L > 4
        levels = config.get("singular_levels", list(range(1, min(L, 4) + 1)))
        if not is_list_of(levels, int):
            error(f"singular_levels must be a list of integers, got {levels!r}")
        else:
            outside = [n for n in levels if not 1 <= n <= L]
            if outside:
                error(
                    f"singular_levels {outside} lie outside the valid range 1..{L} (window L = {L})"
                )
        args = {"ctx": ctx, "level_cap": L, "singular_levels": levels}
    elif command == "classify":
        if "descriptor" not in config:
            error("classify needs a descriptor (inline or via file)")
        else:
            try:
                descriptor = ModuleDescriptor.from_json(config["descriptor"])
            except MalformedDescriptorError as exc:
                error(str(exc))
            else:
                args = {"descriptor": descriptor, "direction_bound": direction_bound}

    if not diagnostics:  # the output directory is made only for a run
        try:
            os.makedirs(out, exist_ok=True)
        except (OSError, ValueError) as exc:
            error(f"cannot create output directory {out}: {exc}")
        else:
            if not os.access(out, os.W_OK | os.X_OK):
                error(f"output directory {out} is not writable")
    if diagnostics:
        return diagnostics, None
    return [], Job(command, args, fmt, out, _config_echo(config))


def _parse_element_spec(spec):
    """Coordinates, "C", or a "d[1,-2]" token -> ("d", coords) | ("C", None);
    validate compares the coordinate count with the rank."""
    if isinstance(spec, (list, tuple)):
        if not all(is_int(v) for v in spec):
            raise ConfigError(f"element {list(spec)} must have integer coordinates")
        return "d", tuple(spec)
    if isinstance(spec, str):
        text = spec.strip()
        if text == "C":
            return "C", None
        if text.startswith("d[") and text.endswith("]"):
            try:
                coords = tuple(ascii_int(v) for v in text[2:-1].split(","))
            except ValueError as exc:
                raise ConfigError(f"cannot parse element {spec!r}") from exc
            return "d", coords
    raise ConfigError(f"cannot parse element {spec!r} (expected coords, d[...], or C)")


def _binding_echo(ctx):
    out = {}
    for name in SYMBOLS:
        b = ctx.binding(name)
        if b.kind == "free":
            out[name] = "free"
        elif b.kind == "rational":
            out[name] = str(b.value)
        else:
            out[name] = list(b.value)
    return out


# -- command payloads ------------------------------------------------------------
#
# Each run_* takes the values validate parsed for its command and returns
# (payload, csv table or None, stability or None).


def run_bracket(ctx, group, x, y):
    """x and y are (spec, kind, coords) as _parse_element_spec read them."""

    def element(spec, kind, coords):
        if kind == "C":
            return AlgebraElement.central(ctx, group)
        return AlgebraElement.d(ctx, group, coords)

    result = lie_bracket(element(*x), element(*y))
    weight = result.weight_of()
    return {
        "x": x[0],
        "y": y[0],
        "bindings": _binding_echo(ctx),
        "rendered": result.render(),
        "d_terms": [
            [list(coords), str(s)] for coords, s in sorted(result.d_terms.items())
        ],
        "c_coeff": str(result.c_coeff),
        "weight": "mixed" if weight == "mixed" else list(weight),
    }, None, None


def run_interseries(ctx, group, radius, trials, seed):
    module = IntermediateSeriesModule(ctx, group)
    desc = module.subquotient()
    dims = module.dims_row(box(radius, ctx.rank))

    rng = random.Random(seed)
    closed = 0
    for _ in range(trials):
        x = tuple(rng.randint(-2, 2) for _ in range(ctx.rank))
        y = tuple(rng.randint(-2, 2) for _ in range(ctx.rank))
        if desc.excluded is not None and y == desc.excluded:
            continue
        module.act_reduced(x, y)
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
    ), None


def run_induce(ctx, group, b, window):
    module = InducedModule(ctx, group, b, window)
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


def run_verma(ctx, level_cap, singular_levels):
    module = TruncatedVermaModule(ctx, level_cap)
    dims = module.dims()
    singular = []
    for n in singular_levels:
        rep = module.find_singular(n)
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
        "level_cap": level_cap,
        "dims": dims,
        "singular": singular,
    }
    if ctx.binding("c").kind == "rational" and ctx.binding("h").kind == "rational":
        payload["quotient_dims"] = module.quotient_dims_after_singular()
    rows = [[n, d] for n, d in enumerate(dims)]
    return payload, _csv_table(["level", "dim"], rows), None


def run_classify(descriptor, direction_bound):
    report = classify(descriptor, direction_bound=direction_bound)
    return {
        "descriptor": {
            "group": {"rank": descriptor.group.rank, "names": list(descriptor.group.names)},
            "provenance": descriptor.provenance,
            "flags": sorted(descriptor.flags),
            "offset": descriptor.offset,
            "rows": len(descriptor.rows),
        },
        "report": report.to_json(),
    }, None, None


RUNNERS = {
    "bracket": run_bracket,
    "interseries": run_interseries,
    "induce": run_induce,
    "verma": run_verma,
    "classify": run_classify,
}


def _csv_table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# -- driver ------------------------------------------------------------------------


def run(job):
    """Run a validated job and assemble its report (no I/O)."""
    started = time.monotonic()
    payload, table, stability = RUNNERS[job.command](**job.args)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    report = {
        "schema": RUN_SCHEMA,
        "command": job.command,
        "config": job.echo,
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


def _emit(report, table, job):
    """Write the artifacts, then print the report.

    The files come first, so a reader that closes stdout early (gvir ... |
    head) still gets them."""
    text = json.dumps(report, sort_keys=True, indent=2)
    with open(os.path.join(job.out, f"{job.command}.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    if job.fmt == "csv" and table is not None:
        with open(os.path.join(job.out, f"{job.command}.csv"), "w", encoding="utf-8") as fh:
            fh.write(table)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()


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


@functools.cache
def build_parser():
    """The one parser of this process: parse_args leaves it unchanged and
    returns a fresh namespace each call, so main can share it."""
    parser = argparse.ArgumentParser(
        prog="gvir",
        description="Exact computations with generalized Virasoro algebras Vir[G].",
    )
    parser.add_argument("command", choices=["bracket", "interseries", "induce", "verma", "classify"])
    parser.add_argument("inputs", nargs="*", help="bracket: two elements (d[..] or C); classify: descriptor JSON path")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default $GVIR_OUT or .)")
    parser.add_argument("--format", choices=["json", "csv"])
    parser.add_argument("--window-L", type=ascii_int, dest="window_L", help="window level cap")
    parser.add_argument("--window-N", type=ascii_int, dest="window_N", help="window box radius")
    parser.add_argument("--seed", type=ascii_int, help="seed for randomized spot checks")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    refused = unread_flags(args)
    try:
        config = load_config(args.config) if args.config else {}
        config = merge_config(config, args)
        if args.command == "bracket" and args.inputs:
            if len(args.inputs) != 2:
                raise ConfigError("bracket takes exactly two elements")
            config["x"], config["y"] = args.inputs
        elif args.command == "classify" and args.inputs:
            if len(args.inputs) != 1:
                raise ConfigError("classify takes one descriptor path")
            config["descriptor"] = load_config(args.inputs[0])
        elif args.inputs:
            raise ConfigError(f"{args.command} takes no positional inputs, got {args.inputs!r}")
        diagnostics, job = validate(args.command, config, refused)
    except ConfigError as exc:
        diagnostics = [*refused, str(exc)]
    if diagnostics:
        for d in diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report, table = run(job)
    except (MalformedDescriptorError, SearchRefusedError) as exc:  # classify refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # computation failure: report and use a distinct code
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    try:
        _emit(report, table, job)
    except OSError as exc:
        print(f"error: cannot write the report to {job.out}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

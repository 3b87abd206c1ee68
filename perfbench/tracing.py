"""Spans and counters around the layers of gvir, recorded from outside.

``Tracer.install()`` replaces selected functions and methods of the gvir
modules with wrappers and ``uninstall()`` puts the originals back, so nothing
inside ``src/gvir`` changes.  Three kinds of wrapper:

- span: records (name, start, end, parent span, job id) for every call and
  its self time, the duration minus the time covered by its children;
- timed: counts calls and adds the time of outermost calls to the layer's
  busy time, without keeping a span (these run too often to keep one each);
  the time still counts as covered for the enclosing span;
- counted: counts calls only.

Spans stay in memory and are written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict

_now = time.perf_counter


def _rank_inputs(args):
    rows = args[1]
    cols = set()
    terms = 0
    for row in rows:
        cols.update(row)
        for p in row.values():
            terms += len(p.terms)
    return {"rows": len(rows), "cols": len(cols), "terms_in": terms}


# (module, attribute path, layer name, kind, hook)
TARGETS = [
    ("cli", "main", "cli.main", "span", None),
    ("cli", "validate", "cli.validate", "span", None),
    ("cli", "run", "cli.run", "span", None),
    ("algebra", "bracket", "algebra.bracket", "span", None),
    ("algebra", "pbw_normalize", "algebra.pbw_normalize", "span", None),
    ("classify", "classify", "classify.classify", "span", None),
    ("induced", "InducedModule.__init__", "induced.init", "span", "capture"),
    ("induced", "InducedModule.dims_at", "induced.dims_at", "span", None),
    ("induced", "InducedModule.basis_at", "induced.basis_at", "span", None),
    ("induced", "InducedModule.quotient_dims", "induced.quotient_dims", "span", None),
    ("classical", "TruncatedVermaModule.find_singular", "classical.find_singular", "span", None),
    ("classical", "TruncatedVermaModule.raising_rows", "classical.raising_rows", "span", None),
    (
        "classical",
        "TruncatedVermaModule.quotient_dims_after_singular",
        "classical.quotient_dims_after_singular",
        "span",
        None,
    ),
    ("linalg", "symbolic_rank", "linalg.symbolic_rank", "span", "rank"),
    ("linalg", "det", "linalg.det", "span", None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", "span", None),
    ("linalg", "Echelon.add_row", "linalg.Echelon.add_row", "span", "grew"),
    ("scalars", "Poly.exact_div", "scalars.Poly.exact_div", "timed", "terms"),
    ("scalars", "_gcd_prim", "scalars.gcd", "timed", None),
    ("scalars", "Poly.__mul__", "scalars.Poly.mul", "counted", None),
    ("scalars", "Scalar.make", "scalars.Scalar.make", "counted", None),
]

# every method of the intermediate-series module is one span of the
# "interseries" layer
INTERSERIES_CLASS = "IntermediateSeriesModule"

MEMO_ATTRS = ("_iota0_memo", "_act_memo", "_lmul_memo", "_dims_memo")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job, self time)
        self.stack = []  # open spans: [span index, seconds covered by children]
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.extra = Counter()
        self.job = None
        self.captured = []
        self.memo_entries = []
        self._depth = Counter()  # per timed layer, for outermost-only busy time
        self._timed_depth = 0
        self._patches = []

    # -- wrappers -------------------------------------------------------------------

    def _span(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook == "rank":
                for k, v in _rank_inputs(args).items():
                    tracer.extra[f"{name}.{k}"] += v
            frame = [len(tracer.spans), 0.0]
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.stack.append(frame)
            tracer.spans.append(None)  # reserve the index; children point at it
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                tracer.stack.pop()
                tracer.spans[frame[0]] = (name, start, end, parent, tracer.job, end - start - frame[1])
                if tracer.stack:
                    tracer.stack[-1][1] += end - start
            tracer.calls[name] += 1
            if hook == "rank":
                tracer.extra[f"{name}.rank"] += result
            elif hook == "grew" and result:
                tracer.extra[f"{name}.grew"] += 1
            elif hook == "capture":
                tracer.captured.append(args[0])
            return result

        return wrapper

    def _timed(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if hook == "terms":
                tracer.extra[f"{name}.terms"] += len(args[0].terms)
            outer_layer = tracer._depth[name] == 0
            outer_any = tracer._timed_depth == 0
            tracer._depth[name] += 1
            tracer._timed_depth += 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - start
                tracer._depth[name] -= 1
                tracer._timed_depth -= 1
                if outer_layer:
                    tracer.busy[name] += dt
                if outer_any and tracer.stack:
                    tracer.stack[-1][1] += dt

        return wrapper

    def _counted(self, fn, name, hook):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "gvir" or n.startswith("gvir.")]
        targets = list(TARGETS)
        inter = importlib.import_module("gvir.interseries")
        for attr, value in vars(getattr(inter, INTERSERIES_CLASS)).items():
            if isinstance(value, (types.FunctionType, staticmethod)):
                targets.append(
                    ("interseries", f"{INTERSERIES_CLASS}.{attr}", f"interseries.{attr.strip('_')}", "span", None)
                )
        make = {"span": self._span, "timed": self._timed, "counted": self._counted}
        for modname, path, name, kind, hook in targets:
            mod = importlib.import_module(f"gvir.{modname}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = make[kind](fn, name, hook)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(cls, attr, wrapped)
                self._patches.append((cls, attr, raw))
            else:
                fn = getattr(mod, path)
                wrapped = make[kind](fn, name, hook)
                # rebind every module-level alias, e.g. cli's import of classify
                for m in modules:
                    for alias, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, alias, wrapped)
                            self._patches.append((m, alias, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- jobs ----------------------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self.captured = []

    def end_job(self):
        """Read the induced-module memo tables from outside, then drop them."""
        for module in self.captured:
            self.memo_entries.append(sum(len(getattr(module, a, ())) for a in MEMO_ATTRS))
        self.captured = []
        self.job = None

    # -- results ---------------------------------------------------------------------------

    def layer_totals(self):
        """Self seconds by span name, and seconds of the outermost spans of
        each name (a span nested in one of its own name is not counted twice)."""
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        names = [s[0] for s in self.spans]
        for name, start, end, parent, _job, own in self.spans:
            self_s[name] += own
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                total_s[name] += end - start
        return self_s, total_s

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, own) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job, "self": own}
                    )
                    + "\n"
                )

"""Spans around the public entry points of every ``segreode`` module.

Nothing in the package is edited: ``instrument`` rebinds each public
function in every module namespace that holds it (``segre`` calls
``compose`` through its own binding, so rebinding ``series.compose`` alone
would miss those calls), the ``cli.CHECKS`` table, the series products and
transcendental methods, and the ``FamilyContext`` memo stages.

Each span records its name, start, end and parent index.  Spans stay in
memory; ``Tracer.dump`` writes them out once the run is over.  Self time is
a span's duration minus the time its child spans cover; calls are strictly
nested on one thread, so it is kept with one stack.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

PKG = "segreode"
MODULES = ("coefficients", "series", "ode", "segre", "equiv", "autovec",
           "monodromy", "growth", "cli")

STAGES = ("ode", "family", "hyper", "zero_ode", "zero_hyper", "solutions",
          "chi_tau")

# (class name, method name) -> span name
METHODS = {
    ("TruncSeries1", "__mul__"): "series.mul1",
    ("TruncSeries1", "exp"): "series.exp1",
    ("TruncSeries1", "log"): "series.log1",
    ("TruncSeries1", "pow_frac"): "series.pow_frac1",
    ("TruncSeries2", "__mul__"): "series.mul2",
    ("TruncSeries2", "exp"): "series.exp2",
    ("TruncSeries2", "log"): "series.log2",
    ("TruncSeries2", "pow_frac"): "series.pow_frac2",
    ("TruncSeries2", "substitute_y"): "series.substitute_y",
}


def _cells1(s) -> int:
    return len(s.coeffs)


def _cells2(s) -> int:
    return (s.nx + 1) * (s.ny + 1)


class Tracer:
    """In-memory span recorder with per-name call counts, self time and
    output-cell counts."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.cells: dict = defaultdict(int)
        self._stack: list = []

    def wrap(self, name: str, fn, cells=None):
        spans, stack = self.spans, self._stack
        calls, self_ns, cell_count = self.calls, self.self_ns, self.cells
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent)
                self_ns[name] += duration - frame[1]
                calls[name] += 1
            if cells is not None:
                cell_count[name] += cells(result)
            return result

        return traced

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as JSON lines: one header, then one span each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f'[{index},"{name}",{start},{end},{parent}]\n')


def _public_functions() -> dict:
    """Span name for every public module-level function of the package,
    keyed by the function object, named after the module defining it."""
    names = {}
    for short in MODULES:
        mod = sys.modules[f"{PKG}.{short}"]
        for attr, value in vars(mod).items():
            if (isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                names[value] = f"{short}.{attr}"
    cli = sys.modules[f"{PKG}.cli"]
    for check, fn in cli.CHECKS.items():
        names[fn] = f"cli.check.{check}"
    return names


def instrument(tracer: Tracer) -> None:
    """Rebind the package's public entry points to traced wrappers."""
    for short in MODULES:
        __import__(f"{PKG}.{short}")
    names = _public_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    for mod_name in [PKG] + [f"{PKG}.{s}" for s in MODULES]:
        mod = sys.modules[mod_name]
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    checks = sys.modules[f"{PKG}.cli"].CHECKS
    for check, fn in list(checks.items()):
        checks[check] = wrappers[fn]

    series = sys.modules[f"{PKG}.series"]
    for (cls_name, meth), name in METHODS.items():
        cls = getattr(series, cls_name)
        counter = None
        if meth == "__mul__":
            counter = _cells1 if cls_name == "TruncSeries1" else _cells2
        traced = tracer.wrap(name, vars(cls)[meth], counter)
        setattr(cls, meth, traced)
        if meth == "__mul__":
            cls.__rmul__ = traced

    ctx_cls = sys.modules[f"{PKG}.cli"].FamilyContext
    for stage in STAGES:
        setattr(ctx_cls, stage, tracer.wrap(f"cli.stage.{stage}",
                                            vars(ctx_cls)[stage]))


def track_contexts() -> list:
    """Keep every ``FamilyContext`` the pipeline builds, so that coefficient
    heights can be read from its memo after the timed run."""
    ctx_cls = sys.modules[f"{PKG}.cli"].FamilyContext
    seen: list = []
    original = ctx_cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen.append(self)

    ctx_cls.__init__ = init
    return seen

"""Tracing for the traced benchmark run, installed from outside the package.

A `Tracer` wraps the public functions of each mildsolve module at the names
the calling module looks up at call time (for example ``picard_solve`` in
both ``mildsolve.solver`` and ``mildsolve.cli``).  Each call becomes a
`Span` with its name, start, end, parent span and thread.  Spans are kept in
memory; `layer_metrics` turns the spans of one unit of work into the
per-layer numbers the benchmark reports.

Only the traced run installs wrappers; `Tracer.uninstall` restores every
original binding.  A target that a later version of the package no longer
has is skipped and listed in `Tracer.missing`.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: str
    unit: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- what a span records beyond its timing ------------------------------------

def _solve_info(args, kwargs, result):
    tol = kwargs.get("tol", args[5] if len(args) > 5 else 1e-8)
    return {"solves": 1, "iterations": result.iterations,
            "bound_over_tol": result.a_posteriori_bound / tol}


def _batch_info(args, kwargs, results):
    tol = kwargs.get("tol", args[5] if len(args) > 5 else 1e-8)
    return {"solves": len(results),
            "iterations": sum(r.iterations for r in results),
            "bound_over_tol": max((r.a_posteriori_bound / tol for r in results),
                                  default=0.0)}


def _cover_info(args, kwargs, net):
    cloud = args[0] if args else kwargs["cloud"]
    return {"centers": net.covering_size,
            "censored": int(net.covering_size >= cloud.size)}


def _gamma_info(args, kwargs, table):
    return {"cells": table.n_time_cells * table.n_state_cells,
            "points_checked": table.verification_points}


# (module, attribute path, span name, info extractor).  An attribute path
# "A.b" wraps attribute b of class or dict A inside the module.
TARGETS = [
    ("mildsolve.config", "RunConfig.from_file", "config.from_file", None),
    ("mildsolve.config", "RunConfig.build_semigroup", "config.build", None),
    ("mildsolve.config", "RunConfig.build_fields", "config.build", None),
    ("mildsolve.config", "RunConfig.build_xi0", "config.build", None),
    ("mildsolve.config", "certify_class_constants", "spaces.certify_class_constants", None),
    ("mildsolve.cli", "sample_ball", "controls.sample_ball", None),
    ("mildsolve.reachset", "sample_ball", "controls.sample_ball", None),
    ("mildsolve.cli", "certify_omega_contraction", "operator.certify", None),
    ("mildsolve.cli", "certify_hidden_contraction", "operator.certify", None),
    ("mildsolve.reachset", "certify_omega_contraction", "operator.certify", None),
    ("mildsolve.reachset", "certify_hidden_contraction", "operator.certify", None),
    ("mildsolve.operator", "integral_operator", "operator.integral_operator", None),
    ("mildsolve.reachset", "integral_operator", "operator.integral_operator", None),
    ("mildsolve.solver", "picard_solve", "solver.picard_solve", _solve_info),
    ("mildsolve.cli", "picard_solve", "solver.picard_solve", _solve_info),
    ("mildsolve.reachset", "picard_solve", "solver.picard_solve", _solve_info),
    ("mildsolve.reachset", "solve_batch", "solver.solve_batch", _batch_info),
    ("mildsolve.reachset", "covering_net", "compactness.covering_net", _cover_info),
    ("mildsolve.reachset", "greedy_net", "compactness.greedy_net", None),
    ("mildsolve.reachset", "packing_number", "compactness.packing_number", None),
    ("mildsolve.cli", "sample_reachset", "reachset.sample_reachset", None),
    ("mildsolve.reachset", "sample_reachset", "reachset.sample_reachset", None),
    ("mildsolve.cli", "field_value_cloud", "reachset.field_value_cloud", None),
    ("mildsolve.cli", "compactness_diagnostic", "reachset.compactness_diagnostic", None),
    ("mildsolve.cli", "gamma_approximation", "reachset.gamma_approximation", _gamma_info),
    ("mildsolve.cli", "convolution_compactness_check", "reachset.convolution_check", None),
    ("mildsolve.cli", "counterexample_report", "reachset.counterexample_report", None),
    ("mildsolve.cli", "_COMMANDS.certify", "cli.cmd", None),
    ("mildsolve.cli", "_COMMANDS.solve", "cli.cmd", None),
    ("mildsolve.cli", "_COMMANDS.reachset", "cli.cmd", None),
    ("mildsolve.cli", "_COMMANDS.counterexample", "cli.cmd", None),
    ("mildsolve.cli", "_COMMANDS.gamma", "cli.cmd", None),
]

# Writers whose output bytes are counted, with the position of their path
# argument (no span: their time is cli self time).
WRITERS = [
    ("mildsolve.cli", "_write_json", 0),
    ("mildsolve.cli", "_write_csv", 0),
    ("mildsolve.cli", "control_to_csv", 1),
]


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _resolve(module: str, path: str):
    """(owner, key) for a dotted attribute path inside `module`, or None."""
    owner = importlib.import_module(module)
    *outer, key = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    present = key in owner if isinstance(owner, dict) else key in vars(owner)
    return (owner, key) if present else None


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.unit: int | None = None
        self.bytes_written = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- span recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, info=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        extra = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                extra = info(args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, threading.get_ident(),
                                   self.run_id, self.unit, extra)

    def _adopt(self, parent, fn, *args, **kwargs):
        """Run fn in a pool thread with `parent` as the enclosing span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return wrapper

    def _count_bytes(self, fn, path_arg):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                self.bytes_written += os.path.getsize(args[path_arg])
            return result
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Executor whose tasks keep the submitting thread's open span."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    # -- installing wrappers -------------------------------------------------

    def _patch(self, module, path, make):
        found = _resolve(module, path)
        if found is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, key = found
        raw = _get(owner, key)
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, key, raw))
        _set(owner, key, new)

    def install(self) -> None:
        self.missing = []
        for module, path, name, info in TARGETS:
            self._patch(module, path,
                        lambda fn, name=name, info=info: self._wrap(name, fn, info))
        for module, path, path_arg in WRITERS:
            self._patch(module, path,
                        lambda fn, path_arg=path_arg: self._count_bytes(fn, path_arg))
        self._patch("mildsolve.solver", "ThreadPoolExecutor",
                    self._pool_class)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, raw = self._patches.pop()
            _set(owner, key, raw)

    def records(self) -> list[dict]:
        return [dict(vars(s), duration=s.duration) for s in self.spans if s is not None]


# -- per-layer metrics ----------------------------------------------------------

def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of it covered by the union of its children."""
    covered, reach = 0.0, span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


# Counters that must repeat exactly across runs of the same code and seed.
EXACT_COUNTERS = (
    "operator.apply_count",
    "solver.solve_count",
    "compactness.net_centers",
    "compactness.censored_nets",
    "reachset.gamma_cells",
    "reachset.gamma_points_checked",
)

LAYER_UNITS = {
    "config.load_s": "s",
    "spaces.class_constants_s": "s",
    "controls.sample_s": "s",
    "operator.certify_s": "s",
    "operator.apply_count": "count",
    "operator.apply_s": "s",
    "operator.apply_us_mean": "us",
    "solver.solve_count": "count",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.iterations_mean": "count",
    "solver.apps_used_ratio": "ratio",
    "solver.batch_s": "s",
    "solver.batch_parallelism": "ratio",
    "solver.bound_over_tol_max": "ratio",
    "compactness.cover_s": "s",
    "compactness.cover_calls": "count",
    "compactness.net_centers": "count",
    "compactness.censored_nets": "count",
    "compactness.greedy_s": "s",
    "compactness.packing_s": "s",
    "reachset.sample_s": "s",
    "reachset.diagnostic_self_s": "s",
    "reachset.gamma_s": "s",
    "reachset.gamma_self_s": "s",
    "reachset.gamma_cells": "count",
    "reachset.gamma_points_checked": "count",
    "reachset.convolution_s": "s",
    "reachset.counterexample_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
}


def layer_metrics(spans: list[Span], unit: int, bytes_written: int) -> dict[str, float]:
    """Per-layer numbers for one unit of work.

    `spans` is the tracer's whole list (parents are indices into it); only
    the spans of `unit` are counted.  Times are summed over threads.
    """
    mine = [s for s in spans if s.unit == unit]
    children: dict[int | None, list[Span]] = {}
    for s in mine:
        children.setdefault(s.parent, []).append(s)

    def ancestors(s):
        while s.parent is not None:
            s = spans[s.parent]
            yield s

    def named(name):
        return [s for s in mine if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(_self_time(s, children.get(s.sid, [])) for s in named(name))

    def in_batch(s):
        return any(a.name == "solver.solve_batch" for a in ancestors(s))

    # solve results are read off the outermost solver call that returned them
    results = named("solver.solve_batch") + [
        s for s in named("solver.picard_solve") if not in_batch(s)]
    solves = sum(s.info["solves"] for s in results)
    iterations = sum(s.info["iterations"] for s in results)
    applies = len(named("operator.integral_operator"))
    apply_s = total("operator.integral_operator")
    batch_s = total("solver.solve_batch")
    batched_solve_s = sum(s.duration for s in named("solver.picard_solve") if in_batch(s))
    covers = named("compactness.covering_net")
    gammas = named("reachset.gamma_approximation")
    config_s = sum(s.duration for s in mine if s.name.startswith("config.")
                   and not any(a.name.startswith("config.") for a in ancestors(s)))
    return {
        "config.load_s": config_s,
        "spaces.class_constants_s": total("spaces.certify_class_constants"),
        "controls.sample_s": total("controls.sample_ball"),
        "operator.certify_s": total("operator.certify"),
        "operator.apply_count": applies,
        "operator.apply_s": apply_s,
        "operator.apply_us_mean": 1e6 * apply_s / applies if applies else 0.0,
        "solver.solve_count": solves,
        "solver.solve_s": total("solver.picard_solve"),
        "solver.self_s": self_total("solver.picard_solve"),
        "solver.iterations_mean": iterations / solves if solves else 0.0,
        "solver.apps_used_ratio": iterations / applies if applies else 0.0,
        "solver.batch_s": batch_s,
        "solver.batch_parallelism": batched_solve_s / batch_s if batch_s else 0.0,
        "solver.bound_over_tol_max": max((s.info["bound_over_tol"] for s in results),
                                         default=0.0),
        "compactness.cover_s": total("compactness.covering_net"),
        "compactness.cover_calls": len(covers),
        "compactness.net_centers": sum(s.info["centers"] for s in covers),
        "compactness.censored_nets": sum(s.info["censored"] for s in covers),
        "compactness.greedy_s": total("compactness.greedy_net"),
        "compactness.packing_s": total("compactness.packing_number"),
        "reachset.sample_s": total("reachset.sample_reachset"),
        "reachset.diagnostic_self_s": self_total("reachset.compactness_diagnostic"),
        "reachset.gamma_s": total("reachset.gamma_approximation"),
        "reachset.gamma_self_s": self_total("reachset.gamma_approximation"),
        "reachset.gamma_cells": sum(s.info["cells"] for s in gammas),
        "reachset.gamma_points_checked": sum(s.info["points_checked"] for s in gammas),
        "reachset.convolution_s": total("reachset.convolution_check"),
        "reachset.counterexample_s": total("reachset.counterexample_report"),
        "cli.self_s": self_total("cli.cmd"),
        "cli.bytes_written": bytes_written,
    }

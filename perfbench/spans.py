"""Span recorder for the traced benchmark run.

Wrappers are set on the module attributes that callers look up at run
time, so no file of the package is edited.  Each wrapped call records a
span (name, start, end, parent, op id) in memory; a span's self time is
its duration minus the durations of its direct children, so the self
times of one op add up to the op's root span exactly.  Layer counts are
taken from arguments and returned objects, never from timing.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

# A fitted GARCH alpha below this is reported as a boundary fit.
BOUNDARY_ALPHA = 1e-4

LAYERS = ("cli", "io", "model", "kalman", "garch", "mcd")


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for the op's root
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Holds the spans of a run; ``op`` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a span; ``count(args, kwargs,
        result)`` returns the span's counts, taken after its end time."""
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return wrapper


def _count_fit(args, kwargs, result):
    perm = tuple(result.ordering)
    return {"regressions": [(perm[j], frozenset(perm[:j])) for j in range(1, len(perm))]}


def _count_filter(args, kwargs, result):
    return {"steps": len(result.innovations)}


def _count_garch(args, kwargs, fit):
    return {"nit": fit.iterations, "converged": bool(fit.converged),
            "boundary": fit.params.alpha[0] < BOUNDARY_ALPHA}


def _count_cov_write(args, kwargs, result):
    cov = args[1]
    return {"rows": cov.n * cov.p * cov.p, "bytes": os.path.getsize(args[0])}


def _count_coeff_write(args, kwargs, result):
    n, p, _ = args[1].shape
    return {"rows": n * p * (p - 1) // 2, "bytes": os.path.getsize(args[0])}


def _count_table_write(args, kwargs, result):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def patch_targets():
    """(module, attribute, span name, counter) for every traced call site.

    ``fit_model`` is wrapped both where the CLI looks it up and where
    ``order_by_bic`` does; ``filter_regression`` both where the model calls
    it and where ``tune_state_noise`` calls it.
    """
    from scgarch import cli, io, kalman, model
    return [
        (cli, "fit_model", "model.fit_model", _count_fit),
        (cli, "order_by_bic", "model.order_by_bic", None),
        (model, "fit_model", "model.fit_model", _count_fit),
        (model, "filter_regression", "kalman.filter_regression", _count_filter),
        (kalman, "filter_regression", "kalman.filter_regression", _count_filter),
        (model, "tune_state_noise", "kalman.tune_state_noise", None),
        (model, "garch_fit", "garch.garch_fit", _count_garch),
        (model, "mcd_decompose", "mcd.mcd_decompose", None),
        (io, "read_panel", "io.read_panel", None),
        (io, "write_cov_path", "io.write_cov_path", _count_cov_write),
        (io, "write_coeff_path", "io.write_coeff_path", _count_coeff_write),
        (io, "write_garch_params", "io.write_garch_params", _count_table_write),
        (io, "write_config_echo", "io.write_config_echo", _count_table_write),
    ]


class Patches:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self, recorder: Recorder):
        self._targets = [(mod, attr, recorder.wrap(name, getattr(mod, attr), count))
                         for mod, attr, name, count in patch_targets()]
        self._saved = []

    def __enter__(self):
        for mod, attr, wrapper in self._targets:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False


def self_times(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def op_layer_metrics(spans: list[Span], selfs: list[float], ids: list[int],
                     op_wall: float) -> dict:
    """Per-layer metrics of one op, whose spans are ``spans[k]`` for k in ``ids``."""
    def named(name):
        return [spans[k] for k in ids if spans[k].name == name]

    layer_busy = dict.fromkeys(LAYERS, 0.0)
    for k in ids:
        layer_busy[spans[k].layer] += selfs[k]
    fits = named("model.fit_model")
    regressions = [r for s in fits for r in s.counts["regressions"]]
    filters = named("kalman.filter_regression")
    steps = sum(s.counts["steps"] for s in filters)
    filter_s = sum(s.duration for s in filters)
    garch = named("garch.garch_fit")
    writes = [spans[k] for k in ids if spans[k].name.startswith("io.write_")]
    return {
        "cli.self_s": layer_busy["cli"],
        "io.read_s": sum(s.duration for s in named("io.read_panel")),
        "io.write_s": sum(s.duration for s in writes),
        "io.rows_written": sum(s.counts["rows"] for s in writes),
        "io.bytes_written": sum(s.counts["bytes"] for s in writes),
        "model.fit_calls": len(fits),
        "model.self_s": layer_busy["model"],
        "model.order_s": sum(s.duration for s in named("model.order_by_bic")),
        "model.orderings_scored": sum(
            1 for s in fits
            if s.parent >= 0 and spans[s.parent].name == "model.order_by_bic"),
        "model.regression_reuse": (len(set(regressions)) / len(regressions)
                                   if regressions else 0.0),
        "kalman.filter_calls": len(filters),
        "kalman.steps": steps,
        "kalman.busy_s": layer_busy["kalman"],
        "kalman.us_per_step": 1e6 * filter_s / steps if steps else 0.0,
        "kalman.tune_calls": len(named("kalman.tune_state_noise")),
        "kalman.tune_s": sum(s.duration for s in named("kalman.tune_state_noise")),
        "garch.fit_calls": len(garch),
        "garch.busy_s": layer_busy["garch"],
        "garch.ms_per_fit": 1e3 * layer_busy["garch"] / len(garch) if garch else 0.0,
        "garch.nit": sum(s.counts["nit"] for s in garch),
        "garch.converged_ratio": (sum(s.counts["converged"] for s in garch) / len(garch)
                                  if garch else 0.0),
        "garch.boundary_fits": sum(s.counts["boundary"] for s in garch),
        "mcd.calls": len(named("mcd.mcd_decompose")),
        "mcd.busy_s": layer_busy["mcd"],
        "trace.self_sum_frac": sum(layer_busy.values()) / op_wall,
    }


def per_layer_metrics(recorder: Recorder, op_walls: dict[int, float]) -> dict:
    """Mean over the ops in ``op_walls`` of each op's layer metrics;
    ``op_walls`` maps the id of each successful traced op to its wall time,
    measured outside its root span."""
    selfs = self_times(recorder.spans)
    ids_by_op: dict[int, list[int]] = {}
    for k, span in enumerate(recorder.spans):
        if span.op in op_walls:
            ids_by_op.setdefault(span.op, []).append(k)
    if not ids_by_op:
        raise ValueError("no successful traced op to report layer metrics for")
    rows = [op_layer_metrics(recorder.spans, selfs, ids, op_walls[op])
            for op, ids in ids_by_op.items()]
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}

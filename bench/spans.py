"""Timing shims for the traced run: one span per call at module boundaries.

While installed, the shims replace module attributes of the package and
record, for every call, ``(span id, name id, parent span id, start, end)``.
Spans stay in memory; ``layer_metrics`` reduces them after the call.  A
span's self time is its duration minus the time its child spans cover.

Spans stop at module boundaries.  Flux assembly, the step limiter, the
reactions and the positivity clamp all run inside ``dynamics`` and show
up together as the self time of ``runner.run_to_time``; splitting them
needs spans inside the program.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

import numpy as np

from preytaxis import diagnostics, dynamics, grid, runner

STEPPING = "runner.run_to_time"
RECORD = "diagnostics.record"
MOBILITY = "model.taxis_mobility"
GRID_KERNELS = ("face_gradient_values", "laplacian_values", "divergence_values", "integrate_values")
WRITERS = {
    "diagnostics.write_csv": "diagnostics.write_csv_s",
    "grid.write_snapshot": "grid.write_snapshot_s",
    "runner.write_charts": "runner.write_charts_s",
    "runner.write_manifest": "runner.write_manifest_s",
}

# (module, attribute, span name).  Kernels are patched in both namespaces:
# dynamics imported them by name, and laplacian_values calls the grid ones.
TARGETS = [
    (runner, "run_to_time", STEPPING),
    (diagnostics, "record", RECORD),
    (diagnostics, "write_csv", "diagnostics.write_csv"),
    (runner, "write_snapshot", "grid.write_snapshot"),
    (runner, "_write_charts", "runner.write_charts"),
    (runner, "_write_manifest", "runner.write_manifest"),
    (dynamics, "taxis_mobility", MOBILITY),
] + [(mod, k, f"grid.{k}") for k in GRID_KERNELS for mod in (grid, dynamics)]


class Tracer:
    """Collects spans from the shims it installs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.summary: dict[str, dict[str, float]] = {}  # per span name, over all calls
        self.missing: list[str] = []  # targets the package no longer has
        self.not_measured: dict[str, str] = {}  # metric -> why a call could not give it
        self._stack = [-1]
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def shim(*args, **kwargs):
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, nid, parent, start, end))

        return shim

    @contextmanager
    def installed(self):
        """Swap the shims in for the duration of the block; start a fresh span list."""
        self.spans.clear()
        self._ids = itertools.count()
        shims, saved = {}, []
        for mod, attr, name in TARGETS:
            if not hasattr(mod, attr):
                if f"{mod.__name__}.{attr}" not in self.missing:
                    self.missing.append(f"{mod.__name__}.{attr}")
                continue
            original = getattr(mod, attr)
            if id(original) not in shims:
                shims[id(original)] = self._wrap(name, original)
            saved.append((mod, attr, original))
            setattr(mod, attr, shims[id(original)])
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def _arrays(self):
        table = np.array(sorted(self.spans), dtype=float).reshape(-1, 5)
        name = table[:, 1].astype(int)
        parent = table[:, 2].astype(int)
        start, end = table[:, 3], table[:, 4]
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, start, end, dur, dur - child_time

    def layer_metrics(self, steps: int, cells: int, call_wall_s: float) -> dict[str, tuple[float, str]]:
        """Reduce the spans of one traced call to per-layer metrics.

        Also adds the call's spans to the per-name totals in ``summary``.
        """
        name, parent, start, end, dur, self_time = self._arrays()
        for nid, span_name in enumerate(self.names):
            mask = name == nid
            row = self.summary.setdefault(span_name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += int(mask.sum())
            row["total_s"] += float(dur[mask].sum())
            row["self_s"] += float(self_time[mask].sum())

        def is_(span_name: str) -> np.ndarray:
            return name == (self.names.index(span_name) if span_name in self.names else -1)

        def inside(mask: np.ndarray) -> np.ndarray:
            """Spans that start within a span of the non-overlapping set `mask`."""
            if not mask.any():
                return np.zeros(len(name), dtype=bool)
            lo, hi = start[mask], end[mask]
            idx = np.maximum(np.searchsorted(lo, start, side="right") - 1, 0)
            return (lo[idx] <= start) & (start < hi[idx])

        stepping_span, record_span = is_(STEPPING), is_(RECORD)
        in_stepping = inside(stepping_span) & ~inside(record_span) & ~stepping_span
        record_s = float(dur[record_span].sum())
        stepping_s = float(dur[stepping_span].sum()) - record_s
        kernel = np.zeros(len(dur), dtype=bool)
        for k in GRID_KERNELS:
            kernel |= is_(f"grid.{k}")
        outer_kernel = kernel & ~((parent >= 0) & kernel[np.maximum(parent, 0)])
        fg = is_("grid.face_gradient_values") & in_stepping
        n_records = int(record_span.sum())
        steps = max(steps, 1)

        def why_absent(span_name: str) -> str:
            """Why metrics built on `span_name` cannot be measured; empty if they can."""
            if span_name in self.names:
                return ""
            return f"{span_name} is not in the package any more (missing targets: {self.missing})"

        m: dict[str, tuple[float, str]] = {}
        absent: dict[str, str] = {}

        def put(metric: str, value, unit: str, why: str) -> None:
            """Record `value()` unless `why` says it cannot be measured."""
            if why:
                absent[metric] = why
            else:
                m[metric] = (float(value()), unit)

        why = why_absent(STEPPING) or ("" if stepping_s > 0 else f"no {STEPPING} call in this run")
        put("dynamics.self_s", lambda: self_time[stepping_span].sum(), "s", why)
        put("dynamics.us_per_step", lambda: 1e6 * stepping_s / steps, "us", why)
        put("dynamics.cell_steps_per_s", lambda: cells * steps / stepping_s, "1/s", why)
        put("grid.kernel_share", lambda: dur[outer_kernel & in_stepping].sum() / stepping_s, "ratio", why)
        put("grid.face_gradient_values.us_per_call", lambda: 1e6 * dur[fg].mean(), "us",
            why or ("" if fg.any() else "no grid.face_gradient_values call inside stepping"))
        for k in GRID_KERNELS:
            put(f"grid.{k}.calls_per_step", lambda k=k: (is_(f"grid.{k}") & in_stepping).sum() / steps, "count",
                why or why_absent(f"grid.{k}"))
        put("model.taxis_mobility.calls_per_step", lambda: (is_(MOBILITY) & in_stepping).sum() / steps, "count",
            why or why_absent(MOBILITY))
        why = why_absent(RECORD)
        put("diagnostics.record.calls", lambda: n_records, "count", why)
        put("diagnostics.record.us_per_call", lambda: 1e6 * record_s / max(n_records, 1), "us", why)
        put("diagnostics.share", lambda: record_s / call_wall_s, "ratio", why)
        for span_name, metric in WRITERS.items():
            put(metric, lambda span_name=span_name: dur[is_(span_name)].sum(), "s", why_absent(span_name))
        self.not_measured.update(absent)
        return m

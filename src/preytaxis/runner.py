"""Scenario execution: diagnostics capture, output files, and sweeps.

A run directory receives diagnostics.csv, initial/final snapshots of
both fields, exactly one manifest.json naming the termination status,
and (when enabled) simple SVG line charts.  Sweeps execute independent
runs in parallel processes and collect one summary row per value;
individual failures are recorded and the sweep continues.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import diagnostics, model
from .config import ConfigError, RunConfig, SWEEPABLE_KEYS, build_config, initial_state
from .diagnostics import DiagnosticsRecord
from .dynamics import (STAGES, STEP_ACCURACY, STEP_SAFETY, STEP_TOL, BlowUp, Stalled, State, StepAccounting,
                       run_to_time)
from .grid import gradient_sq_values, integrate_values, write_snapshot

__all__ = ["RunResult", "execute", "run_scenario", "sweep", "worker_count", "WORKERS_ENV"]

WORKERS_ENV = "PREYTAXIS_WORKERS"


@dataclass
class RunResult:
    """In-memory outcome of one scenario execution."""

    config: RunConfig
    initial: State
    records: list[DiagnosticsRecord]
    final_state: State | None
    steady_state: model.SteadyState
    certificate: model.StabilizationCertificate | None
    certificate_reason: str | None
    accounting: StepAccounting
    status: str  # "completed", "stalled: ..." or "blowup: ..."
    wall_clock: float

    @property
    def ok(self) -> bool:
        return self.status == "completed"


# The sink records queued states once they hold this many cells: a
# 64-cell 1-D run records 64 states per call, a 64x64 run each state
# alone.  Each per-field temporary of a batch then stays at 32 KB; four
# 64x64 states per call made the dense 2-D benchmark run 1.109x slower
# (median paired ratio, 0 of 6 pairs won) with 1.1 MiB more peak RSS.
_RECORD_BATCH_CELLS = 4096


def execute(config: RunConfig) -> RunResult:
    """Run a scenario in memory (no files touched).

    The sink queues each (t, y, count) run_to_time hands it, y a stacked
    state the stepper never writes again, and records the queue in one
    diagnostics.record call once it holds _RECORD_BATCH_CELLS cells or
    its last state is the one at t_end, so a completed run's last record
    call falls inside run_to_time like every other.  States still queued
    when the run raises BlowUp (a Stalled run's status is "stalled: ...",
    any other's "blowup: ..."), or when the step to t_end fills no sample
    time, are recorded after it.  Each row is repeated once per sample
    time its state fills.
    """
    started = time.perf_counter()
    s0 = initial_state(config)
    ss = model.steady_states(config.params)
    v0_sup = float(s0.v.values.max())
    try:
        certificate = model.certify(config.params, v0_sup)
        reason = None
    except model.ConditionViolated as exc:
        certificate = None
        reason = f"condition fails: {exc}"
    accounting = StepAccounting()
    records: list[DiagnosticsRecord] = []
    queue: list[tuple[float, np.ndarray, int]] = []  # each state with the sample times it fills
    batch = -(-_RECORD_BATCH_CELLS // math.prod(config.grid.n))  # states per record call

    def flush() -> None:
        times, states, counts = zip(*queue)
        rows = diagnostics.record(config.grid, times, states, config.params, ss, certificate)
        for row, count in zip(rows, counts):
            records.extend([row] * count)
        queue.clear()

    def sink(t: float, y: np.ndarray, count: int) -> None:
        queue.append((t, y, count))
        if len(queue) >= batch or t == config.t_end:
            flush()

    status = "completed"
    final_state = None
    try:
        final_state = run_to_time(
            s0,
            config.params,
            config.taxis,
            config.t_end,
            config.sample_every,
            sink=sink,
            accounting=accounting,
        )
    except Stalled as exc:
        status = f"stalled: {exc}"
    except BlowUp as exc:
        status = f"blowup: {exc}"
    if queue:
        flush()
    return RunResult(
        config=config,
        initial=s0,
        records=records,
        final_state=final_state,
        steady_state=ss,
        certificate=certificate,
        certificate_reason=reason,
        accounting=accounting,
        status=status,
        wall_clock=time.perf_counter() - started,
    )


def _fingerprints(config: RunConfig) -> tuple[str, str]:
    g = config.grid
    grid_fp = f"{g.dim}d n={'x'.join(map(str, g.n))} length={'x'.join(f'{L:g}' for L in g.length)}"
    scheme_fp = (f"{config.taxis.value} imex ars222 dct C={STEP_ACCURACY:g} tol={STEP_TOL:g} "
                 f"ssp-rk stages={STAGES} safety={STEP_SAFETY:g}")
    return grid_fp, scheme_fp


def _write_manifest(result: RunResult, out: Path) -> None:
    grid_fp, scheme_fp = _fingerprints(result.config)
    cert = result.certificate
    acc = result.accounting
    certificate = {"absent": result.certificate_reason} if cert is None else asdict(cert)
    if cert is not None and math.isinf(cert.threshold):  # vacuous condition (m2 <= 0); JSON has no inf
        certificate["threshold"] = None
    manifest = {
        "config": result.config.items,
        "steady_state": {
            "u_star": result.steady_state.u_star,
            "v_star": result.steady_state.v_star,
            "regime": result.steady_state.regime.value,
        },
        "certificate": certificate,
        "grid": grid_fp,
        "scheme": scheme_fp,
        "wall_clock_seconds": result.wall_clock,
        "steps": acc.steps,
        "dt_min": acc.dt_min if acc.steps else None,
        "dt_max": acc.dt_max if acc.steps else None,
        "imex_steps": acc.imex_steps,
        "imex_rejected_steps": acc.imex_rejected,
        "imex_error_rejected_steps": acc.imex_error_rejected,
        "rhs_evaluations": acc.rhs_evaluations,
        "clamped_cells": acc.clamped_cells,  # always 0; kept because bench/ reads it
        "peak_v": acc.peak_v,
        "termination": result.status,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _svg_line_chart(path: Path, title: str, series: list[tuple[str, list, list]]) -> None:
    """Minimal self-contained SVG polyline chart."""
    width, height = 720, 440
    ml, mr, mt, mb = 60, 20, 36, 44
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    # the points take sx's and sy's operations in their order, inlined,
    # and one %-format, which prints a float as f"{v:.2f}" does
    x_span, x_scale = x_hi - x_lo, width - ml - mr
    y_span, y_scale, y_base = y_hi - y_lo, height - mt - mb, height - mb
    for i, (label, xs, ys) in enumerate(series):
        color = palette[i % len(palette)]
        n = min(len(xs), len(ys))
        coords = [0.0] * (2 * n)
        coords[0::2] = [ml + (x - x_lo) / x_span * x_scale for x in xs[:n]]
        coords[1::2] = [y_base - (y - y_lo) / y_span * y_scale for y in ys[:n]]
        pts = " ".join(["%.2f,%.2f"] * n) % tuple(coords)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - mr - 6}" y="{mt + 16 + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _write_charts(records: list[DiagnosticsRecord], out: Path) -> None:
    ts = [r.t for r in records]
    _svg_line_chart(out / "energy.svg", "energy vs t", [("energy", ts, [r.energy for r in records])])
    _svg_line_chart(
        out / "dissipation.svg",
        "dissipation vs t",
        [("dissipation", ts, [r.dissipation for r in records])],
    )
    _svg_line_chart(
        out / "distances.svg",
        "distances to equilibrium vs t",
        [
            ("dist_u_l1", ts, [r.dist_u_l1 for r in records]),
            ("dist_u_l2", ts, [r.dist_u_l2 for r in records]),
            ("dist_v_l1", ts, [r.dist_v_l1 for r in records]),
            ("dist_v_l2", ts, [r.dist_v_l2 for r in records]),
        ],
    )


def _make_run_dir(out: Path) -> None:
    """Create a run directory; a path that cannot be one is a config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create run directory: {exc}") from None


def _write_run_dir(result: RunResult, out: Path) -> None:
    write_snapshot(result.initial.u, result.initial.t, out / "initial_u.txt")
    write_snapshot(result.initial.v, result.initial.t, out / "initial_v.txt")
    diagnostics.write_csv(result.records, out / "diagnostics.csv")
    if result.final_state is not None:
        write_snapshot(result.final_state.u, result.final_state.t, out / "final_u.txt")
        write_snapshot(result.final_state.v, result.final_state.t, out / "final_v.txt")
    _write_manifest(result, out)


def run_scenario(config: RunConfig, svg: bool = False) -> int:
    """Execute a scenario and write its run directory, plus SVG charts if svg.

    Returns 0 on completion and 2 on blow-up or stall (the manifest then
    records the failure time).  The directory is created before the run starts.
    """
    out = Path(config.out_dir)
    _make_run_dir(out)
    result = execute(config)
    _write_run_dir(result, out)
    if svg:
        _write_charts(result.records, out)
    return 0 if result.ok else 2


# --- sweeps -------------------------------------------------------------------

_SUMMARY_COLUMNS = (
    "axis",
    "value",
    "status",
    "t_final",
    "dist_u_l1",
    "dist_u_l2",
    "dist_v_l1",
    "dist_v_l2",
    "energy",
    "gradu_l1",
)


def _sweep_worker(args: tuple[dict, str, float, str]) -> dict:
    """Run one sweep member and summarize its final record."""
    items, axis, value, out_dir = args
    derived = dict(items)
    derived[axis] = f"{value:.17g}"
    derived["output.dir"] = out_dir
    row: dict = {name: math.nan for name in _SUMMARY_COLUMNS}
    row["axis"] = axis
    row["value"] = value
    try:
        config = build_config(derived)
        _make_run_dir(Path(out_dir))
    except ConfigError as exc:
        row["status"] = f"config-error {exc}"
        return row
    result = execute(config)
    _write_run_dir(result, Path(out_dir))
    row["status"] = result.status.partition(":")[0]  # completed, stalled or blowup
    if result.records:
        last = result.records[-1]
        row.update(
            t_final=last.t,
            dist_u_l1=last.dist_u_l1,
            dist_u_l2=last.dist_u_l2,
            dist_v_l1=last.dist_v_l1,
            dist_v_l2=last.dist_v_l2,
            energy=last.energy,
        )
    if result.final_state is not None:
        g = result.final_state.grid
        grad_mag = np.sqrt(gradient_sq_values(g, result.final_state.u.values))
        row["gradu_l1"] = integrate_values(g, grad_mag)
    return row


def worker_count(n_jobs: int) -> int:
    """Worker pool size: the PREYTAXIS_WORKERS env var, capped by the job count."""
    raw = os.environ.get(WORKERS_ENV, "")
    if raw.strip():
        try:
            limit = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer (got {raw!r})") from None
        if limit < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1 (got {limit})")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_jobs))


def sweep(items: dict[str, str], axis: str, values: list[float], out_dir: str | None = None) -> Path:
    """Run one scenario per value of a numeric config key, in parallel.

    Parallelism is across runs only; each run is sequential and
    deterministic.  Writes each member, without charts, into its own
    subdirectory <axis>_<value:g> plus a sweep_summary.csv with one row
    per value (final distances, energy, status).  Two values that give
    one directory name are a ConfigError before any run starts.
    Individual failures land in the summary; the sweep continues.
    Returns the summary path.

    ProcessPoolExecutor is imported only when more than one worker runs:
    concurrent.futures.process loads multiprocessing, socket and
    subprocess, which a single run or a one-worker sweep never uses.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    if axis not in SWEEPABLE_KEYS:
        raise ConfigError(f"sweep axis must be a numeric config key (got {axis!r})")
    base = build_config(items)  # validate the base config up front
    root = Path(out_dir if out_dir is not None else base.out_dir)
    members: dict[str, float] = {}
    for value in values:
        name = f"{axis.replace('.', '_')}_{value:g}"
        if name in members:
            raise ConfigError(f"sweep values {members[name]!r} and {value!r} both map to directory {name}")
        members[name] = value
    _make_run_dir(root)
    jobs = [(dict(items), axis, float(value), str(root / name)) for name, value in members.items()]
    workers = worker_count(len(jobs))
    if workers == 1:
        rows = [_sweep_worker(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    summary = root / "sweep_summary.csv"
    with open(summary, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SUMMARY_COLUMNS)
        for row in rows:
            cells = []
            for name in _SUMMARY_COLUMNS:
                cell = row.get(name, math.nan)
                cells.append(cell if isinstance(cell, str) else f"{cell:.17g}")
            writer.writerow(cells)
    return summary

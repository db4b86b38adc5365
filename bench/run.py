"""Benchmark entry point: one workload, one seed, measured for a fixed time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload coexist_2d --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (wall_s, setup_s,
peak_rss_mib), the two times scaled to the reference machine speed by
``speed.py``; with ``--trace 1`` the per-layer metrics from a separate
run whose calls alternate between untraced and traced.  Every call's
output is checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the line
before it records the machine and problem context.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "PREYTAXIS_WORKERS",
)
DEFAULT_SEED = 0
SETUP_PROBES = 11  # timed fresh interpreters per run, after one untimed warm-up
MIN_CALLS = 3  # timed calls (trace mode: untraced/traced pairs) even past --seconds
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- set-up probes ---------------------------------------------------------------

def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative


def _probe(cfg_path: Path, importtime: bool) -> dict[str, float]:
    """Time one fresh interpreter from its start to the first step."""
    flags = ["-X", "importtime"] if importtime else []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *flags, str(BENCH / "setup_probe.py"), str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["setup_s"] = info.pop("ready") - started
    if importtime:
        cum = _import_times(proc.stderr)
        info["cli_import_s"] = cum.get("preytaxis", 0.0) + cum.get("preytaxis.cli", 0.0)
        info["oracle_import_s"] = cum.get("preytaxis.oracle", 0.0)
        info["scipy_integrate_import_s"] = cum.get("scipy.integrate", 0.0)
    return info


# --- context ----------------------------------------------------------------------

def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _context(workload, cells: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "scenario": workload.scenario,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_caches_per_core": _cache_sizes() or "unknown",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cells": cells,
        "bytes_per_field_computed": 8 * cells,
        "bytes_note": "computed from array sizes (cells x 8 B float64); cache misses ignored",
    }


# --- calls --------------------------------------------------------------------------

def _call(workload, text: str, scratch: Path):
    from workloads import Outcome

    try:
        return workload.call(text, scratch)
    except Exception:  # a crash is a failed run, not the end of the benchmark
        traceback.print_exc()
        return Outcome(math.nan, "raised an exception")


def _reference_failure(workload, outcome) -> str:
    """Compare the default-seed final state with the stored reference."""
    import numpy as np
    from workloads import reference_tol

    if not outcome.ok:
        return outcome.failure
    ref = np.load(BENCH / "reference.npz")
    text = next(workload.inputs(DEFAULT_SEED))
    if str(ref[f"{workload.name}.cfg"]) != text:
        return "reference input differs from the generated default-seed input"
    tol = reference_tol(text, outcome.steps)
    for field, got in (("u", outcome.final_u), ("v", outcome.final_v)):
        want = ref[f"{workload.name}.{field}"]
        dist = float(np.abs(got - want).sum() / np.abs(want).sum())
        if not dist <= tol:
            return f"final {field} is {dist:.3e} (relative L1) from the reference, tolerance {tol:.3g}"
    return ""


def _median(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "preytaxis" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS[:-1]:
        os.environ.setdefault(var, "1")  # before numpy loads: one thread
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            result, context = _measure(workload, args, Path(tmp))
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def _measure(workload, args, scratch: Path):
    import speed

    inputs = workload.inputs(args.seed)
    first = next(inputs)
    cells = workload.cells()
    context = _context(workload, cells)
    attempted = failed = 0

    def tally(outcome, label: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not outcome.ok:
            failed += 1
            print(f"FAILED {label}: {outcome.failure}", file=sys.stderr)

    cfg_path = scratch / "setup.cfg"
    cfg_path.write_text(first)
    _probe(cfg_path, importtime=False)  # untimed: writes the bytecode caches
    setup_speeds = [speed.probe()]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(_probe(cfg_path, importtime=bool(args.trace)))
        setup_speeds.append(speed.probe())

    # Untimed warm-up on the default-seed input, checked against the reference.
    warm = _call(workload, next(workload.inputs(DEFAULT_SEED)), scratch)
    warm.failure = _reference_failure(workload, warm)
    tally(warm, "reference call")

    if not args.trace:
        walls, steps, speeds = [], [], [speed.probe()]
        text, started = first, time.perf_counter()
        while len(walls) < MIN_CALLS or time.perf_counter() - started < args.seconds:
            outcome = _call(workload, text, scratch)
            speeds.append(speed.probe())
            tally(outcome, f"call {len(walls)}")
            walls.append(outcome.wall_s)
            steps.append(outcome.steps)
            text = next(inputs)
        setups = [p["setup_s"] for p in probes]
        metrics = {
            "wall_s": (_median(speed.scaled(walls, speeds)), "s"),
            "setup_s": (_median(speed.scaled(setups, setup_speeds)), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        context.update(
            calls=len(walls), wall_s_per_call=walls, steps_per_call=steps, speed_probe_s=speeds,
            wall_s_unscaled=_median(walls), setup_s_per_probe=setups,
            setup_speed_probe_s=setup_speeds, setup_s_unscaled=_median(setups),
        )
    else:
        metrics, extra = _measure_traced(workload, args, scratch, first, inputs, cells, probes, tally)
        context.update(extra)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, context


def _measure_traced(workload, args, scratch, text, inputs, cells, probes, tally):
    import speed
    from spans import Tracer

    tracer = Tracer()
    per_call: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ratios = []
    started = time.perf_counter()
    while len(ratios) < MIN_CALLS or time.perf_counter() - started < args.seconds:
        speeds = [speed.probe()]
        plain = _call(workload, text, scratch)
        speeds.append(speed.probe())
        tally(plain, f"untraced call {len(ratios)}")
        with tracer.installed():
            traced = _call(workload, text, scratch)
        speeds.append(speed.probe())
        tally(traced, f"traced call {len(ratios)}")
        text = next(inputs)
        plain_s, traced_s = speed.scaled([plain.wall_s, traced.wall_s], speeds)
        ratios.append(traced_s / plain_s)
        if not traced.ok:
            continue
        m = tracer.layer_metrics(traced.steps, cells, traced.wall_s)
        files = traced.file_bytes
        m.update({
            "dynamics.steps": (float(traced.steps), "count"),
            "dynamics.steps_per_sample": (traced.steps / max(traced.samples - 1, 1), "count"),
            "dynamics.clamped_cells": (float(traced.clamped_cells), "count"),
            "diagnostics.csv_bytes": (float(files.get("diagnostics.csv", 0)), "B"),
            "grid.snapshot_bytes": (float(sum(b for n, b in files.items() if n.endswith(".txt"))), "B"),
            "runner.bytes_written": (float(sum(files.values())), "B"),
        })
        for name, (value, unit) in m.items():
            per_call.setdefault(name, []).append(value)
            units[name] = unit
    metrics = {name: (_median(values), units[name]) for name, values in per_call.items()}
    metrics.update({
        "model.certify_s": (_median(p["certify_s"] for p in probes), "s"),
        "config.build_s": (_median(p["build_s"] for p in probes), "s"),
        "cli.import_s": (_median(p["cli_import_s"] for p in probes), "s"),
        "oracle.import_s": (_median(p["oracle_import_s"] for p in probes), "s"),
        "trace.overhead_frac": (_median(ratios) - 1.0, "ratio"),
    })
    extra = {
        "traced_calls": len(ratios),
        "scipy_integrate_import_s": _median(p["scipy_integrate_import_s"] for p in probes),
        "spans": tracer.summary,
    }
    if tracer.missing or tracer.not_measured:
        extra["missing_targets"] = tracer.missing
        extra["not_measured"] = {k: v for k, v in tracer.not_measured.items() if k not in metrics}
    if max(per_call.get("runner.bytes_written", [0.0])) == 0.0:
        extra["not_exercised"] = (
            "writer metrics (diagnostics.write_csv_s, diagnostics.csv_bytes, grid.write_snapshot_s, "
            "grid.snapshot_bytes, runner.write_charts_s, runner.write_manifest_s, runner.bytes_written) "
            "read 0: this workload calls runner.execute, which writes no files"
        )
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())

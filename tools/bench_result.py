"""Strict check of the result line a benchmark run prints last.

    python3 bench/run.py --workload W --seconds 0 | python3 tools/bench_result.py
    python3 bench/run.py --workload W --seconds 0 --trace 1 | python3 tools/bench_result.py --no-clamping

The last non-empty line of stdin must be strict JSON (NaN and Infinity
are refused, as json.load would accept them) holding an object with
the keys correct, attempted, failed and metrics.  Its metrics must hold
every name of BENCHMARK.json's end_to_end list (an untraced run) or
every name of its per_layer list (a traced run), each with a finite
number as its value.  The exit code is 1 when the line is not so, when
a call failed, or, with --no-clamping, when the traced run's
dynamics.clamped_cells is not 0; otherwise 0.  No step clamps any more,
so that count is 0 on working code; --no-clamping checks that the
benchmark still reads it and that the traced run's result line is
strict JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

KEYS = ("correct", "attempted", "failed", "metrics")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRIC_LISTS = {kind: [m["name"] for m in BENCHMARK[kind]] for kind in ("end_to_end", "per_layer")}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _finite(entry) -> bool:
    value = entry.get("value") if isinstance(entry, dict) else None
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def incomplete(metrics) -> str:
    """Why `metrics` is neither a complete end-to-end nor a complete
    per-layer set of BENCHMARK.json; empty if it is one of them.  A set
    with any per-layer name is judged as per-layer."""
    if not isinstance(metrics, dict):
        return "metrics is not an object"
    kind = "per_layer" if any(name in metrics for name in METRIC_LISTS["per_layer"]) else "end_to_end"
    lacking = [name for name in METRIC_LISTS[kind] if not _finite(metrics.get(name))]
    return f"no finite value for the {kind} metrics {', '.join(lacking)}" if lacking else ""


def failure(text: str, no_clamping: bool = False) -> str:
    """Why the output `text` of a benchmark run fails the check; empty if it passes."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1], parse_constant=_refuse_constant)
    except ValueError as exc:
        return f"last line is not strict JSON: {exc}"
    if not isinstance(result, dict) or any(key not in result for key in KEYS):
        return f"last line is not an object with the keys {', '.join(KEYS)}"
    if result["failed"] != 0:
        return f"{result['failed']} of {result['attempted']} calls failed"
    why = incomplete(result["metrics"])
    if why:
        return why
    if no_clamping:
        clamped = result["metrics"].get("dynamics.clamped_cells", {}).get("value")
        if clamped != 0:
            return f"dynamics.clamped_cells is {clamped}, not 0"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-clamping", action="store_true",
                        help="also require dynamics.clamped_cells = 0 (a traced run)")
    args = parser.parse_args(argv)
    why = failure(sys.stdin.read(), args.no_clamping)
    print(f"result line: {why or 'ok'}")
    return 1 if why else 0


if __name__ == "__main__":
    sys.exit(main())

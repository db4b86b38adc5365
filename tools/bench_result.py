"""Strict check of the result line a benchmark run prints last.

    python3 bench/run.py --workload W --seconds 0 | python3 tools/bench_result.py
    python3 bench/run.py --workload W --seconds 0 --trace 1 | python3 tools/bench_result.py --no-clamping

The last non-empty line of stdin must be strict JSON (NaN and Infinity
are refused, as json.load would accept them) holding an object with
the keys correct, attempted, failed and metrics.  The exit code is 1
when it is not, when a call failed, or, with --no-clamping, when the
traced run's dynamics.clamped_cells is not 0; otherwise 0.  No step
clamps any more, so that count is 0 on working code; --no-clamping
checks that the benchmark still reads it and that the traced run's
result line is strict JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

KEYS = ("correct", "attempted", "failed", "metrics")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


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

"""Regenerate reference.npz: the final state of each workload's default-seed input.

Usage (from the root of a checkout): python3 bench/make_reference.py

Run it only when the workloads' inputs change, on a commit whose results
are trusted; the benchmark compares every run's untimed reference call
with these states at workloads.reference_tol.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import DEFAULT_SEED, SCRATCH  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    arrays = {}
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for name, workload in WORKLOADS.items():
            text = next(workload.inputs(DEFAULT_SEED))
            outcome = workload.call(text, Path(tmp))
            if not outcome.ok:
                print(f"{name}: {outcome.failure}", file=sys.stderr)
                return 1
            arrays[f"{name}.cfg"] = np.array(text)
            arrays[f"{name}.u"] = outcome.final_u
            arrays[f"{name}.v"] = outcome.final_v
            print(f"{name}: {outcome.steps} steps, {outcome.wall_s:.3f} s")
    SCRATCH.rmdir()
    np.savez_compressed(BENCH / "reference.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())

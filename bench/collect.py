"""Run the benchmark over several seeds and summarise the spread.

Usage (from the root of a checkout):

    python3 bench/collect.py --runs 10 --first-seed 1 --out bench/BENCH_0.json

For each workload in BENCHMARK.json it makes ``--runs`` untraced runs
with consecutive seeds, then one traced run on the default seed, each in
a child process, one after another.  Per end-to-end metric it reports
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, and flags a spread above a
third of the metric's bound; the per-layer metrics are those of the
traced run.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"script": "bench/collect.py", "run_seconds": seconds, "runs": args.runs,
                    "seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, context = _run(workload, seed, seconds, trace=0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {name: _stats(v) for name, v in values.items()}}
        for name, st in entry["end_to_end"].items():
            flag = "" if st["spread"] < bounds[name] / 3 else "  <-- spread above bound/3"
            print(f"{workload:16s} {name:14s} median {st['median']:.5g}  q1 {st['q1']:.5g}  "
                  f"q3 {st['q3']:.5g}  spread {st['spread']:.4f} (bound {bounds[name]}){flag}")
        result, trace_context = _run(workload, 0, seconds, trace=1)
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["trace_context"] = {k: trace_context[k] for k in trace_context if k != "spans"}
        entry["per_layer"] = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(f"{workload:16s} trace.overhead_frac {entry['per_layer']['trace.overhead_frac']:.4f}")
        print(f"{workload:16s} failed {entry['failed']} of {entry['attempted']} calls attempted")
        report["machine"] = {k: context[k] for k in
                             ("nproc", "cpus_usable", "python", "numpy", "scipy", "cpu_caches_per_core",
                              "thread_env")}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

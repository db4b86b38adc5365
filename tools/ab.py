"""Paired A/B comparison of two source trees on benchmark workloads.

    python3 tools/ab.py BASE_TREE NEW_TREE --workload epsfam_1d [--workload coexist_2d ...]
                        [--pairs 10] [--seconds 4] [--seed 0]

Each pair runs ``python3 bench/run.py`` once in each tree for every
workload named (every tree benchmarks its own ``src``), base first in
even pairs and new first in odd ones, so a drift of the machine's speed
within a pair favours neither side.  For every workload and every
end-to-end metric of the last result line (all three are
lower-is-better) it prints each side's median and quartiles, the
median over pairs of new/base, the pairs the new tree won, and the
two-sided sign-test p of that count; tied pairs are dropped from the
test.  It also says whether both trees took the same steps: within each
pair, the step counts of the calls both runs made (the same inputs, in
the same order, from the context line's steps_per_call) are compared, so
a cheaper step can be told from a change in step count.  The last stdout
line is all the tables as one JSON object, keyed by workload under
"workloads", each with a "steps" entry beside its metrics.  A run
whose result line reports a failed call, or that exits nonzero, ends the
comparison with exit 1; a --pairs under 1 is a usage error (exit 2).

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mib")


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of `wins` against `losses` untied pairs: twice
    the binomial(n, 1/2) tail at the rarer count, capped at 1."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], new: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the median over pairs of
    new/base, the pairs new won (a lower value), lost and tied, and the
    sign-test p."""
    table = {}
    for name in METRICS:
        a = [run[name] for run in base]
        b = [run[name] for run in new]
        wins = sum(y < x for x, y in zip(a, b))
        losses = sum(y > x for x, y in zip(a, b))
        table[name] = {
            "base": quartiles(a),
            "new": quartiles(b),
            "paired_ratio": statistics.median(y / x for x, y in zip(a, b)),
            "new_won": wins,
            "new_lost": losses,
            "tied": len(a) - wins - losses,
            "sign_test_p": sign_test_p(wins, losses),
        }
    return table


def same_steps(base: list[dict], new: list[dict]) -> dict:
    """Whether both trees took the same steps per call: "same", "calls"
    (the calls compared, over all pairs) and "pairs_differing".  Each pair
    compares the steps_per_call of the calls both of its runs made; "same"
    is None when a run reports no step counts."""
    calls = differing = 0
    for x, y in zip(base, new):
        a, b = x.get("steps_per_call"), y.get("steps_per_call")
        if a is None or b is None:
            return {"same": None, "calls": calls, "pairs_differing": differing}
        k = min(len(a), len(b))
        calls += k
        differing += a[:k] != b[:k]
    return {"same": differing == 0, "calls": calls, "pairs_differing": differing}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py call in tree; its end-to-end metric values, and
    under "steps_per_call" the step count of each timed call from the
    context line (None when there is none)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if result["failed"]:
        raise RuntimeError(f"{tree}: {result['failed']} of {result['attempted']} calls failed")
    contexts = [json.loads(line)["context"] for line in lines[:-1] if line.startswith('{"context"')]
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run["steps_per_call"] = contexts[-1].get("steps_per_call") if contexts else None
    return run


def compare(base: Path, new: Path, workloads: list[str], pairs: int, seed: int,
            seconds: float) -> dict[str, dict]:
    """Run the pairs, every workload in each; per workload, the summary
    table and the step check."""
    runs = {workload: ([], []) for workload in workloads}
    for k in range(pairs):
        for workload, (base_runs, new_runs) in runs.items():
            order = ((base, base_runs), (new, new_runs)) if k % 2 == 0 else ((new, new_runs), (base, base_runs))
            for tree, out in order:
                out.append(run_once(tree, workload, seed, seconds))
            print(f"pair {k + 1} {workload}: "
                  + ", ".join(f"{m} {base_runs[-1][m]:.6g} -> {new_runs[-1][m]:.6g}" for m in METRICS),
                  file=sys.stderr, flush=True)
    return {workload: {**summarize(*sides), "steps": same_steps(*sides)} for workload, sides in runs.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", action="append", required=True, help="repeat to compare several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1 (got {args.pairs})")
    workloads = list(dict.fromkeys(args.workload))
    try:
        tables = compare(args.base, args.new, workloads, args.pairs, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    for workload, table in tables.items():
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs "
              f"(quartiles: lower / median / upper)")
        for name in METRICS:
            row = table[name]
            a, b = row["base"], row["new"]
            print(f"  {name}: base {a[0]:.6g} / {a[1]:.6g} / {a[2]:.6g}; new {b[0]:.6g} / {b[1]:.6g} / {b[2]:.6g}; "
                  f"paired new/base {row['paired_ratio']:.4g}; new won {row['new_won']}, lost {row['new_lost']}, tied {row['tied']}; "
                  f"sign-test p = {row['sign_test_p']:.3g}")
        steps = table["steps"]
        if steps["same"] is None:
            print("  steps per call: not reported")
        elif steps["same"]:
            print(f"  steps per call: the same on all {steps['calls']} calls both trees made")
        else:
            print(f"  steps per call: differ in {steps['pairs_differing']} of {args.pairs} pairs "
                  f"({steps['calls']} calls compared)")
    print(json.dumps({"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds, "workloads": tables}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

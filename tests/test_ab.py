"""tools/ab.py: the sign test, the per-metric summary of paired runs,
their order over several workloads, the check that both trees took the
same steps, and the refusal of fewer than one pair."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_sign_test_p_is_the_two_sided_binomial_tail():
    assert ab.sign_test_p(10, 0) == 2 / 1024
    assert ab.sign_test_p(9, 1) == 2 * (1 + 10) / 1024
    assert ab.sign_test_p(8, 2) == 2 * (1 + 10 + 45) / 1024
    assert ab.sign_test_p(1, 9) == ab.sign_test_p(9, 1)
    assert ab.sign_test_p(5, 5) == 1.0
    assert ab.sign_test_p(0, 0) == 1.0
    assert ab.sign_test_p(1, 0) == 1.0


def test_summary_counts_lower_values_as_wins_and_drops_ties():
    base = [{"wall_s": w, "setup_s": 0.2, "peak_rss_mib": 40.0} for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    new = [{"wall_s": w, "setup_s": 0.2, "peak_rss_mib": r} for w, r in
           zip((0.5, 1.5, 2.5, 3.5, 6.0), (39.0, 41.0, 40.0, 40.0, 40.0))]
    table = ab.summarize(base, new)
    wall = table["wall_s"]
    assert (wall["new_won"], wall["new_lost"], wall["tied"]) == (4, 1, 0)
    assert wall["sign_test_p"] == pytest.approx(2 * 6 / 32)
    assert wall["base"] == (2.0, 3.0, 4.0)
    assert wall["new"] == (1.5, 2.5, 3.5)
    assert (table["setup_s"]["tied"], table["setup_s"]["sign_test_p"]) == (5, 1.0)
    assert (table["peak_rss_mib"]["new_won"], table["peak_rss_mib"]["new_lost"]) == (1, 1)


def test_summary_reports_the_median_of_the_paired_ratios():
    base = [{"wall_s": w, "setup_s": 0.2, "peak_rss_mib": 40.0} for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    new = [{"wall_s": w, "setup_s": 0.1, "peak_rss_mib": 40.0} for w in (0.5, 2.2, 2.4, 4.4, 5.5)]
    table = ab.summarize(base, new)
    # ratios 0.5, 1.1, 0.8, 1.1, 1.1; the medians' ratio would be 2.4/3 = 0.8
    assert table["wall_s"]["paired_ratio"] == pytest.approx(1.1, rel=1e-15)
    assert table["setup_s"]["paired_ratio"] == 0.5
    assert table["peak_rss_mib"]["paired_ratio"] == 1.0


def test_repeated_workloads_alternate_per_pair_and_print_one_table_each(monkeypatch, capsys):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((str(tree), workload))
        wall = {"base": 2.0, "new": 1.0}[str(tree)] * (1.0 + len(calls) / 100)
        return {"wall_s": wall, "setup_s": 0.2, "peak_rss_mib": 40.0}

    monkeypatch.setattr(ab, "run_once", fake_run)
    argv = ["base", "new", "--workload", "epsfam_1d", "--workload", "coexist_2d", "--workload", "epsfam_1d",
            "--pairs", "3", "--seed", "7919"]
    assert ab.main(argv) == 0
    assert calls == [("base", "epsfam_1d"), ("new", "epsfam_1d"), ("base", "coexist_2d"), ("new", "coexist_2d"),
                     ("new", "epsfam_1d"), ("base", "epsfam_1d"), ("new", "coexist_2d"), ("base", "coexist_2d"),
                     ("base", "epsfam_1d"), ("new", "epsfam_1d"), ("base", "coexist_2d"), ("new", "coexist_2d")]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in out if not line.startswith((" ", "{"))] == ["epsfam_1d", "coexist_2d"]
    result = json.loads(out[-1])
    assert (result["seed"], result["pairs"]) == (7919, 3)
    assert list(result["workloads"]) == ["epsfam_1d", "coexist_2d"]
    for table in result["workloads"].values():
        assert (table["wall_s"]["new_won"], table["setup_s"]["tied"]) == (3, 3)


def test_a_failed_run_ends_the_comparison(monkeypatch, capsys):
    def failing(tree, workload, seed, seconds):
        raise RuntimeError(f"{tree}: 1 of 4 calls failed")

    monkeypatch.setattr(ab, "run_once", failing)
    assert ab.main(["base", "new", "--workload", "epsfam_1d"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "1 of 4 calls failed" in captured.err


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_a_usage_error(monkeypatch, capsys, pairs):
    def unexpected(*args, **kwargs):
        raise AssertionError("no benchmark run is started")

    monkeypatch.setattr(ab, "run_once", unexpected)
    monkeypatch.setattr(ab.subprocess, "run", unexpected)
    with pytest.raises(SystemExit) as exit_info:
        ab.main(["base", "new", "--workload", "epsfam_1d", "--pairs", pairs])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--pairs must be at least 1 (got {pairs})" in captured.err


def faked_bench(steps_of):
    """A stand-in for subprocess.run of bench/run.py that prints what it
    prints: the context line, with steps_of(tree, k) as the steps_per_call
    of the k-th run in tree, then the result line."""
    runs = {}

    def run(args, cwd, capture_output, text):
        k = runs[str(cwd)] = runs.get(str(cwd), 0) + 1
        steps = steps_of(str(cwd), k)
        context = {"context": {"calls": len(steps), "steps_per_call": steps}}
        result = {"correct": True, "attempted": len(steps) + 1, "failed": 0,
                  "metrics": {name: {"value": 1.0, "unit": "s"} for name in ab.METRICS}}
        return subprocess.CompletedProcess(args, 0, stdout=f"{json.dumps(context)}\n{json.dumps(result)}\n", stderr="")

    return run


def test_run_once_reads_the_step_counts_of_the_context_line(monkeypatch):
    monkeypatch.setattr(ab.subprocess, "run", faked_bench(lambda tree, k: [17, 17, 18]))
    run = ab.run_once(Path("base"), "epsfam_1d", 0, 4.0)
    assert run == {"wall_s": 1.0, "setup_s": 1.0, "peak_rss_mib": 1.0, "steps_per_call": [17, 17, 18]}


def test_the_step_check_compares_only_the_calls_both_runs_made():
    base = [{"steps_per_call": [56, 57, 56]}, {"steps_per_call": [56, 57]}]
    new = [{"steps_per_call": [56, 57]}, {"steps_per_call": [56, 57, 58]}]
    assert ab.same_steps(base, new) == {"same": True, "calls": 4, "pairs_differing": 0}
    new[1]["steps_per_call"] = [56, 58, 58]
    assert ab.same_steps(base, new) == {"same": False, "calls": 4, "pairs_differing": 1}
    assert ab.same_steps(base, [{}, {}])["same"] is None


@pytest.mark.parametrize("new_steps, verdict, line", [
    ([56, 57], True, "steps per call: the same on all 6 calls both trees made"),
    ([56, 58], False, "steps per call: differ in 2 of 3 pairs (6 calls compared)"),
])
def test_each_workload_reports_whether_both_trees_took_the_same_steps(monkeypatch, capsys, new_steps, verdict, line):
    """The base tree's runs make three calls, the new tree's two, and the
    new tree's first run takes the base's steps: only the calls both runs
    of a pair made are compared."""
    def steps_of(tree, k):
        return [56, 57, 56] if tree == "base" else [56, 57] if k == 1 else new_steps

    monkeypatch.setattr(ab.subprocess, "run", faked_bench(steps_of))
    assert ab.main(["base", "new", "--workload", "dense_rundir_2d", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"  {line}" in out
    steps = json.loads(out[-1])["workloads"]["dense_rundir_2d"]["steps"]
    assert steps == {"same": verdict, "calls": 6, "pairs_differing": 0 if verdict else 2}

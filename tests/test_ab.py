"""tools/ab.py: the sign test, the per-metric summary of paired runs, and
their order over several workloads."""

import importlib.util
import json
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

"""tools/ab.py: the sign test and the per-metric summary of paired runs."""

import importlib.util
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

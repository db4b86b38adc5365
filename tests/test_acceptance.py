"""Top-level acceptance gate: every numbered check at its frozen tolerance.

Each criterion prints exactly one PASS/FAIL line (kept visible through
pytest's capture) so a full run reads as a checklist.  The scenario runs
behind criteria 3, 5, 7, 8, 10, and 11 go through the module-level cache
in preytaxis.acceptance, so runs they share (also with `preytaxis accept`
in tests/test_cli.py) are made once per process.
"""

import math

import pytest

from preytaxis import EnergyDecayReport, acceptance, dynamics
from preytaxis.acceptance import _scenario_result, criterion_numbers, homogeneous_errors, run_criterion


@pytest.mark.parametrize("number", criterion_numbers())
def test_criterion(number, capsys):
    result = run_criterion(number)
    tag = "PASS" if result.passed else "FAIL"
    line = f"{tag} criterion {result.number}: {result.name} - {result.detail}"
    with capsys.disabled():
        print(f"\n{line}", end="", flush=True)
    assert result.passed, line


def test_coexistence_run_rejects_no_rkl2_step_and_clamps_nothing():
    """On the bundled coexistence scenario (the run criteria 7, 8 and 11
    share) the IMEX step, which took over RKL2's long steps, takes steps,
    every one passes its checks, and the run completes: no step raised
    BlowUp for a negative cell."""
    result = _scenario_result("coexistence_64")
    assert result.status == "completed"
    assert result.accounting.imex_steps > 0
    assert result.accounting.imex_rejected == 0


def test_criterion_7_fails_without_a_pair_past_t_settle(monkeypatch):
    """A report with no sample pair past t_settle checks nothing; its slope
    fraction of 1.0 and true flags must not pass criterion 7."""
    empty = EnergyDecayReport(start_time=1.0, n_pairs=0, n_slope_violations=0, slope_fraction=1.0,
                              max_slope_violation=0.0, monotone_ok=True, max_increase_rate=0.0,
                              budget_lhs=0.0, budget_rhs=0.0, budget_ok=True)
    monkeypatch.setattr(acceptance, "check_energy_decay", lambda *args, **kwargs: empty)
    assert not run_criterion(7).passed


def test_criterion_4_error_follows_the_error_tolerance(monkeypatch):
    """Criterion 4's worst error grows with STEP_TOL: at ten times the
    tolerance it is at least sqrt(10) times larger, so the error estimate,
    not the C/J floor, sets the steps there.  (At a tenth of it the floor
    binds and the error does not move, so the test looks only upward.)"""
    at_tol = max(err for _, err in homogeneous_errors())
    monkeypatch.setattr(dynamics, "STEP_TOL", 10.0 * dynamics.STEP_TOL)
    at_ten_tol = max(err for _, err in homogeneous_errors())
    assert at_ten_tol >= math.sqrt(10.0) * at_tol


@pytest.mark.parametrize("scenario", ["coexistence_64", "extinction_64", "max_principle_64"])
def test_settling_runs_record_a_distinct_time_at_every_sample(scenario):
    """Steps longer than C/J stop at one sample interval, so no step fills
    two sample times and every CSV row holds its own state."""
    times = [r.t for r in _scenario_result(scenario).records]
    assert len(set(times)) == len(times)

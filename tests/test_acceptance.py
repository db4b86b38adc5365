"""Top-level acceptance gate: every numbered check at its frozen tolerance.

Each criterion prints exactly one PASS/FAIL line (kept visible through
pytest's capture) so a full run reads as a checklist.  The scenario runs
behind criteria 3, 5, 7, 8, 10, and 11 go through the module-level cache
in preytaxis.acceptance, so runs they share (also with `preytaxis accept`
in tests/test_cli.py) are made once per process.
"""

import pytest

from preytaxis import EnergyDecayReport, acceptance
from preytaxis.acceptance import _scenario_result, criterion_numbers, run_criterion


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
    share) RKL2 takes steps, every one passes its checks, and no SSP-RK
    stage clamps a cell."""
    acc = _scenario_result("coexistence_64").accounting
    assert acc.rkl2_steps > 0
    assert acc.rkl2_rejected == 0
    assert acc.clamped_cells == 0


def test_criterion_7_fails_without_a_pair_past_t_settle(monkeypatch):
    """A report with no sample pair past t_settle checks nothing; its slope
    fraction of 1.0 and true flags must not pass criterion 7."""
    empty = EnergyDecayReport(start_time=1.0, n_pairs=0, n_slope_violations=0, slope_fraction=1.0,
                              max_slope_violation=0.0, monotone_ok=True, max_increase_rate=0.0,
                              budget_lhs=0.0, budget_rhs=0.0, budget_ok=True)
    monkeypatch.setattr(acceptance, "check_energy_decay", lambda *args, **kwargs: empty)
    assert not run_criterion(7).passed

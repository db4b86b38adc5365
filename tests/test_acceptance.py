"""Top-level acceptance gate: every numbered check at its frozen tolerance.

Each criterion prints exactly one PASS/FAIL line (kept visible through
pytest's capture) so a full run reads as a checklist.  The scenario runs
behind criteria 3, 5, 7, 8, 10, and 11 go through the module-level cache
in preytaxis.acceptance, so runs they share (also with `preytaxis accept`
in tests/test_cli.py) are made once per process.
"""

import pytest

from preytaxis.acceptance import _scenario_result, criterion_numbers, run_criterion


@pytest.mark.parametrize("number", criterion_numbers())
def test_criterion(number, capsys):
    result = run_criterion(number)
    tag = "PASS" if result.passed else "FAIL"
    line = f"{tag} criterion {result.number}: {result.name} - {result.detail}"
    with capsys.disabled():
        print(f"\n{line}", end="", flush=True)
    assert result.passed, line


def test_coexistence_run_is_never_reaction_capped():
    """On the bundled coexistence scenario transport, not the reactions,
    bounds every step (the run is the one criteria 7, 8 and 11 share)."""
    acc = _scenario_result("coexistence_64").accounting
    assert acc.steps > 0
    assert acc.reaction_capped == 0
    assert acc.clamped_cells == 0

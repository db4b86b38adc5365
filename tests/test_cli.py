"""End-to-end command-line behavior via main(argv)."""

import json
import re

import pytest

from preytaxis.cli import main

BASE = "grid.n = 16\nrun.t_end = 0.2\nrun.sample_every = 0.1\n"


def write_cfg(tmp_path, extra="", name="run.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(BASE + f"output.dir = {out}\n" + extra)
    return path, out


def test_run_subcommand(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert main(["run", str(cfg)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "manifest.json").exists()
    assert not (out / "energy.svg").exists()


def test_run_subcommand_svg(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert main(["run", str(cfg), "--svg"]) == 0
    assert (out / "energy.svg").exists()


def test_run_missing_config_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 3


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "params.chi", "--values", "1"]])
def test_unreadable_config_is_usage_error(tmp_path, command):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        assert main([command[0], str(path), *command[1:]]) == 3


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "params.chi", "--values", "1"]])
def test_uncreatable_output_dir_is_usage_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE + f"output.dir = {blocker / 'out'}\n")
    assert main([command[0], str(cfg), *command[1:]]) == 3
    assert "cannot create run directory" in capsys.readouterr().err


def test_run_invalid_value_is_usage_error(tmp_path):
    cfg, _ = write_cfg(tmp_path, extra="params.chi = -2\n")
    assert main(["run", str(cfg)]) == 3


def test_run_with_a_cell_size_whose_inverse_square_overflows_is_usage_error(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, extra="grid.length = 1e-300\n")
    assert main(["run", str(cfg)]) == 3
    assert "finite 1/h^2, so h >= 7.46e-155" in capsys.readouterr().err
    assert not out.exists()


def test_run_and_sweep_at_a_vanishing_chi_certify_the_chi_to_0_limit(tmp_path, monkeypatch):
    """At chi = 1e-300 and 1e-320 the certificate's delta is the limit
    0.99 min(a/b, 1, u* d1/2) = 0.7425, and its manifest is strict JSON."""
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in manifest.json")

    cfg, out = write_cfg(tmp_path, extra="params.chi = 1e-300\n")
    assert main(["run", str(cfg)]) == 0
    assert main(["sweep", str(cfg), "--axis", "params.chi", "--values", "1e-320"]) == 0
    manifests = [out / "manifest.json", *out.glob("params_chi_*/manifest.json")]
    assert len(manifests) == 2
    for manifest in manifests:
        certificate = json.loads(manifest.read_text(), parse_constant=reject)["certificate"]
        assert certificate["delta"] == pytest.approx(0.7425, rel=1e-12)


def test_run_blowup_exit_code(tmp_path):
    cfg, out = write_cfg(tmp_path, extra="initial.u_base = 1e13\n")
    assert main(["run", str(cfg)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination"].startswith("blowup:")


def test_run_beyond_step_budget_exit_code(tmp_path):
    cfg, out = write_cfg(tmp_path, extra="params.m1 = 1e9\n")
    assert main(["run", str(cfg)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination"].startswith("stalled:")
    assert "steps to t_end" in manifest["termination"]
    assert manifest["steps"] == 0
    assert manifest["dt_min"] is None and manifest["dt_max"] is None


def test_run_at_the_predator_logistic_level_clamps_nothing(tmp_path):
    # u = m1 + a v: the per-capita rate is 0 but the reaction's slope is not,
    # so a step sized by the per-capita rate overshoots into negative cells,
    # and step raises BlowUp (exit 2) instead of keeping them
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "params.d1 = 0.01\nparams.d2 = 0.01\nparams.chi = 1\nparams.m1 = 1\nparams.a = 1\n"
        "params.b = 0.03125\nparams.m2 = 0\ngrid.n = 4\ngrid.length = 3\n"
        "initial.u_base = 1\ninitial.v_base = 0.03125\nrun.t_end = 20\nrun.sample_every = 1\n"
        f"output.dir = {out}\n")
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination"] == "completed"


def test_run_at_the_threshold_edge_exits_zero(tmp_path):
    # chi^2 one ulp below the threshold 17/3: the condition holds, but the
    # margin left may round to nothing
    cfg, out = write_cfg(tmp_path, extra="params.chi = 2.380476142847616\n")
    assert main(["run", str(cfg)]) == 0
    certificate = json.loads((out / "manifest.json").read_text())["certificate"]
    if "absent" in certificate:
        assert certificate["absent"].startswith("condition fails: ")
    else:
        assert certificate["delta"] > 0


def test_manifest_is_strict_json_when_the_condition_is_vacuous(tmp_path):
    # m2 <= 0: the smallness threshold is +inf, which JSON cannot hold
    cfg, out = write_cfg(tmp_path, extra="params.m2 = -1.0\n")
    assert main(["run", str(cfg)]) == 0

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in manifest.json")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["certificate"]["threshold"] is None
    assert manifest["certificate"]["holds"] is True


def test_run_with_too_many_samples_is_usage_error(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.n = 4\nrun.t_end = 1\nrun.sample_every = 1e-9\noutput.dir = {out}\n")
    assert main(["run", str(cfg)]) == 3
    assert not out.exists()  # rejected before the run directory is made


def test_sweep_subcommand(tmp_path, monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")
    cfg, out = write_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--axis", "params.chi", "--values", "0.5,1.0"]) == 0
    summary = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 3
    assert (out / "params_chi_0.5" / "manifest.json").exists()


def test_sweep_bad_axis(tmp_path):
    cfg, _ = write_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--axis", "grid.n", "--values", "32"]) == 3


def test_sweep_colliding_values_is_usage_error(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--axis", "params.chi", "--values", "1.0000001,1.0000002"]) == 3
    assert "1.0000001 and 1.0000002" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_values(tmp_path):
    cfg, _ = write_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--axis", "params.chi", "--values", "a,b"]) == 3


def test_accept_single_criterion(capsys):
    assert main(["accept", "--criteria", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS criterion 2:")


def test_accept_rejects_unknown_criterion():
    assert main(["accept", "--criteria", "99"]) == 3


def test_accept_with_an_empty_subset_is_usage_error(capsys):
    """A subset that names no criterion checks nothing; it must not exit 0."""
    assert main(["accept", "--criteria", ","]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "at least one criterion" in err


def test_accept_refinement_criterion_lists_orders_and_errors(capsys):
    # reuses the refinement runs of acceptance criterion 3 when that ran first in this process
    assert main(["accept", "--criteria", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS criterion 3:")
    orders, errors = out.split("; max errors at n = (32, 64, 128): ")
    assert re.search(r"heat \d\.\d{3}, nonlinear \d\.\d{3}", orders)
    assert len(re.findall(r"\d\.\d{3}e-\d\d", errors)) == 6


def test_bad_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 3
    assert main(["oracle", "heat"]) == 3
    assert main([]) == 3


def test_bad_flag_is_usage_error(tmp_path):
    cfg, _ = write_cfg(tmp_path)
    assert main(["run", str(cfg), "--loud"]) == 3

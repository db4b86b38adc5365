"""Scenario execution, run directories, manifests, and sweeps."""

import csv
import json
import math

import pytest

from preytaxis import (
    BlowUp,
    ConfigError,
    StepAccounting,
    build_config,
    diagnostics,
    execute,
    format_csv,
    initial_state,
    parse_items,
    run_scenario,
    run_to_time,
    sweep,
)
from preytaxis import dynamics, runner
from preytaxis.cli import main
from preytaxis.runner import worker_count

BASE = "grid.n = 16\nrun.t_end = 0.2\nrun.sample_every = 0.1\n"


def small_config(extra="", out_dir=None):
    items = parse_items(BASE)
    items.update(parse_items(extra))
    if out_dir is not None:
        items["output.dir"] = str(out_dir)
    return build_config(items)


def test_execute_small_run():
    result = execute(small_config("run.t_end = 0.5"))
    assert result.ok
    assert result.status == "completed"
    assert len(result.records) == 6  # t = 0.0 .. 0.5 in steps of 0.1
    assert result.records[0].t == 0.0
    assert result.final_state.t == 0.5
    assert result.certificate is not None and result.certificate.holds
    assert result.certificate_reason is None
    assert result.accounting.steps > 0
    assert result.wall_clock > 0


def test_execute_without_certificate_still_tracks_energy():
    # chi = 3 violates the smallness condition at the default parameters
    result = execute(small_config("params.chi = 3.0"))
    assert result.ok
    assert result.certificate is None
    assert "condition fails" in result.certificate_reason
    assert all(math.isfinite(r.energy) for r in result.records)


def test_run_scenario_writes_directory(tmp_path):
    out = tmp_path / "run"
    code = run_scenario(small_config(out_dir=out))
    assert code == 0
    for name in ("initial_u.txt", "initial_v.txt", "final_u.txt", "final_v.txt",
                 "diagnostics.csv", "manifest.json"):
        assert (out / name).exists(), name
    assert not (out / "energy.svg").exists()  # svg defaults off

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination"] == "completed"
    assert manifest["steps"] > 0
    assert manifest["config"]["grid.n"] == "16"
    assert manifest["certificate"]["holds"] is True
    assert manifest["certificate"]["m2_relaxed"] > 2.0
    assert manifest["peak_v"] >= 1.0
    assert manifest["scheme"] == "upwind imex ars222 dct C=0.05 tol=5e-06 ssp-rk stages=4 safety=0.9"
    assert 0 < manifest["dt_min"] <= manifest["dt_max"] <= 0.2
    assert 0 < manifest["imex_steps"] <= manifest["steps"]
    assert manifest["imex_rejected_steps"] == 0
    assert manifest["imex_error_rejected_steps"] == 0
    assert manifest["rhs_evaluations"] >= 2 * manifest["steps"]

    csv = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(csv) == 1 + 3  # header + samples at 0, 0.1, 0.2


def test_run_scenario_svg_charts(tmp_path):
    out = tmp_path / "run"
    code = run_scenario(small_config(out_dir=out), svg=True)
    assert code == 0
    for name in ("energy.svg", "dissipation.svg", "distances.svg"):
        text = (out / name).read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


def test_run_scenario_blowup(tmp_path):
    out = tmp_path / "boom"
    code = run_scenario(small_config("initial.u_base = 1e13", out_dir=out))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination"].startswith("blowup:")
    assert (out / "initial_u.txt").exists()
    assert not (out / "final_u.txt").exists()  # no final state to save
    # the t = 0 sample was still captured
    assert len((out / "diagnostics.csv").read_text().strip().splitlines()) == 2


def test_an_inadmissible_ssp_rk_step_ends_the_run_as_a_blowup(tmp_path, monkeypatch):
    """An SSP-RK step is kept only if admissible, as an IMEX step is.  With
    every IMEX trial negative and a positivity bound 1000 times too long,
    advance takes SSP-RK steps at the accuracy bound, and on a cosine
    profile the second goes negative."""
    bounds = dynamics.step_bounds

    def overlong(*args):
        positivity, accuracy = bounds(*args)
        return 1e3 * positivity, accuracy

    monkeypatch.setattr(dynamics, "step_bounds", overlong)
    monkeypatch.setattr(dynamics, "imex_step", lambda y, plan, dt, rates=None, cap=None: -y)
    cosine = "initial.kind = cosine\ninitial.u_amp = 0.5\ninitial.v_amp = 0.5\n"
    config = small_config(cosine)
    acc = StepAccounting()
    with pytest.raises(BlowUp, match="negative"):
        run_to_time(initial_state(config), config.params, config.taxis, config.t_end,
                    config.sample_every, accounting=acc)
    assert (acc.steps, acc.imex_steps, acc.imex_rejected) == (1, 0, 2)
    assert execute(config).status.startswith("blowup: density negative")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE + cosine + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2


def test_execute_reports_a_run_beyond_the_step_budget():
    # m1 = 1e9 passes validation, but the reactions bound every step to
    # C/J = 5e-11 against t_end = 30
    result = execute(build_config({"params.m1": "1e9", "run.t_end": "30"}))
    assert result.status.startswith("stalled: ")
    assert "steps to t_end" in result.status
    assert result.accounting.steps == 0
    assert result.final_state is None
    assert len(result.records) == 1  # the t = 0 sample


def test_execute_is_deterministic():
    cfg = small_config("initial.kind = cosine\ninitial.u_amp = 0.3\ninitial.v_amp = 0.2")
    a = execute(cfg)
    b = execute(cfg)
    assert format_csv(a.records) == format_csv(b.records)


def test_execute_records_each_sampled_state_once(monkeypatch):
    """A step that reaches several sample times is passed to the sink once
    with their count; each state is recorded once, in order, and its row
    repeated per sample time."""
    cfg = small_config("run.t_end = 0.01\nrun.sample_every = 0.0005")
    emitted = []
    run_to_time(initial_state(cfg), cfg.params, cfg.taxis, cfg.t_end, cfg.sample_every,
                sink=lambda t, y, count: emitted.append((t, count)))
    assert sum(count for _, count in emitted) == 21 and len(emitted) < 21

    recorded = []
    original = diagnostics.record

    def counting(grid, times, *args):
        recorded.extend(times)
        return original(grid, times, *args)

    monkeypatch.setattr(diagnostics, "record", counting)
    result = execute(cfg)
    assert len(result.records) == 21  # one row per sample time
    assert recorded == [t for t, _ in emitted]
    assert [r.t for r in result.records] == [t for t, count in emitted for _ in range(count)]


def test_a_completed_run_records_its_last_batch_inside_run_to_time(monkeypatch):
    """The sink records the state at t_end itself, so every record call of
    a completed run, the last batch too, falls inside run_to_time."""
    stepping, record = runner.run_to_time, diagnostics.record
    inside, calls = [False], []

    def bracketed(*args, **kwargs):
        inside[0] = True
        try:
            return stepping(*args, **kwargs)
        finally:
            inside[0] = False

    def counting(*args):
        calls.append(inside[0])
        return record(*args)

    monkeypatch.setattr(runner, "run_to_time", bracketed)
    monkeypatch.setattr(diagnostics, "record", counting)
    result = execute(small_config())  # 16 cells, 3 sample times: one batch
    assert result.ok and len(result.records) == 3
    assert calls == [True]


def test_a_blowup_keeps_the_rows_of_the_states_still_queued(monkeypatch):
    """A 16-cell run records 256 states per call, so the states emitted
    before a BlowUp are all still queued when it is raised; each keeps one
    row per sample time it filled, the same row it gets on its own.  The
    expected rows come from copies taken as the sink receives each state,
    so a stepper that wrote again to a state it had handed out would
    change the queued rows but not these."""
    cfg = small_config("initial.kind = cosine\ninitial.u_amp = 0.3\ninitial.v_amp = 0.2\n"
                       "run.sample_every = 0.005")
    original, steps = dynamics.advance, []

    def failing(*args):
        if len(steps) == 6:
            raise BlowUp("field left [0, 1e12] (test)")
        steps.append(None)
        return original(*args)

    monkeypatch.setattr(dynamics, "advance", failing)
    emitted = []
    with pytest.raises(BlowUp):
        run_to_time(initial_state(cfg), cfg.params, cfg.taxis, cfg.t_end, cfg.sample_every,
                    sink=lambda t, y, count: emitted.append((t, y.copy(), count)))
    assert len(emitted) == 7 and sum(count for _, _, count in emitted) > 7

    steps.clear()
    calls = []
    record = diagnostics.record

    def counting(grid, times, states, *args):
        calls.append(len(states))
        return record(grid, times, states, *args)

    monkeypatch.setattr(diagnostics, "record", counting)
    result = execute(cfg)
    assert result.status == "blowup: field left [0, 1e12] (test)"
    assert calls == [len(emitted)]
    ss = result.steady_state
    alone = [record(cfg.grid, [t], [y], cfg.params, ss, result.certificate)[0] for t, y, _ in emitted]
    assert result.records == [row for row, (_, _, count) in zip(alone, emitted) for _ in range(count)]


def read_summary(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_sweep_sequential(tmp_path, monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")
    items = parse_items(BASE)
    summary = sweep(items, "params.chi", [0.5, 1.0], out_dir=str(tmp_path))
    assert summary == tmp_path / "sweep_summary.csv"
    rows = read_summary(summary)
    assert [r["value"] for r in rows] == ["0.5", "1"]
    assert all(r["status"] == "completed" for r in rows)
    assert all(float(r["t_final"]) == 0.2 for r in rows)
    for tag in ("params_chi_0.5", "params_chi_1"):
        assert (tmp_path / tag / "manifest.json").exists()
        assert not (tmp_path / tag / "energy.svg").exists()  # members write no charts


def test_sweep_summary_names_a_stalled_member(tmp_path, monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")
    summary = sweep(parse_items(BASE), "params.m1", [1.0, 1e9], out_dir=str(tmp_path))
    assert [r["status"] for r in read_summary(summary)] == ["completed", "stalled"]
    manifest = json.loads((tmp_path / "params_m1_1e+09" / "manifest.json").read_text())
    assert manifest["termination"].startswith("stalled: ")


def test_sweep_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "2")
    items = parse_items(BASE)
    summary = sweep(items, "params.eps", [0.0, 0.1], out_dir=str(tmp_path))
    rows = read_summary(summary)
    assert len(rows) == 2
    assert all(r["status"] == "completed" for r in rows)


def test_sweep_records_member_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")
    items = parse_items(BASE)
    rows = read_summary(sweep(items, "params.d1", [1.0, -1.0], out_dir=str(tmp_path)))
    assert rows[0]["status"] == "completed"
    assert rows[1]["status"].startswith("config-error")


def test_sweep_summary_quotes_a_status_holding_a_comma(tmp_path, monkeypatch):
    """A member whose run directory is blocked by a file reports the OSError,
    path and all; a comma in that path stays inside the status cell."""
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")
    root = tmp_path / "a,b" / "root"
    root.mkdir(parents=True)
    (root / "params_d1_1").write_text("")
    summary = sweep(parse_items(BASE), "params.d1", [1.0, 2.0], out_dir=str(root))
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [10, 10, 10]
    status = dict(zip(rows[0], rows[1]))["status"]
    assert status.startswith("config-error cannot create run directory:")
    assert str(root / "params_d1_1") in status
    assert dict(zip(rows[0], rows[2]))["status"] == "completed"


def test_sweep_member_at_the_threshold_edge_is_a_summary_row(tmp_path, monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "1")
    edge = 2.380476142847616  # chi^2 one ulp below the default parameters' threshold 17/3
    rows = read_summary(sweep(parse_items(BASE), "params.chi", [1.0, edge], out_dir=str(tmp_path)))
    assert [r["status"] for r in rows] == ["completed", "completed"]
    assert float(rows[1]["value"]) == edge


@pytest.mark.parametrize(
    "values, shown",
    [([1.0000001, 1.0000002], "1.0000001 and 1.0000002"), ([1.0, 1.0], "1.0 and 1.0")],
)
def test_sweep_rejects_values_sharing_a_directory(tmp_path, values, shown):
    root = tmp_path / "sweep"
    with pytest.raises(ConfigError, match=f"{shown} both map to directory params_chi_1"):
        sweep(parse_items(BASE), "params.chi", values, out_dir=str(root))
    assert not root.exists()  # rejected before any run starts


def test_sweep_validation(tmp_path):
    items = parse_items(BASE)
    with pytest.raises(ConfigError):
        sweep(items, "params.chi", [], out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        sweep(items, "grid.n", [32.0], out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        sweep({"params.chi": "-5"}, "params.eps", [0.0], out_dir=str(tmp_path))


def test_worker_count(monkeypatch):
    monkeypatch.setenv("PREYTAXIS_WORKERS", "3")
    assert worker_count(8) == 3
    assert worker_count(2) == 2
    monkeypatch.setenv("PREYTAXIS_WORKERS", "x")
    with pytest.raises(ConfigError):
        worker_count(4)
    monkeypatch.setenv("PREYTAXIS_WORKERS", "0")
    with pytest.raises(ConfigError):
        worker_count(4)
    monkeypatch.delenv("PREYTAXIS_WORKERS")
    assert 1 <= worker_count(4) <= 4

"""tools/bench_result.py: the strict check of a benchmark run's result line."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_result", Path(__file__).resolve().parent.parent / "tools" / "bench_result.py")
bench_result = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_result)

CONTEXT = json.dumps({"context": {"workload": "epsfam_1d"}})


def output(**changes):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 0.03, "unit": "s"},
                          "dynamics.clamped_cells": {"value": 0.0, "unit": "count"}}}
    result.update(changes)
    return f"{CONTEXT}\n{json.dumps(result)}\n"


def test_clean_run_passes():
    assert bench_result.failure(output()) == ""
    assert bench_result.failure(output(), no_clamping=True) == ""


@pytest.mark.parametrize("text, why", [
    # json.dumps writes a NaN median as a bare NaN, which json.load accepts
    (output(metrics={"wall_s": {"value": float("nan"), "unit": "s"}}), "not strict JSON"),
    (output(metrics={"wall_s": {"value": float("inf"), "unit": "s"}}), "not strict JSON"),
    (output() + "Traceback (most recent call last):\n", "not strict JSON"),
    (CONTEXT + "\n", "not an object with the keys"),
    ("[1, 2]\n", "not an object with the keys"),
    ("", "no output"),
    (output(failed=3, correct=False), "3 of 3 calls failed"),
], ids=["nan", "infinity", "traceback-after", "context-only", "not-an-object", "empty", "failed-calls"])
def test_malformed_or_failed_runs_fail(text, why):
    assert why in bench_result.failure(text)


def test_clamped_cells_fail_only_when_asked():
    text = output(metrics={"dynamics.clamped_cells": {"value": 2.0, "unit": "count"}})
    assert bench_result.failure(text) == ""
    assert "clamped_cells is 2.0" in bench_result.failure(text, no_clamping=True)


def test_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(output(failed=1)))
    assert bench_result.main([]) == 1
    assert "1 of 3 calls failed" in capsys.readouterr().out

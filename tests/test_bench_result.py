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
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def complete(kind, **values):
    """Every metric of BENCHMARK.json's `kind` list at 0, apart from `values`."""
    metrics = {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in BENCHMARK[kind]}
    for name, value in values.items():
        metrics[name]["value"] = value
    return metrics


def output(kind="end_to_end", **changes):
    """The output of an untraced run (kind end_to_end) or a traced one
    (per_layer) with every metric its BENCHMARK.json list names."""
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": complete(kind)}
    result.update(changes)
    return f"{CONTEXT}\n{json.dumps(result)}\n"


def without(kind, name):
    metrics = complete(kind)
    del metrics[name]
    return output(metrics=metrics)


def test_clean_run_passes():
    assert bench_result.failure(output()) == ""
    assert bench_result.failure(output("per_layer")) == ""
    assert bench_result.failure(output("per_layer"), no_clamping=True) == ""


@pytest.mark.parametrize("text, why", [
    # json.dumps writes a NaN median as a bare NaN, which json.load accepts
    (output(metrics=complete("end_to_end", wall_s=float("nan"))), "not strict JSON"),
    (output(metrics=complete("end_to_end", wall_s=float("inf"))), "not strict JSON"),
    (output() + "Traceback (most recent call last):\n", "not strict JSON"),
    (CONTEXT + "\n", "not an object with the keys"),
    ("[1, 2]\n", "not an object with the keys"),
    ("", "no output"),
    (output(failed=3, correct=False), "3 of 3 calls failed"),
    (without("per_layer", "grid.face_gradient_values.us_per_call"),
     "no finite value for the per_layer metrics grid.face_gradient_values.us_per_call"),
    (without("end_to_end", "setup_s"), "no finite value for the end_to_end metrics setup_s"),
    (output(metrics=complete("end_to_end", peak_rss_mib=None)),
     "no finite value for the end_to_end metrics peak_rss_mib"),
], ids=["nan", "infinity", "traceback-after", "context-only", "not-an-object", "empty", "failed-calls",
        "missing-per-layer-name", "missing-end-to-end-name", "null-value"])
def test_malformed_or_failed_runs_fail(text, why):
    assert why in bench_result.failure(text)


def test_clamped_cells_fail_only_when_asked():
    text = output(metrics=complete("per_layer", **{"dynamics.clamped_cells": 2.0}))
    assert bench_result.failure(text) == ""
    assert "clamped_cells is 2.0" in bench_result.failure(text, no_clamping=True)


def test_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(output(failed=1)))
    assert bench_result.main([]) == 1
    assert "1 of 3 calls failed" in capsys.readouterr().out

"""tools/drift.py: the drift report between two trees of run directories."""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from preytaxis import build_config, parse_items, run_scenario

_spec = importlib.util.spec_from_file_location(
    "drift", Path(__file__).resolve().parent.parent / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "base"
    items = parse_items("grid.n = 16\nrun.t_end = 0.2\nrun.sample_every = 0.1\n")
    items["output.dir"] = str(out)
    assert run_scenario(build_config(items), svg=True) == 0
    return out


def test_copies_pass_exact_even_with_another_wall_time(run_dir, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    assert drift.main([str(run_dir), str(copy), "--exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(line.endswith(": identical") for line in lines)

    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["wall_clock_seconds"] += 1.0
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert drift.main([str(run_dir), str(copy), "--exact"]) == 0
    assert "manifest.json: identical apart from wall_clock_seconds" in capsys.readouterr().out


def test_changed_csv_value_fails_exact_and_names_its_column(run_dir, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    with open(copy / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("energy")
    rows[2][column] = repr(float(rows[2][column]) * (1.0 + 1e-9))
    with open(copy / "diagnostics.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    assert drift.main([str(run_dir), str(copy)]) == 0  # a report, not a gate
    assert drift.main([str(run_dir), str(copy), "--exact"]) == 1
    out = capsys.readouterr().out
    assert "diagnostics.csv: rows 3 -> 3" in out
    moved = [line.split() for line in out.splitlines() if line.startswith("  energy ")]
    assert moved and 0.0 < float(moved[-1][1]) < 1e-8
    assert "1 of 13 shared columns moved" in out


def test_dropped_csv_column_is_named_and_shared_columns_still_compared(run_dir, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    with open(copy / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("entropy_v")
    rows = [row[:column] + row[column + 1:] for row in rows]
    with open(copy / "diagnostics.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    assert drift.main([str(run_dir), str(copy)]) == 0
    assert drift.main([str(run_dir), str(copy), "--exact"]) == 1
    lines = capsys.readouterr().out.splitlines()
    report = lines[lines.index("diagnostics.csv: rows 3 -> 3") + 1:][:2]
    assert report == ["  columns only in base: entropy_v", "  0 of 12 shared columns moved"]

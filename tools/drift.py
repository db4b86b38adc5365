"""Drift report between two trees of run directories.

    python tools/drift.py BASE_DIR NEW_DIR [--exact]

Files under the two directories are matched by relative path, and each
is reported as "identical" or by how far it moved:

- diagnostics.csv: the row counts, the columns found on one side only,
  and, for each column both sides share (matched by name) that moved,
  the largest |delta| over the column's largest |value| in BASE_DIR;
- snapshots (*.txt): the relative L1 distance of the cell values and the
  difference of the header times;
- manifest.json: the keys whose values differ, leaving out
  wall_clock_seconds, which no two runs share;
- any other file: "differs".

The exit code is 0 whatever the drift.  With --exact it is 1 when a
file differs (a manifest beyond its wall_clock_seconds) or exists on
one side only.  Needs numpy and the preytaxis package on the path
(PYTHONPATH=src or an installed checkout).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from preytaxis import read_snapshot


def _relative(delta: float, scale: float) -> float:
    if delta == 0.0:
        return 0.0
    return delta / scale if scale > 0.0 else math.inf


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        head, *rows = list(csv.reader(fh))
    return head, np.array(rows, dtype=float).reshape(len(rows), len(head))


def _csv_report(base: Path, new: Path) -> list[str]:
    head_a, a = _read_csv(base)
    head_b, b = _read_csv(new)
    lines = [f"rows {len(a)} -> {len(b)}"]
    for side, names in (("base", [n for n in head_a if n not in head_b]),
                        ("new", [n for n in head_b if n not in head_a])):
        if names:
            lines.append(f"  columns only in {side}: {', '.join(names)}")
    shared = [n for n in head_a if n in head_b]
    common = min(len(a), len(b))
    if common == 0:
        return lines
    moved = 0
    for name in shared:
        col_a = a[:common, head_a.index(name)]
        col_b = b[:common, head_b.index(name)]
        same = (col_a == col_b) | (np.isnan(col_a) & np.isnan(col_b))
        if same.all():
            continue
        moved += 1
        delta = float(np.abs(col_b - col_a)[~same].max())
        scale = float(np.abs(col_a).max())
        lines.append(f"  {name:<16} {_relative(delta, scale):.3e}")
    lines.append(f"  {moved} of {len(shared)} shared columns moved")
    return lines


def _snapshot_report(base: Path, new: Path) -> list[str]:
    field_a, t_a = read_snapshot(base)
    field_b, t_b = read_snapshot(new)
    if field_a.grid != field_b.grid:
        return [f"grids differ: {field_a.grid} vs {field_b.grid}"]
    delta = float(np.abs(field_b.values - field_a.values).sum())
    l1 = _relative(delta, float(np.abs(field_a.values).sum()))
    return [f"relative L1 {l1:.3e}, t moved by {t_b - t_a:+.3e}"]


def _flatten(obj, prefix: str = "") -> dict[str, str]:
    if not isinstance(obj, dict):
        return {prefix: repr(obj)}
    out: dict[str, str] = {}
    for key, value in obj.items():
        out.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def _manifest_report(base: Path, new: Path) -> list[str]:
    a = _flatten(json.loads(base.read_text()))
    b = _flatten(json.loads(new.read_text()))
    keys = sorted(k for k in a.keys() | b.keys() if k != "wall_clock_seconds" and a.get(k) != b.get(k))
    return [f"differs in {', '.join(keys)}" if keys else "identical apart from wall_clock_seconds"]


def _report(base: Path, new: Path) -> tuple[list[str], bool]:
    """Lines describing how new moved from base, and whether it counts as a
    difference under --exact."""
    if base.read_bytes() == new.read_bytes():
        return ["identical"], False
    if base.name == "diagnostics.csv":
        return _csv_report(base, new), True
    if base.name == "manifest.json":
        lines = _manifest_report(base, new)
        return lines, lines[0].startswith("differs")
    if base.suffix == ".txt":
        return _snapshot_report(base, new), True
    return ["differs"], True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="directory of the baseline runs")
    parser.add_argument("new", type=Path, help="directory of the runs to compare")
    parser.add_argument("--exact", action="store_true",
                        help="exit 1 if any file differs beyond a manifest's wall time")
    args = parser.parse_args(argv)
    for root in (args.base, args.new):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")

    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    in_base, in_new = files(args.base), files(args.new)
    differs = False
    for rel in sorted(in_base | in_new):
        if rel not in in_new or rel not in in_base:
            lines, moved = [f"only in {'base' if rel in in_base else 'new'}"], True
        else:
            lines, moved = _report(args.base / rel, args.new / rel)
        differs |= moved
        print(f"{rel}: {lines[0]}")
        for line in lines[1:]:
            print(line)
    return 1 if args.exact and differs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every exported name resolves, every name a demo or benchmark script
imports exists, every attribute the benchmark's tracer wraps exists, the
benchmark's stored reference inputs are the ones its workloads generate,
and every subcommand README lists exists."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import preytaxis
from preytaxis.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
README_SUBCOMMANDS = re.findall(r"^preytaxis (\S+)", (ROOT / "README.md").read_text(), re.MULTILINE)
MODULES = sorted(info.name for info in pkgutil.iter_modules(preytaxis.__path__))


@pytest.mark.parametrize("module", ["preytaxis"] + [f"preytaxis.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def missing_imports(path: Path) -> list[str]:
    """Names a script imports from preytaxis that do not exist, found by
    parsing it, not running it."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "preytaxis" and importlib.util.find_spec(alias.name) is None:
                    missing.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "preytaxis":
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(mod, a.name)]
    return missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    """A demo left calling a deleted function fails here."""
    missing = missing_imports(demo)
    assert not missing, f"{demo.name} imports names that do not exist: {missing}"


@pytest.mark.parametrize("script", BENCH, ids=lambda p: p.name)
def test_bench_imports_exist(script):
    """bench/run.py prints no result line when a name it imports is gone."""
    missing = missing_imports(script)
    assert not missing, f"bench/{script.name} imports names that do not exist: {missing}"


def load_bench_module(name: str):
    """bench/<name>.py loaded as the module bench_<name>, not run as a
    script; it is registered first, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Span targets bench/spans.py still lists but the package dropped on
# purpose; the tracer skips them.  Remove an entry when the benchmark does.
STALE_SPAN_TARGETS = {
    # rhs takes the prey's divergence of the face gradients it already
    # formed; grid.laplacian_values is still wrapped
    "preytaxis.dynamics.laplacian_values",
    # dynamics no longer integrates; grid.integrate_values is still wrapped
    "preytaxis.dynamics.integrate_values",
    # rhs accumulates the divergence of its fluxes onto the reactions in
    # place (grid.accumulate_divergence); grid.divergence_values is still
    # wrapped
    "preytaxis.dynamics.divergence_values",
}


def test_bench_span_targets_exist():
    """Every (module, attribute) the traced benchmark run wraps exists,
    apart from the known stale ones."""
    spans = load_bench_module("spans")
    missing = {f"{mod.__name__}.{attr}" for mod, attr, _ in spans.TARGETS if not hasattr(mod, attr)}
    assert missing == STALE_SPAN_TARGETS, f"bench/spans.py wraps attributes that do not exist: {missing}"


def test_bench_reference_inputs_match_the_workloads():
    """Each workload's default-seed input is the config text stored with
    its reference final state, so an edit to a bundled scenario the
    benchmark draws from, a comment included, fails here and not in the
    reference call of every benchmark run."""
    workloads = load_bench_module("workloads")
    seed = load_bench_module("run").DEFAULT_SEED
    stored = np.load(ROOT / "bench" / "reference.npz")
    for name, workload in workloads.WORKLOADS.items():
        assert str(stored[f"{name}.cfg"]) == next(workload.inputs(seed)), name


def test_traced_bench_call_gives_strict_json_and_no_clamped_cell(tmp_path):
    """One traced default-seed call of the 1-D epsfam_1d, the 2-D
    coexist_2d and the 2-D dense_rundir_2d workload (the CLI and the file
    writers), as bench/run.py --trace 1 makes it: each call succeeds
    under the shims, its per-layer metrics serialise as strict JSON,
    which the result line must be, and the clamped-cell count the
    benchmark reads is 0.  Every per-layer metric is measured: a kernel
    that stepping stops calling through its module attribute leaves a
    metric unmeasured, and the result line then lacks its name.  All
    three workloads run in this one test."""
    spans = load_bench_module("spans")
    workloads = load_bench_module("workloads").WORKLOADS
    seed = load_bench_module("run").DEFAULT_SEED
    for name in ("epsfam_1d", "coexist_2d", "dense_rundir_2d"):
        workload = workloads[name]
        text = next(workload.inputs(seed))
        tracer = spans.Tracer()
        (tmp_path / name).mkdir()
        with tracer.installed():
            traced = workload.call(text, tmp_path / name)
        assert traced.ok, (name, traced.failure)
        json.dumps(tracer.layer_metrics(traced.steps, workload.cells(), traced.wall_s), allow_nan=False)
        assert traced.clamped_cells == 0, name
        assert tracer.not_measured == {}, name
        assert set(tracer.missing) == STALE_SPAN_TARGETS, name


def test_readme_lists_commands():
    assert len(README_SUBCOMMANDS) >= 3


@pytest.mark.parametrize("sub", README_SUBCOMMANDS)
def test_readme_subcommand_exists(sub):
    """An unknown subcommand returns the usage-error code 3 instead."""
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0

"""Every exported name resolves, every name a demo imports exists, and
every subcommand README lists exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import preytaxis
from preytaxis.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_SUBCOMMANDS = re.findall(r"^preytaxis (\S+)", (ROOT / "README.md").read_text(), re.MULTILINE)
MODULES = sorted(info.name for info in pkgutil.iter_modules(preytaxis.__path__))


@pytest.mark.parametrize("module", ["preytaxis"] + [f"preytaxis.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    """Parsed, not run: a demo left calling a deleted function fails here."""
    missing = []
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "preytaxis":
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(mod, a.name)]
    assert not missing, f"{demo.name} imports names that do not exist: {missing}"


def test_readme_lists_commands():
    assert len(README_SUBCOMMANDS) >= 3


@pytest.mark.parametrize("sub", README_SUBCOMMANDS)
def test_readme_subcommand_exists(sub):
    """An unknown subcommand returns the usage-error code 3 instead."""
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0

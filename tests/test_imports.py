"""Import hygiene of the package, checked with ``ast`` in place of a linter."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeasym

PACKAGE = Path(treeasym.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, skipping lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    source = "import math\nfrom fractions import Fraction\nx = math.pi\n"
    assert unused_imports(source) == ["Fraction (line 2)"]
    assert unused_imports("from fractions import Fraction  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_public_names_resolve():
    missing = [name for name in treeasym.__all__ if not hasattr(treeasym, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from treeasym import *", namespace)
    assert [name for name in treeasym.__all__ if name not in namespace] == []


def test_dir_lists_the_public_names():
    assert set(treeasym.__all__) <= set(dir(treeasym))


def test_error_classes_keep_their_names_and_import_nothing():
    from treeasym import errors, series, solver

    names = ("SolverError", "NoBracketError", "StalledError")
    assert [getattr(solver, n) for n in names] == [getattr(errors, n) for n in names]
    assert series.TruncationWarning is errors.TruncationWarning
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_submodule_resolves_as_a_package_attribute(path):
    # a fresh interpreter, so the attribute access is what imports the module
    probe = (f"import sys, treeasym; assert 'treeasym.{path.stem}' not in sys.modules; "
             f"assert treeasym.{path.stem} is sys.modules['treeasym.{path.stem}']")
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})


def test_benchmark_patch_points_resolve(monkeypatch):
    # the benchmark wraps these names by lookup; a deleted or renamed one
    # fails here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    program = importlib.import_module("program")
    missing = []
    for owner, key, name, _ in layers.patch_points(program.import_treeasym()):
        found = key in owner if isinstance(owner, dict) else hasattr(owner, key)
        if not found:
            missing.append(f"{key} ({name})")
    assert missing == []

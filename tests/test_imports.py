"""Import hygiene of the package, checked with ``ast`` in place of a linter."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

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


def imported_modules(source: str) -> set[str]:
    """Modules that ``source`` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_no_module_imports_dataclasses():
    # it loads inspect, ast, dis and tokenize, and execs the methods of every
    # class: about 10 ms of every cold command; records subclass Record instead
    offenders = [path.name for path in PACKAGE.glob("*.py")
                 if "dataclasses" in imported_modules(path.read_text())]
    assert offenders == []


def test_records_imports_nothing():
    tree = ast.parse((PACKAGE / "records.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("argv", [
    ["counts", "polya", "--n", "30"],
    ["expand", "polya", "--order", "1", "--digits", "30", "--terms", "60"],
    ["estimate", "polya", "--size", "10", "--order", "1", "--digits", "30", "--terms", "60"],
    ["error-table", "polya", "--sizes", "10", "--orders", "1", "--digits", "30",
     "--terms", "60"],
    ["verify-oeis", "identity", "--n", "30"],
], ids=lambda argv: argv[0])
def test_cli_commands_leave_dataclasses_and_inspect_unloaded(argv):
    probe = ("import contextlib, io, sys\nfrom treeasym.cli import main\n"
             f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv}) == 0\n"
             "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert proc.stdout.strip() == ""


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


def benchmark_only_imports(source: str) -> list[str]:
    """Names imported with ``# noqa: F401`` in a block under a "the benchmark traces" comment."""
    names, in_block = [], False
    for line in source.splitlines():
        if line.startswith("#"):
            in_block = "the benchmark traces" in line
        elif not (in_block and line.startswith("from ") and "# noqa: F401" in line):
            in_block = False
        else:
            names += [n.strip() for n in line.split(" import ")[1].split("#")[0].split(",")]
    return names


def test_benchmark_only_import_detector():
    source = ("# Not called here; the benchmark traces these names (perfbench/layers.py).\n"
              "from .kernels import b_seq  # noqa: F401\n"
              "from .solver import solve_rho, x  # noqa: F401\n\n"
              "# Re-exported for callers.\n"
              "from .counts import VARIETIES  # noqa: F401\n")
    assert benchmark_only_imports(source) == ["b_seq", "solve_rho", "x"]


def test_benchmark_only_imports_are_patch_points(monkeypatch):
    # an import kept only for the benchmark's patch points outlives its reason
    # once the benchmark stops patching that name there
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    program = importlib.import_module("program")
    points = {(owner.__name__, key) for owner, key, _, _ in
              layers.patch_points(program.import_treeasym()) if isinstance(owner, ModuleType)}
    kept = {(f"treeasym.{path.stem}", name) for path in MODULES
            for name in benchmark_only_imports(path.read_text())}
    assert kept and kept <= points, sorted(kept - points)

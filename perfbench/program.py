"""The program under test: locating ``treeasym`` in the checkout and setting it up.

The benchmark imports ``treeasym`` from ``src/`` of the checkout it lives
in, never from an installed copy, and fails when that source is missing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = ROOT / "tests" / "reference_values.py"
VARIETIES = ("polya", "identity", "hierarchy")
MODULES = ("series", "varieties", "solver", "expansions", "kernels", "counts", "oeis", "cli")

#: Kernels cache depth each workload needs: (tau order L, singular order K = 2L+1).
KERNEL_ORDERS = {"rho-digits": (8, 17), "paper-tables": (18, 37), "cli-cold": (18, 37)}
#: Workloads whose ops read the bundled b-files.
FIXTURE_WORKLOADS = ("exact-counts", "cli-cold")


class ProgramMissing(RuntimeError):
    """The checkout holds no ``treeasym`` source or no reference values."""


def import_treeasym() -> SimpleNamespace:
    """Import every ``treeasym`` module from the checkout's ``src/``."""
    if not (SRC / "treeasym" / "__init__.py").is_file() or not REFERENCES.is_file():
        raise ProgramMissing(f"no treeasym source or reference values under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"treeasym.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"treeasym was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload: str) -> SimpleNamespace:
    """The set-up timed as ``setup_s``: import, fill kernels caches, parse fixtures."""
    ta = import_treeasym()
    if workload in KERNEL_ORDERS:
        L, K = KERNEL_ORDERS[workload]
        for ell in range(L + 1):
            ta.kernels.tau_symbolic(ell)
        for n in range(1, K + 1):
            ta.kernels.b_seq(n)
    fixtures = {}
    if workload in FIXTURE_WORKLOADS:
        fixtures = {v: ta.oeis.load_fixture(ta.oeis.SEQUENCE_IDS[v]) for v in VARIETIES}
    return SimpleNamespace(ta=ta, fixtures=fixtures)

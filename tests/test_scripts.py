import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import treeasym
from treeasym.expansions import expand_variety
from treeasym.hp import agreement_digits, context, to_decimal
from treeasym.series import TruncationWarning

from reference_values import RHO_50

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _reproduce_tables(tmp_path, *args):
    src = Path(treeasym.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(SCRIPTS / "reproduce_tables.py"), *args],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return proc


def test_reproduce_tables_smoke(tmp_path):
    proc = _reproduce_tables(tmp_path)
    ctx = context(60)
    rho_lines = [line.split() for line in proc.stdout.splitlines() if " rho = " in line]
    assert [fields[0] for fields in rho_lines] == ["polya", "identity", "hierarchy"]
    for variety, _, _, value, _ in rho_lines:
        assert agreement_digits(ctx.mpf(value), ctx.mpf(RHO_50[variety]), ctx) >= 49, variety
    ratios = tmp_path / "ratio_hierarchy.csv"
    assert ratios.read_text().splitlines()[0] == "size,order,ratio"


def _table(stdout: str, title: str) -> list:
    """The value rows of the table whose heading starts with ``title``."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title)) + 2
    rows = []
    for line in lines[start:]:
        if not line.strip():
            return rows
        rows.append(line.split()[1:])
    return rows


def _significant_digits(text: str) -> int:
    """Digits of a printed decimal from its first nonzero one; a trailing ``.0`` adds none."""
    mantissa = text.lstrip("-").split("e")[0]
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return len(mantissa.replace(".", "").lstrip("0")) or 1


# N=120, D=60 certifies identity's t_18 to 14 digits only (VARIETIES order)
@pytest.mark.parametrize("terms, digits", [(300, 80), (120, 60)])
def test_reproduce_tables_print_certified_digits(tmp_path, terms, digits):
    proc = _reproduce_tables(tmp_path, "--terms", str(terms), "--digits", str(digits))
    varieties = ("polya", "identity", "hierarchy")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        results = [expand_variety(v, L=18, N=terms, D=digits) for v in varieties]
    tables = [
        ("=== singular-expansion coefficients t_n", [(r.puiseux.t, r.puiseux.certified_digits)
                                                     for r in results]),
        ("=== asymptotic-expansion coefficients tau_l", [(r.asym.tau, r.asym.certified_digits)
                                                         for r in results]),
    ]
    ctx, shorter = results[0].asym.ctx, 0
    for title, columns in tables:
        rows = _table(proc.stdout, title)
        assert len(rows) == 19, title
        for n, row in enumerate(rows):
            for text, (values, certified) in zip(row, columns):
                shown = min(19, certified[n] + 2)
                assert text == to_decimal(values[n], shown, ctx), (title, n)
                assert _significant_digits(text) <= shown, (title, n, text, certified[n])
                shorter += shown < 19
    assert shorter > 0 if terms == 120 else shorter == 0

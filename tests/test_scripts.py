import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import treeasym
from treeasym import hp
from treeasym.expansions import expand_variety
from treeasym.hp import agreement_digits, context, to_decimal
from treeasym.series import TruncationWarning

from reference_values import RHO_50

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


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
    assert proc.stderr == ""


def test_reproduce_tables_warns_where_the_count_reach_is_short(tmp_path):
    # L = 18 reads the model to order 19: count reach 74 proves 70 digits of
    # polya and 54 of identity, short of 80, and 88 of hierarchy
    proc = _reproduce_tables(tmp_path, "--terms", "74", "--digits", "80")
    warned = [line.partition("TruncationWarning: ")[2] for line in proc.stderr.splitlines()
              if "TruncationWarning: " in line]
    assert warned == [f"count reach 74 proves {digits} digits; truncation order 74 is small "
                      f"for 80 digits" for digits in (70, 54)]


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


# From N = 74 on, the least N that L = 18 allows, every value certifies 27
# digits or more, so rows print short only where the certified counts are
# capped, as the second case caps them at 15; the script runs in-process so
# that the cap reaches it
@pytest.mark.parametrize("terms, digits", [(300, 80), (120, 60)])
def test_reproduce_tables_print_certified_digits(tmp_path, monkeypatch, capsys, terms, digits):
    read_certified, cap = hp.read_certified, 15 if terms == 120 else digits

    def capped(*args):
        value, certified = read_certified(*args)
        return value, min(certified, cap)

    monkeypatch.setattr(hp, "read_certified", capped)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--terms", str(terms),
                                      "--digits", str(digits)])
    runpy.run_path(str(SCRIPTS / "reproduce_tables.py"), run_name="__main__")
    stdout = capsys.readouterr().out
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
        rows = _table(stdout, title)
        assert len(rows) == 19, title
        for n, row in enumerate(rows):
            for text, (values, certified) in zip(row, columns):
                shown = min(19, certified[n] + 2)
                assert text == to_decimal(values[n], shown, ctx), (title, n)
                assert _significant_digits(text) <= shown, (title, n, text, certified[n])
                shorter += shown < 19
    assert shorter > 0 if terms == 120 else shorter == 0


def test_readme_library_snippet_prints_its_comments(tmp_path):
    # the first python block under "Library use": each print line carries its
    # output as a trailing comment, a "..." comment a prefix of it
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library use")) + len("```python\n")
    block = text[start:text.index("```", start)]
    comments = [line.partition("#")[2].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert comments and all(comments)
    src = Path(treeasym.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment


def test_readme_variety_spec_snippet_prints_and_raises_as_commented(capsys):
    # the python block under "A variety is one `VarietySpec`": a print line
    # carries its output as a comment, the last line the error it raises
    text = README.read_text()
    start = text.index("```python\n", text.index("A variety is one `VarietySpec`"))
    start += len("```python\n")
    *lines, last = text[start:text.index("```", start)].strip().splitlines()
    namespace = {}
    exec("\n".join(lines), namespace)
    assert capsys.readouterr().out == "(0, 1, 1, 2, 5, 12, 33)\n"
    assert lines[-1].partition("#")[2].strip() == "(0, 1, 1, 2, 5, 12, 33)"
    assert last.partition("#")[2].strip() == "ArithmeticError: inexact division at n=2"
    with pytest.raises(ArithmeticError, match="^inexact division at n=2:"):
        exec(last, namespace)

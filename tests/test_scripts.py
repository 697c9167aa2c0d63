import os
import subprocess
import sys
from pathlib import Path

import treeasym
from treeasym.hp import agreement_digits, context

from reference_values import RHO_50

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_reproduce_tables_smoke(tmp_path):
    src = Path(treeasym.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(SCRIPTS / "reproduce_tables.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    ctx = context(60)
    rho_lines = [line.split() for line in proc.stdout.splitlines() if " rho = " in line]
    assert [fields[0] for fields in rho_lines] == ["polya", "identity", "hierarchy"]
    for variety, _, _, value, _ in rho_lines:
        assert agreement_digits(ctx.mpf(value), ctx.mpf(RHO_50[variety]), ctx) >= 49, variety
    ratios = tmp_path / "ratio_hierarchy.csv"
    assert ratios.read_text().splitlines()[0] == "size,order,ratio"

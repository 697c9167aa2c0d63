"""The four workloads: what one op is, one pass of ops, and how each op is checked.

One op is one request from a single client in a closed loop.  The outputs
are deterministic mathematics, so the workload seed only permutes the ops
within a pass and picks the ``estimate`` size from :data:`ESTIMATE_SIZES`.

* ``rho-digits``: time to 40 certified digits of ``rho`` (ROADMAP aim 1).
  One op per variety runs ``expand_variety(v, L=8, D=40)`` at N = 100, 200,
  400, ... until ``rho`` certifies 40 digits.
* ``paper-tables``: the ``scripts/reproduce_tables.py`` configuration.  One
  op per variety runs ``expand_variety(v, L=18, N=300, D=80)``; a fourth
  evaluates the hierarchy error table on sizes up to 2000 and orders up to
  18 from an expansion and exact counts prepared before the timed loop.
* ``exact-counts``: one op per variety computes the counts to n = 2000,
  checks n <= 200 against the product-form oracle and runs
  ``oeis.verify_counts`` against the bundled b-file to n = 500.
* ``cli-cold``: one op is one fresh ``python -m treeasym.cli`` process,
  so interpreter start, import and cold kernels caches are paid every time.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from check import MP, Checker, Verdict
from program import ROOT, SRC, VARIETIES

HERE = Path(__file__).resolve().parent

RHO_TARGET = 40
LADDER = (100, 200, 400, 800, 1600)
PAPER = dict(L=18, N=300, D=80)
TABLE_SIZES = (10, 20, 50, 100, 200, 500, 1000, 2000)
TABLE_ORDERS = (1, 4, 8, 18)
COUNT_REACH = 2000
ORACLE_REACH = 200
VERIFY_REACH = 500
ESTIMATE_SIZES = (50, 100, 150, 200)  # all share the counts to n = 200, so the same cost
ESTIMATE_TOLERANCE = 1e-6             # order-4 error is below 3e-7 from n = 50 on
CHILD_TIMEOUT_S = 120
TRACE_MARKER = "PERFBENCH-TRACE "


@dataclass
class Op:
    """``run(tracer)`` is timed; ``check(output)`` runs after, untimed."""

    label: str
    run: Callable
    check: Callable[[object], Verdict]
    cli: str | None = None  # subcommand, for cli-cold ops


class Workload:
    """Builds the ops of one pass; subclasses define :meth:`ops`."""

    name = ""
    in_process = True
    calibration = "series"  # kernel of ``speed.KERNELS`` that matches the ops' code

    def __init__(self, env, checker: Checker, rng):
        self.ta = env.ta if env is not None else None
        self.fixtures = env.fixtures if env is not None else {}
        self.checker = checker
        self.rng = rng

    def prepare(self) -> None:
        """Build inputs the ops share; runs once, before the warm-up pass."""

    def pass_ops(self) -> list[Op]:
        ops = self.ops()
        self.rng.shuffle(ops)
        return ops


class RhoDigits(Workload):
    name = "rho-digits"

    def ops(self):
        return [Op(f"rho-digits {v}", self._ladder(v), self.checker.library_expansion)
                for v in VARIETIES]

    def _ladder(self, variety):
        def run(tracer):
            for N in LADDER:
                result = self.ta.expansions.expand_variety(variety, L=8, N=N, D=RHO_TARGET)
                if result.rho_result.certified_digits >= RHO_TARGET:
                    return result
            raise RuntimeError(f"{RHO_TARGET} certified digits not reached by N={LADDER[-1]}")
        return run


class PaperTables(Workload):
    name = "paper-tables"

    def prepare(self):
        self.counts = self.ta.counts.counts_for("hierarchy", COUNT_REACH)
        self.asym = self.ta.expansions.expand_variety("hierarchy", counts=self.counts, **PAPER).asym

    def ops(self):
        ops = [Op(f"paper-tables {v}", self._expand(v), self.checker.library_expansion)
               for v in VARIETIES]
        ops.append(Op("paper-tables error-table", self._table, self._check_table))
        return ops

    def _expand(self, variety):
        return lambda tracer: self.ta.expansions.expand_variety(variety, **PAPER)

    def _table(self, tracer):
        return self.ta.expansions.error_table(self.asym, self.counts, TABLE_SIZES, TABLE_ORDERS)

    def _check_table(self, table):
        verdict = Verdict()
        expected = {(n, k) for n in TABLE_SIZES for k in TABLE_ORDERS}
        if set(table.relative_errors) != expected:
            verdict.failures.append("error table: wrong (size, order) grid")
        self.checker.error_grid(verdict, "error table", table.relative_errors)
        return verdict


class ExactCounts(Workload):
    name = "exact-counts"
    calibration = "counts"

    def ops(self):
        return [Op(f"exact-counts {v}", self._count(v), self._check(v)) for v in VARIETIES]

    def _count(self, variety):
        def run(tracer):
            counts, oeis = self.ta.counts, self.ta.oeis
            seq = counts.counts_for(variety, COUNT_REACH)
            oracle = counts.product_form_oracle(variety, ORACLE_REACH)
            head = counts.CountSequence(variety, seq.values[: VERIFY_REACH + 1])
            report = oeis.verify_counts(head, self.fixtures[variety])
            return seq, oracle, report
        return run

    def _check(self, variety):
        def check(output):
            seq, oracle, report = output
            verdict = Verdict()
            label = f"{variety} counts"
            if len(seq.values) != COUNT_REACH + 1:
                verdict.failures.append(f"{label}: {len(seq.values)} values, not {COUNT_REACH + 1}")
            if seq.values[: ORACLE_REACH + 1] != oracle.values:
                verdict.failures.append(f"{label}: recurrence and oracle differ below {ORACLE_REACH}")
            in_b_file = sum(1 for n in self.checker.b_files[variety] if n <= VERIFY_REACH)
            if not report.ok or report.compared != in_b_file:
                verdict.failures.append(f"{label}: verify_counts says {report.summary()}")
            self.checker.counts(verdict, label, variety, seq.values[: VERIFY_REACH + 1])
            return verdict
        return check


class CliCold(Workload):
    name = "cli-cold"
    in_process = False

    def __init__(self, env, checker, rng):
        super().__init__(env, checker, rng)
        self.size = rng.choice(ESTIMATE_SIZES)

    def ops(self):
        paper = ["--order", "18", "--digits", "80", "--terms", "300"]
        return [
            self._op("expand", ["polya", "--format", "csv"], self._check_expand),
            self._op("expand", ["hierarchy", *paper, "--format", "csv"], self._check_expand),
            self._op("error-table", ["hierarchy"], self._check_table),
            self._op("estimate", ["hierarchy", "--size", str(self.size)], self._check_estimate),
            self._op("counts", ["polya", "--n", str(VERIFY_REACH), "--format", "csv"],
                     self._check_counts),
            self._op("verify-oeis", ["identity", "--n", str(VERIFY_REACH)], self._check_verify),
        ]

    def _op(self, sub, args, check):
        argv = [sub, *args]

        def run(tracer):
            return run_cli(argv, tracer)

        def checked(proc):
            verdict = Verdict()
            label = "treeasym " + " ".join(argv)
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                verdict.failures.append(f"{label}: exit code {proc.returncode}: {tail[0]}")
                return verdict
            try:
                check(verdict, label, argv, proc.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                verdict.failures.append(f"{label}: unreadable output ({exc!r})")
            return verdict

        return Op("cli " + " ".join(argv), run, checked, cli=sub)

    def _check_expand(self, verdict, label, argv, stdout):
        rows = {"rho": [], "t": [], "tau": []}
        for line in stdout.splitlines():
            if line and not line.startswith("#"):
                kind, _, value, cert = line.split(",")
                rows[kind].append((value, int(cert)))
        found = self.checker.expansion(argv[1], rows["rho"][0], rows["t"], rows["tau"])
        verdict.failures += found.failures
        verdict.digits = found.digits

    def _check_table(self, verdict, label, argv, stdout):
        grid = {}
        for line in stdout.splitlines():
            if line and line[0].isdigit():
                n, k, rel = line.split(",")
                grid[(int(n), int(k))] = rel
        if len(grid) != sum(map(len, self.checker.refs.ERROR_GRID.values())):
            verdict.failures.append(f"{label}: {len(grid)} grid entries")
        self.checker.error_grid(verdict, label, grid)

    def _check_estimate(self, verdict, label, argv, stdout):
        out = json.loads(stdout)
        exact = self.checker.b_files["hierarchy"][self.size]
        if int(out["exact"]) != exact:
            verdict.failures.append(f"{label}: exact count {out['exact']} != b-file {exact}")
        rel = abs(MP.mpf(out["estimate"]) / exact - 1)
        if not rel < ESTIMATE_TOLERANCE:
            verdict.failures.append(f"{label}: estimate off by {MP.nstr(rel, 3)}")
        if abs(MP.mpf(out["relative_error"]) - rel) > rel / 100:
            verdict.failures.append(f"{label}: reports relative error {out['relative_error']}, "
                                    f"recomputed {MP.nstr(rel, 6)}")

    def _check_counts(self, verdict, label, argv, stdout):
        values = [int(line.split(",")[1]) for line in stdout.splitlines()
                  if line and not line.startswith("#")]
        if len(values) != VERIFY_REACH + 1:
            verdict.failures.append(f"{label}: {len(values)} values, not {VERIFY_REACH + 1}")
        self.checker.counts(verdict, label, argv[1], values)

    def _check_verify(self, verdict, label, argv, stdout):
        match = re.search(r"OK, (\d+) terms match exactly", stdout)
        expected = sum(1 for n in self.checker.b_files[argv[1]] if n <= VERIFY_REACH)
        if match is None or int(match.group(1)) != expected:
            verdict.failures.append(f"{label}: {stdout.strip()!r}")


def child_env() -> dict:
    """Environment of CLI children: treeasym from ``src/``, cache dir inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TREEASYM_CACHE_DIR"] = str(ROOT / ".bench_cache")  # never created: no --fetch
    return env


def run_cli(argv, tracer=None) -> subprocess.CompletedProcess:
    """One fresh CLI process; traced children report their spans on stderr."""
    if tracer is None:
        cmd = [sys.executable, "-m", "treeasym.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if tracer is not None:
        lines = [l for l in proc.stderr.splitlines() if l.startswith(TRACE_MARKER)]
        if lines:
            tracer.adopt(json.loads(lines[-1][len(TRACE_MARKER):]))
    return proc


REGISTRY = {w.name: w for w in (RhoDigits, PaperTables, ExactCounts, CliCold)}

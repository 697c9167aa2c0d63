"""treeasym benchmark: time to certified digits, paper tables, exact counts, cold CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rho-digits --seed 1 --seconds 10 --trace 0

The load is a closed loop: one client, one process, no threads; ``cli-cold``
runs one child process at a time.  After set-up, in-process workloads run
one untimed warm-up pass (caches fill and the first-pass slowdown passes);
``cli-cold`` gets none, because a CLI user pays the cold start every call.
Whole passes then run until ``--seconds`` have passed, at least three.  Every
op's output is checked against ``tests/reference_values.py`` and the
bundled b-files.

Timed metrics are in seconds at the reference machine speed of
:mod:`speed`: each op's wall and CPU time is divided by the slowdown that
the workload's fixed calibration kernel measured just before and after it.
The unscaled values are printed in the report lines.

``--trace 0`` reports the end-to-end metrics of :data:`END_TO_END`.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.PER_LAYER`` from the traced ones; the
tracing overhead is the traced minus the untraced median pass time.  Spans
are written to ``.bench_trace/`` in the checkout.

stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``src/treeasym`` and the reference values the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

import program
from check import DIGIT_KEYS, RHO_DIGITS_CAP, TAU_DIGITS_CAP, Checker, Verdict
from check import load_references, parse_b_file
from layers import PER_LAYER, cache_totals, patch_points, per_layer_metrics
from spans import Tracer, installed
from speed import Calibration
from workloads import HERE, REGISTRY, child_env

#: End-to-end metrics: name, unit, better, bound (mirrored in BENCHMARK.json).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("run_cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ok_ops_ratio", "ratio", "higher", 0.01),
    ("rho_cert_digits", "digits", "higher", 0.01),
    ("rho_true_digits", "digits", "higher", 0.01),
    ("tau0_cert_digits", "digits", "higher", 0.01),
    ("tau_true_digits", "digits", "higher", 0.01),
]
MIN_PASSES = 3
SETUP_REPEATS = 3
#: exact-counts computes no rho or tau: its exact outputs lose no digit, so
#: the digit metrics read the reference lengths.
EXACT_DIGITS = {"rho_cert_digits": RHO_DIGITS_CAP, "rho_true_digits": RHO_DIGITS_CAP,
                "tau0_cert_digits": TAU_DIGITS_CAP, "tau_true_digits": TAU_DIGITS_CAP}
#: bundled b-files, named here so that the checker does not rely on ``treeasym.oeis``
B_FILES = {"polya": "b000081.txt", "identity": "b004111.txt", "hierarchy": "b000669.txt"}


@dataclass
class OpRecord:
    label: str
    wall_s: float
    cpu_s: float
    slowdown: float
    verdict: Verdict


@dataclass
class PassRecord:
    traced: bool
    ops: list[OpRecord] = field(default_factory=list)

    def wall_s(self, scaled=True) -> float:
        return sum(op.wall_s / (op.slowdown if scaled else 1) for op in self.ops)

    def cpu_s(self, scaled=True) -> float:
        return sum(op.cpu_s / (op.slowdown if scaled else 1) for op in self.ops)


def cpu_seconds() -> float:
    """Process CPU time, children included."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(workload, tracer: Tracer | None, next_id) -> PassRecord:
    record = PassRecord(traced=tracer is not None)
    ta = workload.ta
    patched = (installed(tracer, patch_points(ta))
               if tracer is not None and workload.in_process else contextlib.nullcontext())
    calibration = Calibration(workload.calibration)
    with patched:
        cal = calibration.measure()
        for op in workload.pass_ops():
            span_cm = (tracer.op_span(next(next_id), op.label, {"cli": op.cli} if op.cli else None)
                       if tracer is not None else contextlib.nullcontext())
            hits0 = cache_totals(ta.kernels) if tracer is not None and ta is not None else None
            error = None
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            with span_cm as span:
                try:
                    output = op.run(tracer)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    error = f"{op.label}: {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
            cal_after = calibration.measure()
            if hits0 is not None:
                hits, misses = cache_totals(ta.kernels)
                span.info.update(cache_hits=hits - hits0[0], cache_misses=misses - hits0[1])
            verdict = Verdict([error]) if error else _checked(op, output)
            record.ops.append(
                OpRecord(op.label, wall, cpu, calibration.slowdown(cal, cal_after), verdict))
            cal = cal_after
    return record


def _checked(op, output) -> Verdict:
    try:
        return op.check(output)
    except Exception as exc:  # output of an unexpected shape is a failed op
        return Verdict([f"{op.label}: output not checkable: {type(exc).__name__}: {exc}"])


def setup_samples(workload) -> list[tuple[float, float]]:
    """``(scaled, unscaled)`` seconds of cold set-ups, each in a fresh interpreter."""
    samples = []
    calibration = Calibration(workload.calibration)
    cal = calibration.measure()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            cwd=program.ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        cal_after = calibration.measure()
        samples.append((seconds / calibration.slowdown(cal, cal_after), seconds))
        cal = cal_after
    return samples


def slowest_kind(ops) -> tuple[str, float]:
    """The op kind with the highest median time, and that median.

    The usual tail, the highest percentile with ten samples beyond it,
    needs at least 20 ops, and a run here times 9 to 24 of several kinds.
    So the tail is the slowest kind's median over passes.
    """
    by_kind = {}
    for label, seconds in ops:
        by_kind.setdefault(label, []).append(seconds)
    medians = {label: statistics.median(v) for label, v in by_kind.items()}
    label = max(medians, key=medians.get)
    return label, medians[label]


def end_to_end(passes, all_ops, setup, peak_rss_mb):
    """End-to-end values, and report notes with the unscaled timings."""
    timed = [op for p in passes for op in p.ops]
    walls = [op.wall_s / op.slowdown for op in timed]
    raw = [op.wall_s for op in timed]
    failed = sum(1 for op in all_ops if not op.verdict.ok)
    digit_sets = [op.verdict.digits for op in all_ops if op.verdict.digits]
    digits = ({k: min(d[k] for d in digit_sets) for k in DIGIT_KEYS}
              if digit_sets else dict(EXACT_DIGITS))
    label, tail_value = slowest_kind((op.label, op.wall_s / op.slowdown) for op in timed)
    values = {
        "setup_s": statistics.median(s for s, _ in setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "run_s": statistics.median(p.wall_s() for p in passes),
        "run_cpu_s": statistics.median(p.cpu_s() for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ok_ops_ratio": (len(all_ops) - failed) / len(all_ops),
        **digits,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s, _ in setup)
                   + "; unscaled " + ", ".join(f"{u:.3f}" for _, u in setup),
        "op_p50_s": f"unscaled {statistics.median(raw):.4f}; {len(timed)} timed ops",
        "op_tail_s": f"{label}; unscaled {slowest_kind((op.label, op.wall_s) for op in timed)[1]:.4f}",
        "run_s": f"median of {len(passes)} passes; "
                 f"unscaled {statistics.median(p.wall_s(False) for p in passes):.4f}",
        "run_cpu_s": f"unscaled {statistics.median(p.cpu_s(False) for p in passes):.4f}",
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program.import_treeasym()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    checker = Checker(
        load_references(program.REFERENCES),
        {v: parse_b_file((program.SRC / "treeasym" / "fixtures" / name).read_text())
         for v, name in B_FILES.items()},
    )
    cls = REGISTRY[args.workload]
    env = program.set_up(args.workload) if cls.in_process else None
    if env is not None:
        warnings.filterwarnings("ignore", category=env.ta.series.TruncationWarning)
    workload = cls(env, checker, random.Random(args.seed))
    workload.prepare()

    ids = itertools.count(1)
    all_ops = []
    report = [f"workload {args.workload}  seed {args.seed}"]
    if workload.in_process:
        warm = run_pass(workload, None, ids)
        all_ops += warm.ops
        report.append(f"warm-up pass {warm.wall_s(False):.3f} s unscaled")
    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        traced = args.trace == 1 and len(passes) % 2 == 1
        passes.append(run_pass(workload, tracer if traced else None, ids))
        all_ops += passes[-1].ops
    failed = sum(1 for op in all_ops if not op.verdict.ok)

    if args.trace:
        untraced = [p.wall_s() for p in passes if not p.traced]
        traced_walls = [p.wall_s() for p in passes if p.traced]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        values = per_layer_metrics(tracer.spans, len(traced_walls), overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        notes = {}
        write_spans(args, tracer)
    else:
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before the set-up probes
        values, notes = end_to_end(passes, all_ops, setup_samples(workload), peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
        report.append(f"failed_ops_ratio = {failed / len(all_ops)} ratio")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        report.append(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    report += [f"FAILED {f}" for op in all_ops for f in op.verdict.failures][:50]
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(args, tracer) -> None:
    out = program.ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.records()))


if __name__ == "__main__":
    sys.exit(main())

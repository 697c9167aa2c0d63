"""Tests of the benchmark itself.

Run from the root of the repository:  PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402
from check import MP, Checker, Verdict, load_references, parse_b_file  # noqa: E402
from layers import PER_LAYER, patch_points, per_layer_metrics  # noqa: E402
from run import B_FILES, END_TO_END  # noqa: E402
from spans import Span, Tracer, busy_times, installed, self_times  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("op:x", 0.0, 10.0),
        Span("a.f", 1.0, 4.0, parent=0),
        Span("b.g", 3.0, 6.0, parent=0),   # overlaps a.f: covered once
        Span("a.f", 2.0, 3.0, parent=1),   # nested in its own name
        Span("c.h", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])
    busy = busy_times(spans)
    assert busy["a.f"] == pytest.approx(3.0)  # the nested a.f is not counted again
    assert busy["op:x"] == pytest.approx(10.0)


def test_tracer_records_parents_and_op_ids():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda x: x + 1)
    outer = tracer.wrap("layer.outer", lambda x: inner(x) * 2, lambda a, kw, r: {"r": r})
    with tracer.op_span(7, "demo"):
        assert outer(1) == 4
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("op:demo", None, 7), ("layer.outer", 0, 7), ("layer.inner", 1, 7)]
    assert tracer.spans[1].info == {"r": 4}


@pytest.fixture(scope="module")
def checker():
    refs = load_references(program.REFERENCES)
    fixtures = program.SRC / "treeasym" / "fixtures"
    return Checker(refs, {v: parse_b_file((fixtures / n).read_text()) for v, n in B_FILES.items()})


def _reference_expansion(refs, variety, rho_cert=45, cert=12):
    return dict(
        rho=(refs.RHO_50[variety], rho_cert),
        t=[(v, cert) for v in refs.T_TABLE[variety]],
        tau=[(v, cert) for v in refs.TAU_TABLE[variety]],
    )


def test_checker_accepts_the_references(checker):
    verdict = checker.expansion("polya", **_reference_expansion(checker.refs, "polya"))
    assert verdict.ok, verdict.failures
    assert verdict.digits["rho_true_digits"] == 50


def test_checker_rejects_a_corrupted_rho(checker):
    data = _reference_expansion(checker.refs, "identity")
    data["rho"] = (MP.mpf(checker.refs.RHO_50["identity"]) * (1 + MP.mpf(10) ** -30), 45)
    verdict = checker.expansion("identity", **data)
    assert not verdict.ok and "identity rho" in verdict.failures[0]


def test_checker_rejects_an_overclaimed_certified_digit_count(checker):
    # 20 correct digits pass when 20 are certified and fail when 40 are claimed
    rho = MP.mpf(checker.refs.RHO_50["hierarchy"]) * (1 + MP.mpf(10) ** -21)
    data = _reference_expansion(checker.refs, "hierarchy")
    assert checker.expansion("hierarchy", **{**data, "rho": (rho, 20)}).ok
    assert not checker.expansion("hierarchy", **{**data, "rho": (rho, 40)}).ok
    tau = list(data["tau"])
    tau[3] = (MP.mpf(tau[3][0]) * (1 + MP.mpf(10) ** -8), 12)
    assert not checker.expansion("hierarchy", **{**data, "tau": tau}).ok


def test_checker_rejects_a_corrupted_count(checker):
    values = [checker.b_files["polya"][n] for n in range(501)]
    verdict = Verdict()
    checker.counts(verdict, "polya", "polya", values)
    assert verdict.ok
    values[321] += 1
    checker.counts(verdict, "polya", "polya", values)
    assert verdict.failures == ["polya: 1 counts differ from the b-file, first n=321"]


def test_checker_error_grid_rule(checker):
    refs = checker.refs
    grid = {(n, k): MP.mpf(row[i]) for k, row in refs.ERROR_GRID.items()
            for i, n in enumerate(refs.ERROR_GRID_SIZES)}
    verdict = Verdict()
    checker.error_grid(verdict, "grid", {**grid, (500, 8): grid[(500, 8)] / 10})
    assert verdict.ok
    checker.error_grid(verdict, "grid", {**grid, (20, 4): grid[(20, 4)] * 1.2})
    assert len(verdict.failures) == 1


def _mpf_bits(values):
    return [v._mpf_ for v in values]


def test_traced_and_untraced_calls_return_identical_values():
    ta = program.import_treeasym()

    def compute():
        result = ta.expansions.expand_variety("hierarchy", L=2, N=60, D=30)
        table = ta.expansions.error_table(result.asym, result.counts, (10, 50), (1, 2))
        return (result.rho_result.rho._mpf_, _mpf_bits(result.puiseux.t),
                _mpf_bits(result.asym.tau), result.counts.values,
                sorted((k, v._mpf_) for k, v in table.relative_errors.items()))

    plain = compute()
    tracer = Tracer()
    points = patch_points(ta)
    originals = [(o[k] if isinstance(o, dict) else getattr(o, k)) for o, k, _, _ in points]
    with installed(tracer, points), tracer.op_span(1, "check"):
        traced = compute()
    assert traced == plain
    assert [(o[k] if isinstance(o, dict) else getattr(o, k)) for o, k, _, _ in points] == originals

    # one expansion: 2 root solves and 2 derivative series, at N and N // 2
    m = per_layer_metrics(tracer.spans, 1, 0.0)
    assert m["series.exp.calls"] == 4
    assert m["series.exp.madds"] == 2 * (60 * 61 // 2 + 30 * 31 // 2)
    assert m["solver.series_builds_per_solve"] == 2
    assert m["varieties.zeta_series.half_share"] > 0
    assert m["expansions.estimate_count.calls"] == 4
    assert m["counts.calls"] == 1 and m["counts.n_total"] == 60


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-counts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""

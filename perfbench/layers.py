"""Where the benchmark wraps treeasym, and the per-layer metrics it reads off the spans.

Layers are the package's modules: ``series``, ``varieties``, ``solver``,
``expansions``, ``kernels``, ``counts``, ``oeis`` and ``cli``.  ``hp`` is not
wrapped: ``hp.convert`` runs once per coefficient, so a wrapper would cost
more than the call; its time shows as self time of its callers.

Counts and busy times are per traced pass.  Work counters marked
"computed" in :data:`PER_LAYER` are derived from the call's inputs, not
measured: ``series.exp.madds`` is the sum of ``N(N+1)/2`` over exps and
``series.eval.terms`` the sum of ``N - r + 1`` over evaluations.
"""

from __future__ import annotations

import statistics
from collections import Counter

from spans import ancestors, busy_times, layer_of, nearest_info, self_times

LAYERS = ("series", "varieties", "solver", "expansions", "kernels", "counts", "oeis", "cli")
CLI_SUBCOMMANDS = ("counts", "expand", "estimate", "error-table", "verify-oeis")

#: Per-layer metrics in report order: name, unit, better.
PER_LAYER = [
    ("series.exp.calls", "count", "lower"),
    ("series.exp.busy_s", "s", "lower"),
    ("series.exp.madds", "count", "lower"),          # computed from inputs
    ("series.eval.calls", "count", "lower"),
    ("series.eval.busy_s", "s", "lower"),
    ("series.eval.terms", "count", "lower"),         # computed from inputs
    ("varieties.zeta_exponent.busy_s", "s", "lower"),
    ("varieties.zeta_series.calls", "count", "lower"),
    ("varieties.zeta_series.self_s", "s", "lower"),
    ("varieties.zeta_series.half_share", "ratio", "lower"),
    ("varieties.zeta_derivatives.busy_s", "s", "lower"),
    ("varieties.zeta_derivatives.self_s", "s", "lower"),
    ("solver.solve_rho.calls", "count", "lower"),
    ("solver.solve_rho.busy_s", "s", "lower"),
    ("solver.solve_rho.self_s", "s", "lower"),
    ("solver.residual_evals", "count", "lower"),
    ("solver.newton_iters", "count", "lower"),
    ("solver.series_builds_per_solve", "count", "lower"),
    ("expansions.expand_variety.busy_s", "s", "lower"),
    ("expansions.puiseux_coeffs.busy_s", "s", "lower"),
    ("expansions.tau_coeffs.busy_s", "s", "lower"),
    ("expansions.error_table.busy_s", "s", "lower"),
    ("expansions.estimate_count.calls", "count", "lower"),
    ("expansions.attempts", "count", "lower"),
    ("expansions.terms_final", "count", "lower"),
    ("expansions.wasted_s", "s", "lower"),
    ("expansions.useful_ratio", "ratio", "higher"),
    ("kernels.tau_symbolic.busy_s", "s", "lower"),
    ("kernels.b_seq.busy_s", "s", "lower"),
    ("kernels.cache_hit_ratio", "ratio", "higher"),
    ("counts.calls", "count", "lower"),
    ("counts.busy_s", "s", "lower"),
    ("counts.n_total", "count", "lower"),
    ("counts.oracle.busy_s", "s", "lower"),
    ("counts.value_bits_max", "bit", "lower"),
    ("oeis.load_fixture.busy_s", "s", "lower"),
    ("oeis.verify_counts.busy_s", "s", "lower"),
    ("oeis.values_checked", "count", "higher"),
    *[(f"cli.{sub}.wall_s", "s", "lower") for sub in CLI_SUBCOMMANDS],
    ("cli.process_overhead_s", "s", "lower"),
    *[(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS + ("bench",)],
    ("bench.op.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def patch_points(ta):
    """Every traced function, at each place a caller looks it up.

    ``ta`` holds the imported modules ``series``, ``varieties``, ``solver``,
    ``expansions``, ``counts``, ``oeis`` and ``cli``.
    """
    v, s, e, c, o = ta.varieties, ta.solver, ta.expansions, ta.counts, ta.oeis
    points = [
        (v, "series_exp", "series.exp", _exp_note),
        (v, "series_eval_deriv_tail", "series.eval", _eval_note),
        (s, "series_eval_deriv_tail", "series.eval", _eval_note),
        (v, "zeta_exponent", "varieties.zeta_exponent", None),
        (v, "zeta_series", "varieties.zeta_series", _arg_note(2)),
        (s, "zeta_series", "varieties.zeta_series", _arg_note(2)),
        (e, "zeta_derivatives", "varieties.zeta_derivatives", _arg_note(4)),
        (e, "solve_rho", "solver.solve_rho", _arg_note(2)),
        (e, "puiseux_coeffs", "expansions.puiseux_coeffs", None),
        (e, "tau_coeffs", "expansions.tau_coeffs", None),
        (e, "tau_symbolic", "kernels.tau_symbolic", None),
        (e, "b_seq", "kernels.b_seq", None),
        (c, "product_form_oracle", "counts.oracle", None),
        (o, "load_fixture", "oeis.load_fixture", None),
        (o, "verify_counts", "oeis.verify_counts", _verify_note),
    ]
    for owner in (e, ta.cli):
        points += [
            (owner, "expand_variety", "expansions.expand_variety", _expand_note),
            (owner, "error_table", "expansions.error_table", None),
            (owner, "estimate_count", "expansions.estimate_count", None),
        ]
    # expand_variety reaches the recurrences through spec.count_source,
    # counts_for through its dispatch table
    for name in c.VARIETY_NAMES:
        points.append((c._RECURRENCES, name, "counts.count", _counts_note))
        points.append((v.VARIETIES[name], "count_source", "counts.count", _counts_note))
    return points


def _exp_note(args, kwargs, result):
    n = args[0].order
    return {"madds": n * (n + 1) // 2}


def _eval_note(args, kwargs, result):
    f, _, r = args[:3]
    return {"r": r, "terms": f.order - r + 1}


def _arg_note(index):
    def note(args, kwargs, result):
        return {"N": args[index]}
    return note


def _expand_note(args, kwargs, result):
    return {"N": kwargs.get("N", 200)}


def _counts_note(args, kwargs, result):
    return {"n": result.n_max, "bits": max(v.bit_length() for v in result.values)}


def _verify_note(args, kwargs, result):
    return {"compared": result.compared}


def cache_totals(kernels) -> tuple[int, int]:
    """Summed ``(hits, misses)`` over the kernels module's lru caches."""
    hits = misses = 0
    for fn in vars(kernels).values():
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def per_layer_metrics(spans, passes: int, trace_overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes recorded in ``spans``."""
    own = self_times(spans)
    busy = busy_times(spans)
    calls = Counter(span.name for span in spans)
    total = Counter()   # summed span counters, keyed "name:counter"
    self_by_name = Counter()
    self_by_layer = Counter()
    half_s = 0.0
    solver_builds = 0
    for i, span in enumerate(spans):
        self_by_name[span.name] += own[i]
        self_by_layer[layer_of(span.name)] += own[i]
        for key, value in span.info.items():
            if key.startswith("cache_"):    # kernels lru deltas, on op and cli.main spans
                total[key] += value
            elif isinstance(value, (int, float)):
                total[f"{span.name}:{key}"] += value
        if span.name == "varieties.zeta_series":
            if span.info["N"] < (nearest_info(spans, i, "N") or span.info["N"]):
                half_s += span.duration
            if _under(spans, i, "solver.solve_rho"):
                solver_builds += 1
        if span.name == "series.eval" and _under(spans, i, "solver.solve_rho"):
            total[f"solver.r{span.info['r']}"] += 1

    ops = [i for i, span in enumerate(spans) if span.name.startswith("op:")]
    op_time = sum(spans[i].duration for i in ops)
    attempts, finals, wasted = _ladders(spans, ops)
    cli_ops = [i for i in ops if "cli" in spans[i].info]
    per = 1.0 / passes
    m = {
        "series.exp.calls": calls["series.exp"] * per,
        "series.exp.busy_s": busy["series.exp"] * per,
        "series.exp.madds": total["series.exp:madds"] * per,
        "series.eval.calls": calls["series.eval"] * per,
        "series.eval.busy_s": busy["series.eval"] * per,
        "series.eval.terms": total["series.eval:terms"] * per,
        "varieties.zeta_exponent.busy_s": busy["varieties.zeta_exponent"] * per,
        "varieties.zeta_series.calls": calls["varieties.zeta_series"] * per,
        "varieties.zeta_series.self_s": self_by_name["varieties.zeta_series"] * per,
        "varieties.zeta_series.half_share": _ratio(half_s, busy["varieties.zeta_series"]),
        "varieties.zeta_derivatives.busy_s": busy["varieties.zeta_derivatives"] * per,
        "varieties.zeta_derivatives.self_s": self_by_name["varieties.zeta_derivatives"] * per,
        "solver.solve_rho.calls": calls["solver.solve_rho"] * per,
        "solver.solve_rho.busy_s": busy["solver.solve_rho"] * per,
        "solver.solve_rho.self_s": self_by_name["solver.solve_rho"] * per,
        "solver.residual_evals": total["solver.r0"] * per,
        "solver.newton_iters": total["solver.r1"] * per,
        "solver.series_builds_per_solve": _ratio(solver_builds, calls["solver.solve_rho"]),
        "expansions.expand_variety.busy_s": busy["expansions.expand_variety"] * per,
        "expansions.puiseux_coeffs.busy_s": busy["expansions.puiseux_coeffs"] * per,
        "expansions.tau_coeffs.busy_s": busy["expansions.tau_coeffs"] * per,
        "expansions.error_table.busy_s": busy["expansions.error_table"] * per,
        "expansions.estimate_count.calls": calls["expansions.estimate_count"] * per,
        "expansions.attempts": attempts * per,
        "expansions.terms_final": statistics.fmean(finals) if finals else 0.0,
        "expansions.wasted_s": wasted * per,
        "expansions.useful_ratio": _ratio(len(finals), attempts),
        "kernels.tau_symbolic.busy_s": busy["kernels.tau_symbolic"] * per,
        "kernels.b_seq.busy_s": busy["kernels.b_seq"] * per,
        "kernels.cache_hit_ratio": _ratio(
            total["cache_hits"], total["cache_hits"] + total["cache_misses"]
        ),
        "counts.calls": calls["counts.count"] * per,
        "counts.busy_s": busy["counts.count"] * per,
        "counts.n_total": total["counts.count:n"] * per,
        "counts.oracle.busy_s": busy["counts.oracle"] * per,
        "counts.value_bits_max": max(
            (s.info["bits"] for s in spans if s.name == "counts.count"), default=0
        ),
        "oeis.load_fixture.busy_s": busy["oeis.load_fixture"] * per,
        "oeis.verify_counts.busy_s": busy["oeis.verify_counts"] * per,
        "oeis.values_checked": total["oeis.verify_counts:compared"] * per,
    }
    for sub in CLI_SUBCOMMANDS:
        walls = [spans[i].duration for i in cli_ops if spans[i].info["cli"] == sub]
        m[f"cli.{sub}.wall_s"] = statistics.fmean(walls) if walls else 0.0
    overheads = [spans[i].duration - _child_main_s(spans, i) for i in cli_ops]
    m["cli.process_overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_share"] = _ratio(self_by_layer[layer], op_time)
    m["bench.op.busy_s"] = op_time * per
    m["trace.overhead_s"] = trace_overhead_s
    return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _under(spans, i, name) -> bool:
    return any(spans[a].name == name for a in ancestors(spans, i))


def _ladders(spans, ops):
    """Attempts, final ``N`` per op, and time on attempts before the last.

    An attempt is an outermost ``expand_variety`` call inside an op; the
    rho-digits op retries at doubled ``N`` until the target digits are met.
    """
    by_op = {i: [] for i in ops}
    for i, span in enumerate(spans):
        if span.name == "expansions.expand_variety" and not _under(spans, i, span.name):
            root = ([i] + list(ancestors(spans, i)))[-1]
            if root in by_op:
                by_op[root].append(span)
    attempts, finals, wasted = 0, [], 0.0
    for tries in by_op.values():
        if tries:
            tries.sort(key=lambda s: s.start)
            attempts += len(tries)
            finals.append(tries[-1].info["N"])
            wasted += sum(s.duration for s in tries[:-1])
    return attempts, finals, wasted


def _child_main_s(spans, op_index) -> float:
    return sum(
        s.duration for s in spans if s.parent == op_index and s.name == "cli.main"
    )

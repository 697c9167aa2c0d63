import math
import warnings
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeasym import expansions, hp, series, solver, varieties
from treeasym.expansions import (
    derivative_orders_needed,
    error_table,
    estimate_count,
    expand_variety,
    puiseux_coeffs,
    tau_coeffs,
)
from treeasym.hp import agreement_digits, context, working_context
from treeasym.series import TruncationWarning, series_eval_deriv_tail
from treeasym.solver import solve_exponent, solve_rho
from treeasym.varieties import get_variety, numeric_exponent, zeta_derivatives, zeta_series

from puiseux_oracle import (
    apply_shift,
    composition_power_table,
    exact_recurrence,
    miller_t_fixed,
    miller_t_values,
    recurrence_error_bound,
    t_values,
)
from qr_oracle import compositions
from reference_values import RHO_50, T_TABLE, TAU_TABLE
from two_run_oracle import expand as two_run_expand
from two_run_oracle import log_model


class TestCompositionPowerTable:
    def test_matches_enumeration(self):
        ctx = context(30)
        values = [None] + [ctx.mpf(v) / 7 for v in (3, -1, 4, 1, -5, 9, 2, 6)]
        table = composition_power_table(values, 8, ctx)
        for M in range(1, 9):
            for r in range(1, M + 1):
                direct = ctx.mpf(0)
                for comp in compositions(M, r):
                    term = ctx.mpf(1)
                    for i in comp:
                        term *= values[i]
                    direct += term
                assert abs(table[r][M] - direct) < ctx.mpf(10) ** -24

    def test_empty_and_diagonal(self):
        ctx = context(20)
        values = [None, ctx.mpf(2), ctx.mpf(3)]
        table = composition_power_table(values, 2, ctx)
        assert table[0][0] == 1
        assert table[1][1] == 2
        assert table[2][2] == 4  # only composition (1, 1)


class TestSingularCoefficients:
    def test_t1_closed_form(self, pipeline):
        result = pipeline("polya")
        ctx = result.puiseux.ctx
        counts = result.counts
        derivs = zeta_derivatives(result.spec, counts, result.rho_result.rho, 1, 200, ctx)
        expected = -ctx.sqrt(2 * ctx.e * result.rho_result.rho * derivs[1])
        assert agreement_digits(result.puiseux.t[1], expected, ctx) >= 25

    def test_t2_is_t1_squared_over_three(self, pipeline):
        puiseux = pipeline("polya").puiseux
        ctx = puiseux.ctx
        assert agreement_digits(puiseux.t[2], puiseux.t[1] ** 2 / 3, ctx) >= 20

    def test_t3_closed_form(self, pipeline):
        # t_3 = -(11 sqrt2 (e rho z')^(3/2) / 36 - sqrt(2e) rho^(3/2) z'' / (4 sqrt z'))
        result = pipeline("polya")
        ctx = result.puiseux.ctx
        rho = result.rho_result.rho
        derivs = zeta_derivatives(result.spec, result.counts, rho, 2, 200, ctx)
        zp, zpp = derivs[1], derivs[2]
        expected = -(
            11 * ctx.sqrt(2) * (ctx.e * rho * zp) ** ctx.mpf("1.5") / 36
            - ctx.sqrt(2 * ctx.e) * rho ** ctx.mpf("1.5") * zpp / (4 * ctx.sqrt(zp))
        )
        assert agreement_digits(result.puiseux.t[3], expected, ctx) >= 20

    def test_hierarchy_affine_corrections(self, pipeline):
        result = pipeline("hierarchy")
        ctx = result.puiseux.ctx
        rho = result.rho_result.rho
        assert agreement_digits(result.puiseux.t[0], 1 - (1 - rho) / 2, ctx) >= 50
        # odd coefficients untouched by the transform
        assert result.puiseux.t[1] < 0

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_reference_spot_values(self, pipeline, variety, assert_digits):
        puiseux = pipeline(variety, L=18).puiseux
        ctx = puiseux.ctx
        for idx in (0, 1, 2, 9, 18):
            assert_digits(puiseux.t[idx], T_TABLE[variety][idx], 12, ctx,
                          label=f"{variety} t_{idx}")

    def test_t0_is_one_without_transform(self, pipeline):
        assert pipeline("polya").puiseux.t[0] == 1
        assert pipeline("identity").puiseux.t[0] == 1

    def test_insufficient_derivatives_rejected(self, pipeline):
        result = pipeline("polya")
        rho, ctx = result.rho_result.rho, result.puiseux.ctx
        h = numeric_exponent(result.spec, result.counts, 200, ctx)
        x, l = log_model(result.spec, h, rho, 2, ctx)
        with pytest.raises(ValueError, match="derivatives up to order"):
            puiseux_coeffs(result.spec, x, l, 10, hp.fixed_bits(ctx))


@lru_cache(maxsize=None)
def _solved(variety, L, N, D):
    """``(spec, K, ctx, x, l, w)``, ``K = 2L+1``, at truncation order ``N``.

    ``x`` is the fixed-point root and ``l`` the model of ``log zeta`` there,
    the inputs of :func:`treeasym.expansions.puiseux_coeffs` at scale ``w``.
    """
    spec, K = get_variety(variety), 2 * L + 1
    result, h, _ = solve_exponent(spec, spec.count_source(N), N, D, 0)
    ctx = result.ctx
    return (spec, K, ctx, *log_model(spec, h, result.rho, derivative_orders_needed(K), ctx),
            hp.fixed_bits(ctx))


def _real(values, w, ctx):
    """Fixed-point values at scale ``w`` read back in ``ctx``."""
    return [hp.from_fixed(v, w, ctx) for v in values]


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
@pytest.mark.parametrize("L, N, D", [(18, 300, 80), (40, 200, 60)])
def test_composition_matches_explicit_oracle(variety, L, N, D):
    # the recurrence against the paper's Bell-polynomial, binomial and
    # composition-table form of T = C(zeta), on the same rho and derivatives
    spec, K, ctx, x, l, w = _solved(variety, L, N, D)
    E = series.series_exp_fixed(l, w)
    rho = hp.from_fixed(x, w, ctx)
    derivs = [math.factorial(r) * v / ctx.e for r, v in enumerate(_real(E, w, ctx))]
    oracle = apply_shift(t_values(rho, derivs, K, ctx), rho, spec)
    got = _real(puiseux_coeffs(spec, x, l, K, w), w, ctx)
    assert len(got) == len(oracle) == K + 1
    for n, (a, b) in enumerate(zip(got, oracle)):
        assert agreement_digits(a, b, ctx) >= D + 5, (variety, n)


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
@pytest.mark.parametrize("L, N, D", [(18, 300, 80), (40, 200, 60)])
def test_fixed_point_composition_matches_mpf_recurrence(variety, L, N, D):
    # the composition T = C(zeta) by Miller's recurrence on mpf values, 20
    # digits above the working precision and on the same rho and model
    spec, K, ctx, x, l, w = _solved(variety, L, N, D)
    E = series.series_exp_fixed(l, w)
    hi = context(ctx.dps + 20)
    rho_hi = hp.from_fixed(x, w, hi)
    oracle = miller_t_values(rho_hi, [v / hi.e for v in _real(E, w, hi)], K, hi)
    oracle = apply_shift(oracle, rho_hi, spec)
    got = _real(puiseux_coeffs(spec, x, l, K, w), w, hi)
    assert len(got) == len(oracle) == K + 1
    for n, (a, b) in enumerate(zip(got, oracle)):
        assert agreement_digits(a, b, hi) >= D + 10, (variety, n)


def _guard(K):
    """Guard bits of :func:`treeasym.expansions.puiseux_coeffs` at order ``K``."""
    return K + 8


def _F(x, l, w, r):
    """``F_0 = 0, F_1 .. F_r``, ``F_i = -l_i (-rho)^i``, exact from the fixed-point ``x`` and ``l``."""
    return [Fraction(0)] + [Fraction(-l[i] * (-x) ** i, 1 << w * (i + 1)) for i in range(1, r + 1)]


class TestRecurrence:
    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 14), w=st.integers(40, 160), data=st.data())
    def test_within_stated_bound_of_exact_recurrence(self, K, w, data):
        # random short models with x = 2a^2 and l_1 = b^2, so that
        # 2 F_1 = (2ab 2^-w)^2: g_1 and the whole recurrence are rational
        a = data.draw(st.integers(1 << (w // 2 - 4), (1 << (w - 1) // 2) - 1), label="a")
        b = data.draw(st.integers(1 << (w // 2 - 2), 1 << (w // 2 + 2)), label="b")
        r = derivative_orders_needed(K)
        rest = data.draw(st.lists(st.integers(-(4 << w), 4 << w), min_size=r - 1, max_size=r - 1))
        x, l = 2 * a * a, [-(1 << w), b * b] + rest
        F = _F(x, l, w, r)
        g = exact_recurrence(F, Fraction(-2 * a * b, 1 << w), K)
        bound = recurrence_error_bound(F, g, K, w + _guard(K))
        got = puiseux_coeffs(get_variety("polya"), x, l, K, w)
        assert len(got) == K + 1 and got[0] == 1 << w
        for n in range(1, K + 1):
            limit = 1 + Fraction(bound[n] * (1 + 1e-9)) / 2 ** _guard(K)
            assert abs(got[n] - g[n] * 2**w) <= limit, n

    @settings(max_examples=40, deadline=None)
    @given(
        g1=st.fractions(min_value=-4, max_value=Fraction(-1, 8), max_denominator=50),
        rest=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=50), max_size=6),
    )
    def test_exact_recurrence_solves_the_functional_equation(self, g1, rest):
        # g - log(1+g) = F(s^2) through s^(K+1), log(1+g) by (1+g) L' = g'
        F = [Fraction(0), g1 * g1 / 2] + rest
        K = 2 * len(F) - 3
        g = exact_recurrence(F, g1, K) + [Fraction(0)]
        log = [Fraction(0)]
        for n in range(1, K + 2):
            log.append(g[n] - sum((k * log[k] * g[n - k] for k in range(1, n)), Fraction(0)) / n)
        for n in range(1, K + 2):
            assert g[n] - log[n] == (F[n // 2] if n % 2 == 0 else 0), n

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("L, N, D", [(40, 200, 60), (80, 400, 60)])
    def test_within_stated_bound_of_a_wider_reference(self, variety, L, N, D):
        # K = 81 and 161 against the recurrence 400 bits wider on the same
        # integers, which is the exact one to far below a unit of 2^-w
        spec, K, ctx, x, l, w = _solved(variety, L, N, D)
        spec = spec.replace(shift_sign=0)
        got = puiseux_coeffs(spec, x, l, K, w)
        ref = puiseux_coeffs(spec, x << 400, [c << 400 for c in l], K, w + 400)
        F = [float(v) for v in _F(x, l, w, derivative_orders_needed(K))]
        bound = recurrence_error_bound(F, [v / 2 ** (w + 400) for v in ref], K, w + _guard(K))
        for n in range(1, K + 1):
            limit = (1 + bound[n] / 2 ** _guard(K)) * (2**400 + 1) * (1 + 1e-9)
            assert abs((got[n] << 400) - ref[n]) <= limit, n
            # the measured growth that the docstring states
            assert bound[n] < 2 ** (n / 2 + 2), n

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("L, N, D", [(8, 100, 40), (18, 300, 80)])
    def test_matches_the_integer_composition(self, variety, L, N, D):
        # T = C(zeta) by Miller's recurrence on integers, the route before the
        # recurrence, on the short exponential of the same model.  Its own
        # flooring errors grow with K: up to 3 units at K = 37 here, and 3.8e5
        # units for identity at K = 81
        spec, K, ctx, x, l, w = _solved(variety, L, N, D)
        spec = spec.replace(shift_sign=0)
        oracle = miller_t_fixed(x, series.series_exp_fixed(l, w), K, w)
        got = puiseux_coeffs(spec, x, l, K, w)
        assert max(abs(a - b) for a, b in zip(got, oracle)) <= 4

    def test_rejects_a_non_positive_slope(self):
        w = 64
        with pytest.raises(ValueError, match=r"zeta'\(rho\) must be positive"):
            puiseux_coeffs(get_variety("polya"), 1 << (w - 2), [-(1 << w), 0, 5], 3, w)


class TestAsymptoticCoefficients:
    def test_tau0_is_minus_half_t1(self, pipeline):
        for variety in ("polya", "identity", "hierarchy"):
            result = pipeline(variety)
            ctx = result.asym.ctx
            assert agreement_digits(result.asym.tau[0], -result.puiseux.t[1] / 2, ctx) >= 50

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_reference_spot_values(self, pipeline, variety, assert_digits):
        asym = pipeline(variety, L=18).asym
        ctx = asym.ctx
        for idx in (0, 1, 4, 9, 18):
            assert_digits(asym.tau[idx], TAU_TABLE[variety][idx], 10, ctx,
                          label=f"{variety} tau_{idx}")

    def test_sign_patterns(self, pipeline):
        polya = pipeline("polya", L=18).asym
        identity = pipeline("identity", L=18).asym
        hierarchy = pipeline("hierarchy", L=18).asym
        assert all(v > 0 for v in polya.tau)
        assert all(v > 0 for v in hierarchy.tau)
        assert identity.tau[0] > 0
        assert all(v < 0 for v in identity.tau[1:])

    def test_requires_enough_t_indices(self, pipeline):
        result = pipeline("polya")
        ctx = result.puiseux.ctx
        w = hp.fixed_bits(ctx)
        with pytest.raises(ValueError, match="needs t-indices"):
            tau_coeffs([hp.to_fixed(v, w, ctx) for v in result.puiseux.t], 10)


class TestEstimates:
    def test_polya_order0_at_10(self, pipeline):
        result = pipeline("polya")
        ctx = result.asym.ctx
        estimate = estimate_count(result.asym, 10, 0)
        exact = result.counts[10]
        assert exact == 719
        rel = abs(estimate - exact) / exact
        assert rel < ctx.mpf("0.1")  # leading order only

    def test_order_bounds_checked(self, pipeline):
        result = pipeline("polya")
        with pytest.raises(ValueError):
            estimate_count(result.asym, 10, 99)
        with pytest.raises(ValueError):
            estimate_count(result.asym, 0, 0)

    def test_error_table_shape_and_ratio(self, pipeline, counts500):
        result = pipeline("hierarchy", L=8)
        table = error_table(result.asym, counts500["hierarchy"], [50, 100, 500], [0, 4])
        assert len(list(table.rows())) == 6
        ctx = result.asym.ctx
        # ratio tends to 1 as size grows, at any fixed order
        for order, floor in ((0, "1e-2"), (4, "1e-9")):
            deviations = [abs(table.ratios[(n, order)] - 1) for n in (50, 100, 500)]
            assert deviations[0] > deviations[-1]
            assert deviations[-1] < ctx.mpf(floor)

    def test_error_table_validation(self, pipeline, counts500):
        result = pipeline("hierarchy", L=8)
        with pytest.raises(ValueError, match="beyond exact-count reach"):
            error_table(result.asym, counts500["hierarchy"], [501], [1])
        with pytest.raises(ValueError, match="mismatch"):
            error_table(result.asym, counts500["polya"], [10], [1])


class TestPipelineGuards:
    def test_k_must_cover_l(self):
        with pytest.raises(ValueError, match="too small for L"):
            expand_variety("polya", L=4, K=5)

    def test_negative_l_rejected_before_any_work(self, monkeypatch):
        def no_series(*args, **kwargs):
            raise AssertionError("zeta computed for a rejected order")

        monkeypatch.setattr(varieties, "zeta_exponent", no_series)
        monkeypatch.setattr(varieties, "_divisor_sums", no_series)
        monkeypatch.setattr(varieties, "series_exp", no_series)
        monkeypatch.setattr(expansions, "series_exp_fixed", no_series)
        with pytest.raises(ValueError, match="order L must be >= 0, got -1"):
            expand_variety("hierarchy", L=-1)

    @pytest.mark.parametrize("variety, other", [("polya", "identity"), ("hierarchy", "polya")])
    def test_counts_of_another_variety_rejected_before_any_work(self, monkeypatch, variety,
                                                                other):
        # these once returned a wrong rho "certified" to 30 digits
        def no_work(*args):
            raise AssertionError("exponent built from mismatched counts")

        monkeypatch.setattr(solver, "numeric_exponent", no_work)
        counts = get_variety(other).count_source(100)
        with pytest.raises(ValueError, match=f"count/variety mismatch: {other} vs {variety}"):
            expand_variety(variety, L=2, N=100, D=30, counts=counts)

    def test_n_must_cover_k(self):
        with pytest.raises(ValueError, match="too small for K"):
            expand_variety("polya", L=4, N=10)

    def test_derivative_orders_needed(self):
        assert derivative_orders_needed(1) == 1
        assert derivative_orders_needed(18) == 9
        assert derivative_orders_needed(37) == 19


class TestResidualDecay:
    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("K", [6, 10])
    def test_truncation_residual_bound(self, pipeline, variety, K):
        """The truncated expansion satisfies the equation to O(u^((K+1)/2)).

        Both the decay bound (slope >= 0.9*(K+1)/2) and the sharper log-log
        slope (K+2)/2 within 10% are asserted: the leading residual term is
        proportional to (1 - T), which vanishes like sqrt(u) at the
        singularity.  Criterion 8a in tests/test_acceptance.py derives this
        exponent and also checks the leading term -t_1 t_(K+1) u^((K+2)/2).
        """
        result = pipeline(variety, L=(K - 1) // 2, K=K)
        ctx = result.puiseux.ctx
        rho = result.rho_result.rho
        zeta = zeta_series(result.spec, result.counts, 200, ctx)
        # undo the affine correction: the shifted series is the one that
        # satisfies the plain functional equation
        t = list(result.puiseux.t)
        if result.spec.shift_sign:
            t[0] = ctx.mpf(1)
            t[2] = t[2] - result.spec.shift_sign * rho / 2
        residuals = []
        for exponent in (2, 3, 4):
            u = ctx.mpf(10) ** -exponent
            sqrt_u = ctx.sqrt(u)
            truncated = sum(t[n] * sqrt_u**n for n in range(K + 1))
            zeta_at = series_eval_deriv_tail(zeta, rho * (1 - u), 0, ctx)[0]
            residuals.append(abs(zeta_at * ctx.exp(truncated) - truncated))
        slopes = [
            float(ctx.log10(residuals[i] / residuals[i + 1])) for i in range(2)
        ]
        for slope in slopes:
            assert slope >= 0.9 * (K + 1) / 2, (variety, K, slopes)
        # and the sharper structural exponent, within 10%
        for slope in slopes:
            assert abs(slope - (K + 2) / 2) <= 0.1 * (K + 2) / 2, (variety, K, slopes)


class TestCertification:
    def test_certified_digits_reasonable(self, pipeline):
        # the half-order route is deliberately pessimistic; counts drop with
        # the coefficient index as higher zeta derivatives lose tail accuracy
        result = pipeline("polya", L=18)
        t_cert = result.puiseux.certified_digits
        assert all(5 <= c <= 60 for c in t_cert[1:])
        assert all(c >= 20 for c in t_cert[1:5])
        tau_cert = result.asym.certified_digits
        assert all(5 <= c <= 60 for c in tau_cert)
        assert all(c >= 15 for c in tau_cert[:5])

    def test_one_series_exponential_per_order(self, monkeypatch):
        # one integer exponential of the short log-zeta model, at the order-N
        # root for the truncation warning; no series exponential at all
        lengths = []
        original = expansions.series_exp_fixed

        def counted(g, w):
            lengths.append(len(g))
            return original(g, w)

        def forbidden(*args, **kwargs):
            raise AssertionError("series exponential on the pipeline path")

        monkeypatch.setattr(expansions, "series_exp_fixed", counted)
        monkeypatch.setattr(varieties, "series_exp", forbidden)
        expand_variety("polya", L=2, N=100, D=30)
        assert lengths == [derivative_orders_needed(5) + 1]

    def test_one_bisection_per_expansion(self, monkeypatch):
        # one split sweep over all 2N+1 coefficients gives both orders; the
        # N // 2 result has no bracket phase of its own, and every other
        # Taylor shift runs on a short prefix or on the short model
        calls = _count_passes(monkeypatch)
        result = expand_variety("hierarchy", L=2, N=100, D=30)
        _assert_one_sweep(calls, N=100, r=derivative_orders_needed(5), D=30, doubling=0)
        solve_rho(result.spec, result.counts, 100, 30)
        _assert_one_sweep(calls, N=100, r=0, D=30, doubling=0)

    def test_doubling_start_steps_run_below_full_width(self, monkeypatch):
        # at 120 digits the float start needs two doubling steps, each on a
        # prefix below full width, and still one sweep follows
        calls = _count_passes(monkeypatch)
        result = expand_variety("polya", L=2, N=300, D=120)
        _assert_one_sweep(calls, N=300, r=derivative_orders_needed(5), D=120, doubling=2)
        solve_rho(result.spec, result.counts, 300, 120)
        _assert_one_sweep(calls, N=300, r=0, D=120, doubling=2)

    def test_stability_between_orders(self, pipeline):
        # rho and tau stable to >= 15 digits between N=200 and N=300
        a = pipeline("polya", L=10, N=200, D=60)
        b = pipeline("polya", L=10, N=300, D=80)
        ctx = b.asym.ctx
        assert agreement_digits(a.rho_result.rho, b.rho_result.rho, ctx) >= 15
        for x, y in zip(a.asym.tau, b.asym.tau):
            assert agreement_digits(x, y, ctx) >= 15


class TestDirectZetaRoute:
    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_forty_digits_at_n_200(self, pipeline, variety):
        # the order-N zeta series needed N=400 for this
        result = pipeline(variety, L=8, N=200, D=40)
        ctx = result.asym.ctx
        assert result.rho_result.certified_digits == 40
        assert result.asym.certified_digits[0] == 40
        assert agreement_digits(result.rho_result.rho, ctx.mpf(RHO_50[variety]), ctx) >= 49

    def test_no_order_n_exponential_and_no_termwise_evaluation(self, monkeypatch):
        lengths = []
        original = expansions.series_exp_fixed

        def counted(g, w):
            lengths.append(len(g))
            return original(g, w)

        def forbidden(*args, **kwargs):
            raise AssertionError("series exponential or term-wise evaluation on the pipeline path")

        monkeypatch.setattr(expansions, "series_exp_fixed", counted)
        monkeypatch.setattr(varieties, "series_exp", forbidden)
        for owner in (series, varieties, solver):
            monkeypatch.setattr(owner, "series_eval_deriv_tail", forbidden)
        calls = _count_passes(monkeypatch)
        result = expand_variety("identity", L=4, N=120, D=40)
        assert lengths == [derivative_orders_needed(9) + 1]
        _assert_one_sweep(calls, N=120, r=derivative_orders_needed(9), D=40)
        lengths.clear()
        solve_rho(result.spec, result.counts, 120, 40)
        assert lengths == []
        _assert_one_sweep(calls, N=120, r=0, D=40)


def _count_passes(monkeypatch) -> dict:
    """Record the arguments of the solver's bracket phases, split sweeps and Taylor shifts."""
    calls = {"_bracket": [], "series_taylor_split": [], "series_taylor": []}
    for name, seen in calls.items():
        original = getattr(solver, name)

        def counted(*args, original=original, seen=seen):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(solver, name, counted)
    return calls


def _assert_one_sweep(calls, N, r, D, doubling=0):
    """One bracket phase; ``doubling`` start steps below full width; one split
    sweep over the degree-``2N`` exponent, cut at ``N // 2``, to order
    ``r + MODEL_EXTRA`` at full width; no other shift at full width over more
    than the short model."""
    w = hp.fixed_bits(working_context(D))
    assert len(calls["_bracket"]) == 1
    assert sum(width < w for *_, width in calls["series_taylor"]) == doubling
    [(h, cut, _, order, width)] = calls["series_taylor_split"]
    assert (len(h), cut, order, width) == (2 * N + 1, 2 * (N // 2) + 1, r + solver.MODEL_EXTRA, w)
    for coeffs, _, _, width in calls["series_taylor"]:
        # precision-graded start steps run below full width on a prefix;
        # the shifts to the roots run on the short model
        assert len(coeffs) <= cut
        assert width < w or len(coeffs) == r + 1 + solver.MODEL_EXTRA
    for seen in calls.values():
        seen.clear()


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
@pytest.mark.parametrize(
    "L, N, D", [(8, 100, 40), (8, 200, 40), (18, 300, 80), (12, 600, 200), (4, 60, 30), (40, 200, 60)]
)
def test_matches_two_run_oracle(variety, L, N, D):
    # one sweep and Newton on the short models against each order solved and
    # Taylor-expanded on its own: the same certified counts, the same values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        got = expand_variety(variety, L=L, N=N, D=D)
    oracle = two_run_expand(variety, L, N, D)
    assert got.rho_result.certified_digits == oracle["rho_certified"]
    assert list(got.puiseux.certified_digits) == oracle["t_certified"]
    assert list(got.asym.certified_digits) == oracle["tau_certified"]
    ctx = got.asym.ctx
    pairs = [(got.rho_result.rho, oracle["rho"])]
    pairs += list(zip(got.puiseux.t, oracle["t"])) + list(zip(got.asym.tau, oracle["tau"]))
    for n, (a, b) in enumerate(pairs):
        assert agreement_digits(a, b, ctx) >= D + 10, (variety, n)


class TestTruncationWarning:
    def test_fires_when_the_exponent_is_short(self):
        # polya at N=50: the exponent's truncation error is about rho^50 ~ 1e-24
        with pytest.warns(TruncationWarning, match="truncation order 50 is small for 60 digits"):
            expand_variety("polya", L=4, N=50, D=60)

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_silent_at_n_200_for_40_digits(self, variety):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            expand_variety(variety, L=8, N=200, D=40)

    @staticmethod
    def _mpf_indicator(variety, L, N, D):
        """The relative tail on mpf values, as :func:`expand_variety` computed it before
        it summed the terms on the fixed-point exponent and root."""
        spec, r = get_variety(variety), derivative_orders_needed(2 * L + 1)
        result, h, [(x, log_taylor), _] = solve_exponent(spec, spec.count_source(N), N, D, r)
        ctx, rho = result.ctx, result.rho
        w = hp.fixed_bits(ctx)
        top = len(h) - 1
        tail = sum(abs(hp.from_fixed(h[m], w, ctx)) * math.comb(m, r) * rho ** (m - r)
                   for m in range(max(r, top - 4), top + 1))
        ratio = tail / abs(hp.from_fixed(series.series_exp_fixed(log_taylor, w)[r], w, ctx))
        return ratio, ratio > ctx.mpf(10) ** (-(D - 10)), ctx

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize(
        "L, N, D", [(4, 50, 60), (8, 100, 40), (8, 120, 80), (8, 200, 40), (40, 200, 60)]
    )
    def test_fires_where_the_mpf_indicator_did(self, variety, L, N, D):
        ratio, fires, ctx = self._mpf_indicator(variety, L, N, D)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            expand_variety(variety, L=L, N=N, D=D)
        messages = [str(c.message) for c in caught if c.category is TruncationWarning]
        if fires:
            assert messages == [f"relative tail of the highest zeta derivative reaches "
                                f"{ctx.nstr(ratio, 3)}; truncation order {N} is small for "
                                f"{D} digits"]
        else:
            assert messages == []

    def test_sweep_covers_both_outcomes(self):
        # the sweep above is only a check if some configurations fire and some do not
        assert self._mpf_indicator("identity", 8, 100, 40)[1]
        assert not self._mpf_indicator("polya", 8, 100, 40)[1]

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_fixed_point_sum_matches_mpf(self, variety):
        # the fixed-point sum against the mpf one where the power x^(m-r) lies
        # far below 2^-w but the terms do not
        spec, N, D, r = get_variety(variety), 100, 30, 9
        ctx = working_context(D)
        w = hp.fixed_bits(ctx)
        h = numeric_exponent(spec, spec.count_source(N), N, ctx)
        x = hp.to_fixed(ctx.mpf(RHO_50[variety]), w, ctx)
        rho = hp.from_fixed(x, w, ctx)
        expected = sum(abs(hp.from_fixed(h[m], w, ctx)) * math.comb(m, r) * rho ** (m - r)
                       for m in range(2 * N - 4, 2 * N + 1))
        got = hp.from_fixed(varieties.exponent_tail(h, x, r, w), w, ctx)
        assert rho ** (2 * N - 4 - r) < ctx.mpf(2) ** -(w + 30) < expected * 10**-20
        assert agreement_digits(got, expected, ctx) >= 20

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from treeasym import expansions, hp, series, solver, varieties
from treeasym.counts import counts_for
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
from reference_values import RHO_50, RHO_400, RHO_1000, T_TABLE, TAU_TABLE
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
        counts = counts_for("polya", 200)
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
        derivs = zeta_derivatives(result.spec, counts_for("polya", 200), rho, 2, 200, ctx)
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
        h = numeric_exponent(result.spec, counts_for("polya", 200), 200, ctx)[0]
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
    result, _, _, [(x, l), _] = solve_exponent(spec, spec.count_source(N), N, D,
                                               derivative_orders_needed(K))
    return spec, K, result.ctx, x, l, hp.fixed_bits(result.ctx)


def _real(values, w, ctx):
    """Fixed-point values at scale ``w`` read back in ``ctx``."""
    return [hp.from_fixed(v, w, ctx) for v in values]


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
@pytest.mark.parametrize("L, N, D", [(18, 300, 80), (40, 200, 60)])
def test_composition_matches_explicit_oracle(variety, L, N, D):
    # the recurrence against the paper's Bell-polynomial, binomial and
    # composition-table form of T = C(zeta), on the same rho and derivatives
    spec, K, ctx, x, l, w = _solved(variety, L, N, D)
    E = series.series_exp_fixed(l, w)  # e rho^r zeta^(r)(rho) / r!
    rho = hp.from_fixed(x, w, ctx)
    derivs = [math.factorial(r) * v / ctx.e / rho**r for r, v in enumerate(_real(E, w, ctx))]
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
    oracle = miller_t_values(rho_hi, [v / hi.e / rho_hi**r for r, v in enumerate(_real(E, w, hi))],
                             K, hi)
    oracle = apply_shift(oracle, rho_hi, spec)
    got = _real(puiseux_coeffs(spec, x, l, K, w), w, hi)
    assert len(got) == len(oracle) == K + 1
    for n, (a, b) in enumerate(zip(got, oracle)):
        assert agreement_digits(a, b, hi) >= D + 10, (variety, n)


def _guard(K):
    """Guard bits of :func:`treeasym.expansions.puiseux_coeffs` at order ``K``."""
    return K + 8


def _F(l, w, r):
    """``F_0 = 0, F_1 .. F_r``, ``F_i = -(-1)^i l_i``, exact from the fixed-point model ``l``."""
    return [Fraction(0)] + [Fraction(-l[i] * (-1) ** i, 1 << w) for i in range(1, r + 1)]


class TestRecurrence:
    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 14), w=st.integers(40, 160), data=st.data())
    def test_within_stated_bound_of_exact_recurrence(self, K, w, data):
        # random short models with x = 2a^2 and l_1 = b^2 2^(1 - w mod 2), so
        # that 2 F_1 = (b 2^(1 - ceil(w/2)))^2: g_1 and the whole recurrence
        # are rational
        a = data.draw(st.integers(1 << (w // 2 - 4), (1 << (w - 1) // 2) - 1), label="a")
        b = data.draw(st.integers(1 << (w // 2 - 2), 1 << (w // 2 + 2)), label="b")
        r = derivative_orders_needed(K)
        rest = data.draw(st.lists(st.integers(-(4 << w), 4 << w), min_size=r - 1, max_size=r - 1))
        x, l = 2 * a * a, [-(1 << w), b * b << 1 - w % 2] + rest
        F = _F(l, w, r)
        g = exact_recurrence(F, Fraction(-b, 1 << (w + 1) // 2 - 1), K)
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
        F = [float(v) for v in _F(l, w, derivative_orders_needed(K))]
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
        # recurrence, on the short exponential of the same model, both with
        # 2K guard bits, within one unit of the exact recurrence up to K = 161
        spec, K, ctx, x, l, w = _solved(variety, L, N, D)
        spec = spec.replace(shift_sign=0)
        oracle = miller_t_fixed(l, K, w)
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
        zeta = zeta_series(result.spec, counts_for(variety, 200), 200, ctx)
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
        # three split sweeps, each over all its coefficients, give both
        # orders; the N // 2 result has no bracket phase of its own, and
        # every other Taylor shift runs on a short prefix or on the short model
        calls = _count_passes(monkeypatch)
        result = expand_variety("hierarchy", L=2, N=100, D=30)
        _assert_split_sweeps(calls, N=100, r=derivative_orders_needed(5), D=30, doubling=0)
        solve_rho(result.spec, counts_for("hierarchy", 100), 100, 30)
        _assert_split_sweeps(calls, N=100, r=0, D=30, doubling=0)

    def test_doubling_start_steps_run_below_full_width(self, monkeypatch):
        # at 120 digits the float start needs two doubling steps, each on a
        # prefix below full width, and still the three split sweeps follow
        calls = _count_passes(monkeypatch)
        result = expand_variety("polya", L=2, N=300, D=120)
        _assert_split_sweeps(calls, N=300, r=derivative_orders_needed(5), D=120, doubling=2)
        solve_rho(result.spec, counts_for("polya", 300), 300, 120)
        _assert_split_sweeps(calls, N=300, r=0, D=120, doubling=2)

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

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_four_hundred_digits_of_rho_match_the_functional_oracle(self, variety):
        # N//2 >= n_read, so the check reads the model's own sweeps and certifies
        # D by construction; only the counts-free reference tests these digits
        result = expand_variety(variety, L=4, N=800, D=400).rho_result
        assert result.certified_digits == 400
        assert result.ctx.nstr(result.rho, 400, strip_zeros=False) == RHO_400[variety]

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_thousand_digits_of_rho_match_the_functional_oracle(self, variety):
        # n_read (749/880/639) <= N//2 here too: the tail bound alone stands
        # behind the 1000 certified digits, and the counts-free reference checks them
        result = expand_variety(variety, L=4, N=2000, D=1000).rho_result
        assert result.certified_digits == 1000
        assert result.ctx.nstr(result.rho, 1000, strip_zeros=False) == RHO_1000[variety]

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
        _assert_split_sweeps(calls, N=120, r=derivative_orders_needed(9), D=40)
        lengths.clear()
        solve_rho(result.spec, counts_for("identity", 120), 120, 40)
        assert lengths == []
        _assert_split_sweeps(calls, N=120, r=0, D=40)


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


def _assert_split_sweeps(calls, N, r, D, doubling=0):
    """One bracket phase; ``doubling`` start steps below full width; three split
    sweeps to order ``R = r + MODEL_EXTRA``, cut at count reach ``N // 2``:
    the degree-``4n`` exponent ``H4`` at the start point ``x`` at full
    width, and the degree-``2n`` exponent ``h`` itself, not a copy, at
    ``x^2`` and at ``x^3``, both with points and results
    ``G = COMPOSE_BITS (R + 1)`` bits wider; no other shift at full width.
    ``n <= N`` is the count reach that the exponents read."""
    w = hp.fixed_bits(working_context(D))
    R = r + solver.MODEL_EXTRA
    G = solver.COMPOSE_BITS * (R + 1)
    assert len(calls["_bracket"]) == 1
    assert sum(width < w for _, _, _, width, *_ in calls["series_taylor"]) == doubling
    (H4, cut4, x, *tail4), (h, cut, x2, *tail2), (h3, cut3, x3, *tail3) = calls["series_taylor_split"]
    n_read = (len(H4) - 1) // 4
    assert n_read <= N and len(H4) == 4 * n_read + 1 and cut4 == 4 * (N // 2) + 1
    assert (len(h), cut) == (len(h3), cut3) == (2 * n_read + 1, 2 * (N // 2) + 1)
    assert h is h3 and tail4 == [R, w, 0] and tail2 == tail3 == [R, w, G]
    assert (x2, x3) == ((x**2 << G) >> w, (x**3 << G) >> 2 * w)
    for coeffs, _, _, width, *_ in calls["series_taylor"]:
        # precision-graded start steps run below full width on a prefix of h
        assert len(coeffs) <= cut and width < w
    for seen in calls.values():
        seen.clear()


#: Count reach of the true-digit references: twice the largest ``N`` checked
#: against them, so that their truncation (about ``rho^2400``) lies far below
#: their working precision.
REFERENCE_REACH = 800


@pytest.fixture(scope="module")
def reference():
    """``reference(variety, L, D)``: an expansion at ``REFERENCE_REACH`` with ``t``
    and ``tau`` to order ``L`` or beyond and at least 20 more digits than ``D``.

    Runs at ``D <= 80`` share one reference per variety, ``(L=80, D=100)``.
    """
    counts, runs = {}, {}

    def get(variety, L, D):
        key = (variety, 80, 100) if L <= 80 and D <= 80 else (variety, L, D + 40)
        if key not in runs:
            if variety not in counts:
                counts[variety] = get_variety(variety).count_source(REFERENCE_REACH)
            runs[key] = expand_variety(variety, L=key[1], N=REFERENCE_REACH, D=key[2],
                                       counts=counts[variety])
        return runs[key]

    return get


def _sections(result):
    """``[[(rho, c)], [(t_n, c_n)], [(tau_l, c_l)]]``: each value with its certified digits."""
    return [[(result.rho_result.rho, result.rho_result.certified_digits)],
            list(zip(result.puiseux.t, result.puiseux.certified_digits)),
            list(zip(result.asym.tau, result.asym.certified_digits))]


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
@pytest.mark.parametrize(
    "L, N, D", [(8, 100, 40), (8, 200, 40), (18, 300, 80), (12, 600, 200), (4, 60, 30), (40, 200, 60)]
)
def test_matches_two_run_oracle(variety, L, N, D, reference):
    # the split model against the degree-2N exponent with each order solved
    # and Taylor-expanded on its own: the values agree to the oracle's
    # certified digits, and each certifies at least the oracle's digits and
    # at most the digits it shares with a reference at count reach 800
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        got = expand_variety(variety, L=L, N=N, D=D)
    oracle = two_run_expand(variety, L, N, D)
    ref = reference(variety, L, D)
    ctx = got.asym.ctx
    oracle_sections = [[(oracle["rho"], oracle["rho_certified"])],
                       list(zip(oracle["t"], oracle["t_certified"])),
                       list(zip(oracle["tau"], oracle["tau_certified"]))]
    for section, oracles, truths in zip(_sections(got), oracle_sections, _sections(ref)):
        assert len(section) == len(oracles) <= len(truths)
        for n, ((value, certified), (old, old_certified), (truth, _)) in enumerate(
                zip(section, oracles, truths)):
            assert agreement_digits(value, old, ctx) >= old_certified, (variety, n)
            true = agreement_digits(value, truth, ref.asym.ctx)
            assert old_certified <= certified <= true, (variety, n, old_certified, true)


class TestSplitModel:
    """``T(z^2)`` and ``T(z^3)`` solved at ``rho^2`` and ``rho^3`` by the functional equation."""

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("i", [2, 3])
    def test_tree_function_at_an_interior_point(self, monkeypatch, variety, i):
        # at y0 = rho^i the root T~ = T - sigma (1 - y)/2 lies in (0, 1), and
        # Newton climbs to it from below in a few steps; the Taylor
        # coefficients of T in s = y/y0 - 1 and of T(rho^i (1 + u)^i) in u
        # match the count series summed term by term, whose terms at n = 300
        # are below rho^300.  Both run at the solver's width w + G
        spec, N, D, R = get_variety(variety), 300, 40, 12
        ctx = working_context(D)
        w = hp.fixed_bits(ctx)
        G = solver.COMPOSE_BITS * (R + 1)
        W = w + G
        counts = spec.count_source(N)
        h = numeric_exponent(spec, counts, N, ctx)[0]
        x = hp.to_fixed(ctx.mpf(RHO_50[variety]), w, ctx)
        y0 = (x**i << G) >> (i - 1) * w
        taylor = series.series_taylor(h, y0, R, w, G)
        c, s = spec.prefactor, y0 if spec.z_exponent else 1 << W
        start = taylor[0] + hp.fixed_log((c.numerator << W) // c.denominator, W)
        # each Newton iterate v reads log v through the offset (v - v0)/v0
        # from the start v0, the one argument of the logarithm, 16 bits wider
        starts, offsets, fixed_log1p = [], [], hp.fixed_log1p
        monkeypatch.setattr(hp, "fixed_log1p", lambda t, w: offsets.append(t) or fixed_log1p(t, w))
        v = solver._cayley_root(start, s, W, lambda v, w: starts.append(v >> 16) or hp.fixed_log(v, w))
        monkeypatch.undo()
        (v0,) = starts
        assert 1 <= len(offsets) <= 4 and offsets[0] == 0
        final = ((v - v0) << W + 16) // v0
        assert all(a < b for a, b in zip(offsets, offsets[1:] + [final])), offsets
        T = solver._tree_taylor(spec, taylor, y0, W, hp.fixed_log)
        tilde = T[0] - (spec.shift_sign * ((1 << W) - y0) >> 1)
        assert tilde == s * v >> W and 0 < tilde < 1 << W
        composed = solver._compose_power(T, i)
        y, rho = hp.from_fixed(y0, W, ctx), hp.from_fixed(x, w, ctx)
        for k in range(R + 1):
            at_y0 = sum(math.comb(n, k) * counts[n] * y**n for n in range(k, N + 1))
            at_rho = sum(math.comb(i * n, k) * counts[n] * rho ** (i * n)
                         for n in range(1, N + 1) if i * n >= k)
            assert agreement_digits(hp.from_fixed(T[k], W, ctx), at_y0, ctx) >= D + 5, k
            assert agreement_digits(hp.from_fixed(composed[k], W, ctx), at_rho, ctx) >= D + 5, k

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_each_logarithm_and_each_rounding_once(self, monkeypatch, variety):
        # at (8, 100, 40) one expansion takes log x once for the model and its
        # check, and one logarithm at the start of each Newton for T~ (the
        # check's T~(x^2) starts where the model's does), besides the start
        # point's step; log 1 is not taken, and hierarchy's log(1/2) is taken
        # at each of its three widths.  It rounds each reported value once,
        # and a check only where it differs from its value.  A second
        # identical call takes as many logarithms: no memo outlives a solve
        reads, read_certified = [], hp.read_certified

        class Libmp:  # hp's view of mpmath.libmp: its logarithms and rounded mantissas
            logs, rounded = [], []

            def __getattr__(self, name):
                return getattr(libmp, name)

            def mpf_log(self, x, prec, *rounding):
                self.logs.append(prec)
                return libmp.mpf_log(x, prec, *rounding)

            def from_man_exp(self, man, exp, *rounding):
                if rounding:
                    self.rounded.append(man)
                return libmp.from_man_exp(man, exp, *rounding)

        monkeypatch.setattr(hp, "read_certified",
                            lambda v, c, *args: reads.append((v, c)) or read_certified(v, c, *args))
        monkeypatch.setattr(hp, "libmp", Libmp())
        expand_variety(variety, L=8, N=100, D=40)
        first = len(Libmp.logs)
        assert first <= (4 if get_variety(variety).prefactor == 1 else 5), Libmp.logs
        assert len(reads) == 1 + 18 + 9  # rho, t_0 .. t_17, tau_0 .. tau_8
        expected = [v for v, _ in reads] + [c for v, c in reads if c != v]
        assert sorted(Libmp.rounded) == sorted(expected)
        expand_variety(variety, L=8, N=100, D=40)
        assert len(Libmp.logs) == 2 * first

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_forty_digits_at_n_100(self, variety, assert_digits):
        # every value certifies 40 digits at N=100, where the degree-2N
        # exponent certified 23 to 30 digits of rho
        result = expand_variety(variety, L=8, N=100, D=40)
        ctx = result.asym.ctx
        assert result.rho_result.certified_digits == 40
        assert set(result.puiseux.certified_digits) == set(result.asym.certified_digits) == {40}
        assert_digits(result.rho_result.rho, RHO_50[variety], 49, ctx, label=f"{variety} rho")
        for n, value in enumerate(result.puiseux.t):
            assert_digits(value, T_TABLE[variety][n], 12, ctx, label=f"{variety} t_{n}")
        for n, value in enumerate(result.asym.tau):
            assert_digits(value, TAU_TABLE[variety][n], 10, ctx, label=f"{variety} tau_{n}")

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("L, N, D", [(8, 100, 40), (40, 200, 60), (80, 400, 60)])
    def test_certified_digits_are_true(self, variety, L, N, D, reference):
        # each value certifies all D digits and at most the digits it shares
        # with a reference at count reach 800
        got = expand_variety(variety, L=L, N=N, D=D)
        ref = reference(variety, L, D)
        for section, truths in zip(_sections(got), _sections(ref)):
            for n, ((value, certified), (truth, _)) in enumerate(zip(section, truths)):
                assert certified == D <= agreement_digits(value, truth, ref.asym.ctx), n


class TestVisibleReach:
    """Counts past ``n_read = min(N, visible reach)`` change nothing at the working precision."""

    @staticmethod
    def _full_reach(variety, L, N, D):
        """Sections like :func:`_sections` from exponents of the full count reach ``N``,
        through the same bracket and :func:`treeasym.solver.solve_models`."""
        spec, K = get_variety(variety), 2 * L + 1
        ctx = working_context(D)
        w = hp.fixed_bits(ctx)
        counts = counts_for(variety, N)
        coarse = varieties.float_exponent(spec, counts, solver.BRACKET_REACH)
        start = sum(solver._bracket(spec, coarse)) / 2
        models, _ = solver.solve_models(spec, numeric_exponent(spec, counts, N, ctx), N // 2,
                                        derivative_orders_needed(K), ctx, D, start)
        (x, l), (x_check, l_check) = models
        t, t_check = (puiseux_coeffs(spec, x, l, K, w),
                      puiseux_coeffs(spec, x_check, l_check, K, w))
        values = [[x], t, tau_coeffs(t, L)]
        checks = [[x_check], t_check, tau_coeffs(t_check, L)]
        return [[hp.read_certified(v, c, w, D, ctx) for v, c in zip(vs, cs)]
                for vs, cs in zip(values, checks)]

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("L, N, D", [(8, 100, 40), (4, 200, 60), (18, 300, 80), (46, 200, 30)])
    def test_values_and_digits_equal_those_of_the_full_reach(self, variety, L, N, D):
        got = expand_variety(variety, L=L, N=N, D=D)
        n_read = got.rho_result.n_read
        assert n_read < N and got.counts.n_max == n_read and got.rho_result.n_used == N
        assert got.puiseux.n_series == got.asym.n_series == N
        assert _sections(got) == self._full_reach(variety, L, N, D)

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize("D", [40, 200])
    def test_bound_covers_the_omitted_tail(self, variety, D):
        # the tails past n_read of H4 at rho and of h at rho^2, in every order
        # j <= R, summed from the exact counts to 400, against the bound at
        # n_read and the quarter unit it stays below
        L, N, reach = 8, 400, 400
        spec = get_variety(variety)
        got = expand_variety(variety, L=L, N=N, D=D)
        n = got.rho_result.n_read
        ctx = working_context(D)
        w = hp.fixed_bits(ctx)
        R = derivative_orders_needed(2 * L + 1) + solver.MODEL_EXTRA
        G = solver.COMPOSE_BITS * (R + 1)
        counts = counts_for(variety, reach)
        coarse = varieties.float_exponent(spec, counts, solver.BRACKET_REACH)
        rho_lo, x_hi = solver._root_bounds(spec, coarse, solver._bracket(spec, coarse))
        assert varieties.tail_bound(x_hi, rho_lo, 4, n, 4 * n + 1) == math.inf
        S, S4 = varieties._divisor_sums(spec, counts, reach)
        m20 = context(20)
        rho = m20.mpf(RHO_50[variety])
        assert rho_lo < rho < x_hi
        for coeffs, i, first, bits in ((S4, 1, 4, w + 2), (S, 2, 2, w + G + 2)):
            y, bound = rho**i, varieties.tail_bound(x_hi**i, rho_lo, first, n, R)
            assert bound <= -bits
            for j in range(R + 1):
                tail = m20.fsum(math.comb(m, j) * abs(coeffs[m]) * y**m / m
                                for m in range(first * n + 1, len(coeffs)))
                assert 0 < tail <= m20.mpf(2) ** bound, (first, j)

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_no_root_bounds_reads_every_count(self, monkeypatch, variety):
        # a crude growth so large that the tail ratio past BRACKET_REACH
        # reaches 1: tail_bound is inf, _root_bounds None, and the solve
        # falls back to the whole count reach
        spec = get_variety(variety)
        monkeypatch.setattr(type(spec), "growth", lambda self: 1e6)
        reach = solver.BRACKET_REACH
        coarse = varieties.float_exponent(spec, counts_for(variety, reach), reach)
        assert solver._root_bounds(spec, coarse, solver._bracket(spec, coarse)) is None
        result = expand_variety(variety, L=8, N=100, D=40).rho_result
        assert result.n_read == result.n_used == 100
        assert result.certified_digits == 40
        ctx = result.ctx
        assert agreement_digits(result.rho, ctx.mpf(RHO_50[variety]), ctx) >= 40


class TestTruncationWarning:
    def test_fires_when_the_exponent_is_short(self):
        # polya at N=50: the split model's truncation error is about rho^150 ~ 1e-70
        with pytest.warns(TruncationWarning, match="truncation order 50 is small for 100 digits"):
            expand_variety("polya", L=4, N=50, D=100)

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_silent_at_n_200_for_40_digits(self, variety):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            expand_variety(variety, L=8, N=200, D=40)

    @staticmethod
    def _mpf_indicator(variety, L, N, D):
        """The relative tail on mpf values, from the split model's own exponents:
        the last five terms of ``H4`` (degree ``4N``) at ``rho``, and of ``h``
        (degree ``2N``) at ``rho^2`` and ``rho^3`` times ``i^r``, all scaled by
        ``rho^r`` as the model is."""
        spec, r = get_variety(variety), derivative_orders_needed(2 * L + 1)
        result, _, (h, H4), [(x, log_taylor), _] = solve_exponent(spec, spec.count_source(N),
                                                                  N, D, r)
        ctx, rho = result.ctx, result.rho
        w = hp.fixed_bits(ctx)

        def last_five(g, y):
            top = len(g) - 1
            return sum(abs(hp.from_fixed(g[m], w, ctx)) * math.comb(m, r) * y**m
                       for m in range(max(r, top - 4), top + 1))

        tail = last_five(H4, rho) + sum(last_five(h, rho**i) * i**r for i in (2, 3))
        ratio = tail / abs(hp.from_fixed(series.series_exp_fixed(log_taylor, w)[r], w, ctx))
        return ratio, ratio > ctx.mpf(10) ** (-(D - 10)), ctx

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    @pytest.mark.parametrize(
        "L, N, D", [(4, 50, 60), (4, 50, 100), (4, 60, 80), (8, 100, 40), (8, 100, 120),
                    (8, 120, 80), (8, 200, 40), (40, 200, 60)]
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
        assert self._mpf_indicator("identity", 4, 60, 80)[1]
        assert not self._mpf_indicator("polya", 4, 60, 80)[1]

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_fixed_point_sum_matches_mpf(self, variety):
        # the fixed-point sum against the mpf one where the power x^m lies
        # far below 2^-w but the terms do not
        spec, N, D, r = get_variety(variety), 100, 30, 9
        ctx = working_context(D)
        w = hp.fixed_bits(ctx)
        h = numeric_exponent(spec, spec.count_source(N), N, ctx)[0]
        x = hp.to_fixed(ctx.mpf(RHO_50[variety]), w, ctx)
        rho = hp.from_fixed(x, w, ctx)
        expected = sum(abs(hp.from_fixed(h[m], w, ctx)) * math.comb(m, r) * rho**m
                       for m in range(2 * N - 4, 2 * N + 1))
        got = hp.from_fixed(varieties.exponent_tail(h, x, r, w), w, ctx)
        assert rho ** (2 * N - 4) < ctx.mpf(2) ** -(w + 30) < expected * 10**-20
        # within two units of 2^-w: the scaled sum is rho^r times the unscaled
        # one, so its fixed-point floor holds fewer relative digits; each
        # variety still keeps the digits it reaches (measured 23.9, 30.7 and
        # 15.6 for polya, identity and hierarchy)
        assert abs(got - expected) <= 2 * ctx.mpf(2) ** -w
        assert agreement_digits(got, expected, ctx) >= {"hierarchy": 15}.get(variety, 20)

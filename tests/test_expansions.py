import pytest

from treeasym import varieties
from treeasym.expansions import (
    composition_power_table,
    derivative_orders_needed,
    error_table,
    estimate_count,
    expand_variety,
    puiseux_coeffs,
    tau_coeffs,
)
from treeasym.hp import agreement_digits, context
from treeasym.kernels import compositions
from treeasym.series import series_eval_deriv
from treeasym.varieties import zeta_derivatives, zeta_series

from reference_values import T_TABLE, TAU_TABLE


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
        derivs = zeta_derivatives(result.spec, result.counts, rho, 2, 200, ctx)
        with pytest.raises(ValueError, match="derivatives up to order"):
            puiseux_coeffs(result.spec, rho, derivs, 10, ctx)


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
        with pytest.raises(ValueError, match="needs t-indices"):
            tau_coeffs(result.puiseux.t, 10, result.puiseux.ctx)


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
        if result.spec.post_transform:
            t[0] = ctx.mpf(1)
            t[2] = t[2] + rho / 2
        residuals = []
        for exponent in (2, 3, 4):
            u = ctx.mpf(10) ** -exponent
            sqrt_u = ctx.sqrt(u)
            truncated = sum(t[n] * sqrt_u**n for n in range(K + 1))
            zeta_at = series_eval_deriv(zeta, rho * (1 - u), 0, ctx)
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
        # the pipeline builds the zeta series once at N and once at N // 2
        orders = []
        original = varieties.series_exp

        def counted(g, ctx=None):
            orders.append(g.order)
            return original(g, ctx)

        monkeypatch.setattr(varieties, "series_exp", counted)
        expand_variety("polya", L=2, N=100, D=30)
        assert orders == [100, 50]

    def test_stability_between_orders(self, pipeline):
        # rho and tau stable to >= 15 digits between N=200 and N=300
        a = pipeline("polya", L=10, N=200, D=60)
        b = pipeline("polya", L=10, N=300, D=80)
        ctx = b.asym.ctx
        assert agreement_digits(a.rho_result.rho, b.rho_result.rho, ctx) >= 15
        for x, y in zip(a.asym.tau, b.asym.tau):
            assert agreement_digits(x, y, ctx) >= 15

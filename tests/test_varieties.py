import math
from fractions import Fraction

import pytest

from treeasym.counts import counts_for
from treeasym.hp import agreement_digits, context, fixed_bits, working_context
from treeasym.series import PowerSeries, series_eval_deriv_tail, series_exp
from treeasym.solver import NoBracketError, solve_rho
from treeasym.varieties import (
    HIERARCHY,
    IDENTITY,
    POLYA,
    VARIETIES,
    get_variety,
    numeric_exponent,
    zeta_derivatives,
    zeta_exponent,
    zeta_series,
)


class TestSpecs:
    def test_registry(self):
        assert set(VARIETIES) == {"polya", "identity", "hierarchy"}
        assert get_variety("polya") is POLYA
        with pytest.raises(ValueError):
            get_variety("bonsai")

    def test_polya_parameters(self):
        assert (POLYA.prefactor, POLYA.z_exponent, POLYA.shift_sign) == (1, 1, 0)
        assert not POLYA.alternating_signs
        assert [POLYA.eps(i) for i in (2, 3, 4)] == [1, 1, 1]

    def test_identity_parameters(self):
        assert (IDENTITY.prefactor, IDENTITY.z_exponent, IDENTITY.shift_sign) == (1, 1, 0)
        assert [IDENTITY.eps(i) for i in (2, 3, 4, 5)] == [-1, 1, -1, 1]

    def test_hierarchy_parameters(self):
        assert HIERARCHY.prefactor == Fraction(1, 2)
        assert (HIERARCHY.z_exponent, HIERARCHY.shift_sign) == (0, -1)


class TestZetaSeries:
    def test_polya_low_order_coefficients(self):
        ctx = context(40)
        counts = counts_for("polya", 60)
        zeta = zeta_series(POLYA, counts, 60, ctx)
        assert zeta[0] == 0
        assert zeta[1] == 1
        assert zeta[2] == 0  # inner sum starts at degree 2, shifted by z

    def test_hierarchy_value_at_origin(self):
        ctx = context(40)
        counts = counts_for("hierarchy", 60)
        zeta = zeta_series(HIERARCHY, counts, 60, ctx)
        expected = ctx.exp(ctx.mpf(-1) / 2) / 2
        assert abs(zeta[0] - expected) < ctx.mpf(10) ** -38

    def test_polya_exponent_nonnegative(self):
        counts = counts_for("polya", 80)
        g = zeta_exponent(POLYA, counts, 80)
        assert all(c >= 0 for c in g.coeffs)

    def test_exponent_reaches_degree_2n_from_counts_to_n(self):
        # g_m needs T_(m/i) with i >= 2 only, so counts to N give degree 2N,
        # and the exponent for N//2 is the first N+1 coefficients of it
        counts = counts_for("identity", 40)
        g = zeta_exponent(IDENTITY, counts, 40)
        assert g.order == 80
        assert zeta_exponent(IDENTITY, counts, 20).coeffs == g.coeffs[:41]
        assert g[80] == Fraction(-counts[40], 2) + Fraction(-counts[20], 4) + sum(
            Fraction(IDENTITY.eps(i) * counts[80 // i], i) for i in (5, 8, 10, 16, 20, 40, 80)
        )

    def test_exponent_prefix_is_the_lower_exponent(self):
        # h reaches degree 2N and H4 degree 4N from counts to N
        ctx = working_context(30)
        counts = counts_for("hierarchy", 60)
        h, H4 = numeric_exponent(HIERARCHY, counts, 60, ctx)
        low, low4 = numeric_exponent(HIERARCHY, counts, 30, ctx)
        assert (len(h), len(H4)) == (2 * 60 + 1, 4 * 60 + 1)
        assert h[: 2 * 30 + 1] == low and H4[: 4 * 30 + 1] == low4

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_divisor_sums_match_double_loop(self, variety):
        # oracle: the term-by-term sum g[i n] += eps_i T_n / i over i >= 2
        spec, N = get_variety(variety), 150
        counts = counts_for(variety, N)
        g = [Fraction(0)] * (2 * N + 1)
        g[0] += Fraction(spec.shift_sign, 2)
        g[1] -= Fraction(spec.shift_sign, 2)
        for i in range(2, 2 * N + 1):
            for n in range(1, 2 * N // i + 1):
                g[i * n] += Fraction(spec.eps(i) * counts[n], i)
        assert zeta_exponent(spec, counts, N).coeffs == tuple(g)

    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_numeric_exponent_is_the_floored_fixed_point_exponent(self, variety):
        # H4 against the term-by-term sum g4[i n] += eps_i T_n / i over i >= 4
        spec, N = get_variety(variety), 80
        ctx = working_context(40)
        w = fixed_bits(ctx)
        counts = counts_for(variety, N)
        g = zeta_exponent(spec, counts, N)
        g4 = [Fraction(0)] * (4 * N + 1)
        g4[0] += Fraction(spec.shift_sign, 2)
        g4[1] -= Fraction(spec.shift_sign, 2)
        for i in range(4, 4 * N + 1):
            for n in range(1, min(N, 4 * N // i) + 1):
                g4[i * n] += Fraction(spec.eps(i) * counts[n], i)
        h, H4 = numeric_exponent(spec, counts, N, ctx)
        assert len(h) == 2 * N + 1
        assert all(h[m] == math.floor(g[m] * 2**w) for m in range(2 * N + 1))
        assert [math.floor(v * 2**w) for v in g4] == list(H4)

    def test_insufficient_counts_rejected(self):
        counts = counts_for("polya", 10)
        with pytest.raises(ValueError, match="counts cover"):
            zeta_exponent(POLYA, counts, 20)

    @pytest.mark.parametrize("build", [
        lambda counts, ctx: zeta_exponent(POLYA, counts, 100),
        lambda counts, ctx: numeric_exponent(POLYA, counts, 100, ctx),
        lambda counts, ctx: zeta_series(POLYA, counts, 100, ctx),
        lambda counts, ctx: zeta_derivatives(POLYA, counts, 0.3383, 1, 100, ctx),
    ], ids=["zeta_exponent", "numeric_exponent", "zeta_series", "zeta_derivatives"])
    def test_counts_of_another_variety_rejected(self, build):
        # identity counts gave polya's zeta(0.3383) as 0.36747 for 0.36785
        ctx = working_context(30)
        with pytest.raises(ValueError, match="count/variety mismatch: identity vs polya"):
            build(counts_for("identity", 100), ctx)


def functional_residual_exact(spec, counts, N: int) -> PowerSeries:
    """Exact residual ``zeta * exp(T~) - T~`` as a rational series.

    ``T~`` is the shifted series ``T - sigma*(1-z)/2`` (equal to ``T`` when
    ``sigma = 0``).  The exponentials are combined before expanding, which
    keeps every coefficient rational; by construction the constant term of
    the combined exponent vanishes.  The residual must be zero through order
    ``N - 2`` when the counts satisfy the variety's functional equation.
    """
    t_tilde = [Fraction(counts[n]) for n in range(N + 1)]
    t_tilde[0] -= Fraction(spec.shift_sign, 2)
    t_tilde[1] += Fraction(spec.shift_sign, 2)
    g = zeta_exponent(spec, counts, N)
    expo = series_exp(PowerSeries(tuple(a + b for a, b in zip(g.coeffs, t_tilde))))
    prod = (0,) * spec.z_exponent + tuple(spec.prefactor * e for e in expo.coeffs)  # c z^a exp
    return PowerSeries(tuple(p - t for p, t in zip(prod, t_tilde)))


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_functional_residual_vanishes_exactly(variety):
    spec = get_variety(variety)
    N = 40
    counts = counts_for(variety, N)
    residual = functional_residual_exact(spec, counts, N)
    assert all(c == 0 for c in residual.coeffs[: N - 1])


def test_residual_detects_wrong_counts():
    # corrupting one count must break the functional equation
    counts = counts_for("polya", 40)
    bad = type(counts)("polya", counts.values[:20] + (counts.values[20] + 1,) + counts.values[21:])
    residual = functional_residual_exact(POLYA, bad, 40)
    assert any(c != 0 for c in residual.coeffs[:39])


@pytest.fixture(scope="module")
def polya_solution():
    counts = counts_for("polya", 200)
    rho = solve_rho(POLYA, counts, 200, 60)
    return counts, rho


class TestZetaAtSingularity:

    def test_defining_property(self, polya_solution):
        # the order-400 series is accurate to about rho^200 at rho, well past
        # the digits that the N=200 solve certifies
        _, result = polya_solution
        ctx = result.ctx
        zeta = zeta_series(POLYA, counts_for("polya", 400), 400, ctx)
        value = series_eval_deriv_tail(zeta, result.rho, 0, ctx)[0]
        assert abs(ctx.e * value - 1) < ctx.mpf(10) ** (-result.certified_digits + 1)

    def test_first_derivative_positive(self, polya_solution):
        counts, result = polya_solution
        derivs = zeta_derivatives(POLYA, counts, result.rho, 2, 200, result.ctx)
        half = zeta_derivatives(POLYA, counts, result.rho, 1, 100, result.ctx)
        assert derivs[1] > 0
        assert agreement_digits(derivs[1], half[1], result.ctx) >= 15

    def test_bounded_beyond_singularity(self, polya_solution):
        # zeta stays finite and tame past rho (its own singularity is farther out)
        counts, result = polya_solution
        ctx = result.ctx
        zeta = zeta_series(POLYA, counts, 200, ctx)
        previous = None
        for i in range(11):
            x = result.rho * (1 + ctx.mpf(i) / 100)
            value = series_eval_deriv_tail(zeta, x, 0, ctx)[0]
            assert ctx.isfinite(value) and 0 < value < 1
            if previous is not None:
                assert abs(value - previous) < ctx.mpf("0.01")
            previous = value


def test_identity_defining_property():
    counts = counts_for("identity", 150)
    result = solve_rho(IDENTITY, counts, 150, 40)
    ctx = result.ctx
    zeta = zeta_series(IDENTITY, counts_for("identity", 300), 300, ctx)
    value = series_eval_deriv_tail(zeta, result.rho, 0, ctx)[0]
    assert abs(value - ctx.exp(-1)) < ctx.mpf(10) ** (-result.certified_digits + 1)


def test_flipped_hierarchy_shift_has_no_root():
    spec = HIERARCHY.replace(shift_sign=+1)
    counts = counts_for("hierarchy", 100)
    with pytest.raises(NoBracketError):
        solve_rho(spec, counts, 100, 30)


def test_zeta_series_converts_lazily():
    # exact exponent assembly happens in rationals; a tiny context only
    # affects the final numeric coefficients
    counts = counts_for("polya", 60)
    g = zeta_exponent(POLYA, counts, 60)
    assert all(isinstance(c, Fraction) for c in g.coeffs)
    ctx = working_context(30)
    zeta = zeta_series(POLYA, counts, 60, ctx)
    assert zeta.order == 60


@pytest.fixture(scope="module")
def counts400():
    return {v: counts_for(v, 400) for v in VARIETIES}


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_taylor_route_matches_series_oracle(counts400, variety):
    # zeta^(r) from the degree-400 exponent against the order-400 zeta
    # series (accurate to about rho^200 at rho), at rho and at rho/2
    spec = get_variety(variety)
    ctx = working_context(60)
    counts = counts400[variety]
    rho = solve_rho(spec, counts, 200, 60).rho
    zeta = zeta_series(spec, counts, 400, ctx)
    for x in (rho, rho / 2):
        derivs = zeta_derivatives(spec, counts, x, 3, 200, ctx)
        for r in range(4):
            oracle = series_eval_deriv_tail(zeta, x, r, ctx)[0]
            assert agreement_digits(derivs[r], oracle, ctx) >= 40, (variety, x, r)
        if x is rho:  # the root step and the Taylor step read the same exponent
            assert agreement_digits(derivs[0], ctx.exp(-1), ctx) >= 60


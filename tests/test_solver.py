import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeasym import hp, solver
from treeasym.counts import IDENTITY, POLYA, counts_for
from treeasym.hp import agreement_digits, working_context
from treeasym.series import series_taylor
from treeasym.solver import NoBracketError, StalledError, solve_rho
from treeasym.varieties import get_variety, numeric_exponent

import cayley_oracle
import functional_oracle
from reference_values import RHO_50


@pytest.fixture(scope="module")
def rho_results(pipeline_counts):
    out = {}
    for variety in ("polya", "identity", "hierarchy"):
        spec = get_variety(variety)
        out[variety] = solve_rho(spec, pipeline_counts[variety], 200, 60)
    return out


@pytest.fixture(scope="module")
def pipeline_counts():
    return {v: counts_for(v, 200) for v in ("polya", "identity", "hierarchy")}


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_reference_values_30_digits(rho_results, variety):
    result = rho_results[variety]
    ctx = result.ctx
    assert agreement_digits(result.rho, ctx.mpf(RHO_50[variety]), ctx) >= 30


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_functional_oracle_matches_the_reference_and_the_solver(rho_results, variety):
    # the oracle reads no counts: every T(x^m), m >= 2, comes from Lambert W
    oracle = functional_oracle.rho(variety, 60)
    result = rho_results[variety]
    ctx = result.ctx
    assert ctx.nstr(ctx.mpf(oracle), 50) == RHO_50[variety]
    assert result.certified_digits == 60
    assert ctx.nstr(result.rho, 60, strip_zeros=False) == oracle


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_functional_oracle_matches_the_model(variety):
    # the model that t and tau read, L_j = x^j times the order-j Taylor
    # coefficient of log zeta at its root x, against mpmath.taylor of the
    # counts-free oracle at the same point
    result, _, models = solver.solve_exponent(get_variety(variety), None, 100, 30, 3)
    (x, L), w = models[0], hp.fixed_bits(result.ctx)
    ctx = mpmath.MPContext()
    ctx.dps = 40
    X = ctx.ldexp(x, -w)
    c = ctx.taylor(lambda z: functional_oracle.log_zeta_plus_one(ctx, variety, z), X, 3)
    c[0] -= 1  # log zeta, not log zeta + 1
    assert len(L) == len(c) == 4
    for j, (L_j, c_j) in enumerate(zip(L, c)):
        assert agreement_digits(ctx.ldexp(L_j, -w), X**j * c_j, ctx) >= 30, j


def test_certification_metadata(rho_results):
    for result in rho_results.values():
        assert 15 <= result.certified_digits <= 60
        assert result.n_used == 200
        assert 0 < result.iterations <= 80
        assert 0 < result.rho < 1


def test_ordering_of_singularities(rho_results):
    assert rho_results["hierarchy"].rho < rho_results["polya"].rho < rho_results["identity"].rho


def test_polya_below_inverse_e(rho_results):
    result = rho_results["polya"]
    assert result.rho <= result.ctx.exp(-1)


def test_self_consistency_across_orders(pipeline_counts, rho_results):
    spec = get_variety("polya")
    at_150 = solve_rho(spec, pipeline_counts["polya"], 150, 60)
    at_200 = rho_results["polya"]
    assert agreement_digits(at_150.rho, at_200.rho, at_200.ctx) >= 20


def test_no_bracket_error_carries_diagnostics(pipeline_counts, monkeypatch):
    spec = get_variety("polya")
    monkeypatch.setattr(solver, "DEFAULT_BRACKET", (Fraction(1, 100), Fraction(2, 100)))
    with pytest.raises(NoBracketError, match="no sign change"):
        solve_rho(spec, pipeline_counts["polya"], 200, 60)


def test_a_falling_residual_has_no_bracket(monkeypatch):
    # the residual changes sign at 0.3, but falling: every later stage needs
    # it rising, as zeta does on (0, rho], so the bracket phase stops there
    monkeypatch.setattr(solver, "_float_residual", lambda spec, coarse, x: (0.3 - x, -1.0))
    with pytest.raises(NoBracketError, match="no sign change.*endpoint residuals"):
        solver._bracket(POLYA, [])


def test_input_validation(pipeline_counts):
    spec = get_variety("polya")
    with pytest.raises(ValueError, match="too small"):
        solve_rho(spec, pipeline_counts["polya"], 30, 60)
    with pytest.raises(ValueError, match="too small"):
        solve_rho(spec, pipeline_counts["polya"], 200, 20)


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_counts_of_any_reach_give_the_same_result(rho_results, variety):
    # counts to 20, below the bracket's reach, are continued as expand_variety's are
    assert solve_rho(get_variety(variety), counts_for(variety, 20), 200, 60) == \
        rho_results[variety]


@pytest.mark.parametrize("variety", ["identity", "hierarchy"])
def test_counts_of_another_variety_rejected_before_any_work(pipeline_counts, monkeypatch,
                                                            variety):
    # identity counts once gave polya a wrong rho "certified" to 30 digits
    def no_work(*args):
        raise AssertionError("numeric_exponent ran on mismatched counts")

    monkeypatch.setattr(solver, "numeric_exponent", no_work)
    # caught by float_exponent, and by spec_counts below the bracket's reach
    for counts in (pipeline_counts[variety], counts_for(variety, 10)):
        with pytest.raises(ValueError, match="count/variety mismatch: .* vs polya"):
            solve_rho(get_variety("polya"), counts, 200, 60)


def test_newton_stall_reported(pipeline_counts, monkeypatch):
    # one Newton step on the short model, from a start about 2^-96 off the
    # root (float Newton, then one doubling step), cannot reach 10**-65
    spec = get_variety("polya")
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    with pytest.raises(StalledError, match="not contracting after 1 iterations"):
        solve_rho(spec, pipeline_counts["polya"], 200, 60)


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_half_order_reaches_reference(pipeline_counts, variety):
    # the split model is accurate to about rho^(3N) at rho, so N=100 holds
    # all 50 digits of the reference (the degree-2N exponent held 40, the
    # order-N zeta series needed N=400 for those)
    result = solve_rho(get_variety(variety), pipeline_counts[variety], 100, 60)
    assert agreement_digits(result.rho, result.ctx.mpf(RHO_50[variety]), result.ctx) >= 49


def test_a_model_root_beyond_its_range_is_swept_again(monkeypatch):
    # at N = 50, D = 80 the identity start, from h of count reach 50 (good to
    # about rho^50), lies 2^-78 from the roots of both split models, beyond
    # their range of b = 82 bits: each model's three exponents (H4 of degree
    # 4n and h, twice, of degree 2n, for n = 50 and its check 25) are swept
    # again at its root, and the result still agrees with the reference
    swept = []
    taylor = solver.series_taylor

    def recording(coeffs, x, r, w, g=0):
        swept.append((len(coeffs), r))
        return taylor(coeffs, x, r, w, g)

    monkeypatch.setattr(solver, "series_taylor", recording)
    result = solve_rho(IDENTITY, counts_for("identity", 50), 50, 80)
    R = solver.MODEL_EXTRA
    assert [s for s in swept if s[1] == R] == [(201, R), (101, R), (101, R),
                                                (101, R), (51, R), (51, R)]
    ctx = result.ctx
    assert agreement_digits(result.rho, ctx.mpf(RHO_50["identity"]), ctx) >= result.certified_digits


@settings(max_examples=60, deadline=None)
@given(T=st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=30),
       i=st.sampled_from([2, 3]))
def test_compose_power_is_the_exact_composition(T, i):
    # T(s) at s = (1+u)^i - 1, truncated at the order of T, against the
    # composition in Fractions term by term: exact, no flooring
    R = len(T) - 1
    s = [Fraction(math.comb(i, k)) for k in range(i + 1)]
    s[0] = Fraction(0)
    power, exact = [Fraction(1)] + [Fraction(0)] * R, [Fraction(0)] * (R + 1)
    for c in T:
        exact = [e + c * p for e, p in zip(exact, power)]
        power = [sum(power[j] * s[k - j] for j in range(max(0, k - i), k + 1)) for k in range(R + 1)]
    assert solver._compose_power(T, i) == exact


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
@pytest.mark.parametrize("D", [30, 40, 200, 1000])
def test_cayley_root_matches_a_logarithm_per_step(variety, D):
    # T~ at y0 = rho^2 and rho^3, at the solver's width w + G: one logarithm
    # at the start and the log1p series per step against a full logarithm
    # per step, from the same start and with the same stopping rule
    spec, R = get_variety(variety), 12
    ctx = working_context(D)
    w = hp.fixed_bits(ctx)
    G = solver.COMPOSE_BITS * (R + 1)
    W = w + G
    h = numeric_exponent(spec, counts_for(variety, 60), 60, ctx)[0]
    x = hp.to_fixed(ctx.mpf(RHO_50[variety]), w, ctx)
    c = spec.prefactor
    for i in (2, 3):
        y0 = (x**i << G) >> (i - 1) * w
        c0 = series_taylor(h, y0, 0, w, G)[0] + hp.fixed_log((c.numerator << W) // c.denominator, W)
        s = y0 if spec.z_exponent else 1 << W
        root = solver._cayley_root(c0, s, W, hp.fixed_log)
        assert abs(root - cayley_oracle.cayley_root(c0, s, W)) <= 1, i

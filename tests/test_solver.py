from fractions import Fraction

import pytest

from treeasym.counts import counts_for
from treeasym.hp import agreement_digits, working_context
from treeasym.solver import (
    DEFAULT_BRACKET,
    MAX_NEWTON,
    NoBracketError,
    StalledError,
    find_root,
    solve_rho,
)
from treeasym.varieties import exponent_prefix, get_variety, numeric_exponent

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


def test_no_bracket_error_carries_diagnostics(pipeline_counts):
    spec = get_variety("polya")
    with pytest.raises(NoBracketError, match="no sign change"):
        solve_rho(spec, pipeline_counts["polya"], 200, 60,
                  bracket=(Fraction(1, 100), Fraction(2, 100)))


def test_input_validation(pipeline_counts):
    spec = get_variety("polya")
    with pytest.raises(ValueError, match="too small"):
        solve_rho(spec, pipeline_counts["polya"], 30, 60)
    with pytest.raises(ValueError, match="too small"):
        solve_rho(spec, pipeline_counts["polya"], 200, 20)
    with pytest.raises(ValueError, match="counts cover"):
        solve_rho(spec, counts_for("polya", 100), 150, 60)


def test_newton_stall_reported(pipeline_counts):
    # one Newton step on the short model, from a start about 2^-96 off the
    # root (float Newton, then one doubling step), cannot reach 10**-65
    spec = get_variety("polya")
    with pytest.raises(StalledError, match="not contracting after 1 iterations"):
        solve_rho(spec, pipeline_counts["polya"], 200, 60, max_newton=1)


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_half_order_reaches_reference(pipeline_counts, variety):
    # the degree-2N exponent is accurate to about rho^N at rho, so N=100
    # already gives 40 digits (the order-N zeta series needed N=400)
    result = solve_rho(get_variety(variety), pipeline_counts[variety], 100, 60)
    assert agreement_digits(result.rho, result.ctx.mpf(RHO_50[variety]), result.ctx) >= 40


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_warm_start_finds_the_bisected_root(pipeline_counts, variety):
    # the root at N = 200 lies about rho^100 from the root at N = 100, so
    # Newton started there needs no bisection and only a few steps
    spec, ctx = get_variety(variety), working_context(60)
    h = numeric_exponent(spec, pipeline_counts[variety], 200, ctx)
    rho, _ = find_root(spec, h, ctx, DEFAULT_BRACKET, 60, MAX_NEWTON)
    half = exponent_prefix(h, 100)
    cold, _ = find_root(spec, half, ctx, DEFAULT_BRACKET, 60, MAX_NEWTON)
    warm, iterations = find_root(spec, half, ctx, DEFAULT_BRACKET, 60, MAX_NEWTON, start=rho)
    assert agreement_digits(warm, cold, ctx) >= 63
    assert iterations <= 3


def test_a_distant_start_is_swept_again(pipeline_counts):
    # a start 10**-3 off the root is outside the range of the short Taylor
    # model: its first root is swept again until the model holds, and the
    # result is the root found from the bracket
    spec, ctx = get_variety("identity"), working_context(60)
    h = numeric_exponent(spec, pipeline_counts["identity"], 200, ctx)
    cold, _ = find_root(spec, h, ctx, DEFAULT_BRACKET, 60, MAX_NEWTON)
    far, iterations = find_root(spec, h, ctx, DEFAULT_BRACKET, 60, MAX_NEWTON,
                                start=cold + ctx.mpf(10) ** -3)
    assert agreement_digits(far, cold, ctx) >= 70
    assert iterations > 3

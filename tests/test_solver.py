from fractions import Fraction

import pytest

from treeasym import solver
from treeasym.counts import IDENTITY, counts_for
from treeasym.hp import agreement_digits
from treeasym.solver import NoBracketError, StalledError, solve_rho
from treeasym.varieties import get_variety

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


def test_no_bracket_error_carries_diagnostics(pipeline_counts, monkeypatch):
    spec = get_variety("polya")
    monkeypatch.setattr(solver, "DEFAULT_BRACKET", (Fraction(1, 100), Fraction(2, 100)))
    with pytest.raises(NoBracketError, match="no sign change"):
        solve_rho(spec, pipeline_counts["polya"], 200, 60)


def test_input_validation(pipeline_counts):
    spec = get_variety("polya")
    with pytest.raises(ValueError, match="too small"):
        solve_rho(spec, pipeline_counts["polya"], 30, 60)
    with pytest.raises(ValueError, match="too small"):
        solve_rho(spec, pipeline_counts["polya"], 200, 20)
    with pytest.raises(ValueError, match="counts cover"):
        solve_rho(spec, counts_for("polya", 100), 150, 60)


@pytest.mark.parametrize("variety", ["identity", "hierarchy"])
def test_counts_of_another_variety_rejected_before_any_work(pipeline_counts, monkeypatch,
                                                            variety):
    # identity counts once gave polya a wrong rho "certified" to 30 digits
    def no_work(*args):
        raise AssertionError("numeric_exponent ran on mismatched counts")

    monkeypatch.setattr(solver, "numeric_exponent", no_work)
    with pytest.raises(ValueError, match="count/variety mismatch: .* vs polya"):
        solve_rho(get_variety("polya"), pipeline_counts[variety], 200, 60)


def test_newton_stall_reported(pipeline_counts, monkeypatch):
    # one Newton step on the short model, from a start about 2^-96 off the
    # root (float Newton, then one doubling step), cannot reach 10**-65
    spec = get_variety("polya")
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    with pytest.raises(StalledError, match="not contracting after 1 iterations"):
        solve_rho(spec, pipeline_counts["polya"], 200, 60)


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_half_order_reaches_reference(pipeline_counts, variety):
    # the degree-2N exponent is accurate to about rho^N at rho, so N=100
    # already gives 40 digits (the order-N zeta series needed N=400)
    result = solve_rho(get_variety(variety), pipeline_counts[variety], 100, 60)
    assert agreement_digits(result.rho, result.ctx.mpf(RHO_50[variety]), result.ctx) >= 40


def test_a_model_root_beyond_its_range_is_swept_again(monkeypatch):
    # at N = 50, D = 40 the identity start lies further from the root of the
    # order-50 model than the model's range: the 101-coefficient exponent is
    # swept again at that root, and the result still agrees with the reference
    swept = []
    taylor = solver.series_taylor

    def recording(coeffs, x, r, w):
        swept.append((len(coeffs), r))
        return taylor(coeffs, x, r, w)

    monkeypatch.setattr(solver, "series_taylor", recording)
    result = solve_rho(IDENTITY, counts_for("identity", 50), 50, 40)
    assert (101, solver.MODEL_EXTRA) in swept
    ctx = result.ctx
    assert agreement_digits(result.rho, ctx.mpf(RHO_50["identity"]), ctx) >= result.certified_digits

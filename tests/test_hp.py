import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeasym import hp
from treeasym.expansions import expand_variety
from treeasym.hp import GUARD_DIGITS, agreement_digits, context, to_decimal, working_context
from treeasym.series import TruncationWarning


def test_contexts_do_not_touch_global_state():
    before = mpmath.mp.dps
    ctx = context(123)
    assert ctx.dps == 123
    ctx.sqrt(2)
    assert mpmath.mp.dps == before


def test_contexts_are_independent():
    a = context(30)
    b = context(60)
    assert a.dps == 30 and b.dps == 60
    # same value, different precision: digits differ past 30 places
    va = a.sqrt(2)
    vb = b.sqrt(2)
    assert agreement_digits(va, vb, b) >= 28


def test_one_context_per_precision():
    assert context(47) is context(47)
    assert context(47) is not context(48)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        a, b = (expand_variety(v, L=2, N=60, D=40) for v in ("polya", "hierarchy"))
    assert a.asym.ctx is b.asym.ctx is a.rho_result.ctx is working_context(40)


def test_clone_runs_once_per_precision(monkeypatch):
    clone, clones = mpmath.mp.clone, []

    def counted():
        clones.append(1)
        return clone()

    context.cache_clear()
    monkeypatch.setattr(mpmath.mp, "clone", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for _ in range(2):
            expand_variety("identity", L=2, N=60, D=40)
    assert len(clones) == 1
    context(30)
    context(30)
    working_context(40)
    assert len(clones) == 2


def test_working_context_guard():
    assert working_context(60).dps == 60 + GUARD_DIGITS


def test_rejects_nonpositive_digits():
    with pytest.raises(ValueError):
        context(0)


class TestAgreementDigits:
    def test_equal_values_cap_at_dps(self):
        ctx = context(40)
        assert agreement_digits(ctx.mpf(3), ctx.mpf(3), ctx) == 40

    def test_known_separation(self):
        ctx = context(40)
        got = agreement_digits(ctx.mpf("1.0000000"), ctx.mpf("1.0001"), ctx)
        assert got == 4

    def test_zero_pair(self):
        ctx = context(40)
        assert agreement_digits(ctx.mpf(0), ctx.mpf(0), ctx) == 40

    def test_sign_disagreement_is_zero(self):
        ctx = context(40)
        assert agreement_digits(ctx.mpf(1), ctx.mpf(-1), ctx) == 0

    @pytest.mark.parametrize("sign, expected_shift", [(1, 1), (-1, 0)])
    def test_exact_decimal_boundaries(self, sign, expected_shift):
        # |1 - b| = 10^-k (1 + sign 2^-30) with b below 1, so max(|1|, |b|) = 1:
        # k digits exactly when the gap is at most 10^-k, k - 1 just above that;
        # b carries more bits than ctx, and the count reads them all
        ctx = context(40)
        hi = context(80)
        for k in range(1, ctx.dps + 1):
            b = 1 - hi.mpf(10) ** -k * (1 + sign * hi.mpf(2) ** -30)
            assert agreement_digits(1, b, ctx) == k - expected_shift, k

    def test_accepts_fractions_and_strings(self):
        from fractions import Fraction

        ctx = context(40)
        assert agreement_digits(Fraction(1, 3), "0.333333333333", ctx) >= 11


def test_to_decimal_round_trip():
    ctx = context(50)
    x = ctx.sqrt(5) / 7
    text = to_decimal(x, 30, ctx)
    assert agreement_digits(ctx.mpf(text), x, ctx) >= 29
    assert to_decimal(ctx.mpf(text), 30, ctx) == text


PRECISIONS = st.sampled_from([30, 55, 95, 215])


@settings(max_examples=300, deadline=None)
@given(v=st.integers(-(2**700), 2**700), w=st.integers(0, 800), digits=PRECISIONS)
def test_from_fixed_is_the_rounded_ldexp(v, w, digits):
    # bit for bit the value of the mpf route it replaces
    ctx = context(digits)
    assert hp.from_fixed(v, w, ctx)._mpf_ == ctx.ldexp(ctx.mpf(v), -w)._mpf_


def _check_values(v, prec):
    """Checks of ``v``: equal, one ulp of ``prec`` bits either way, nearby, opposite sign, zero."""
    ulp = 1 << max(0, abs(v).bit_length() - prec)
    return [v, v + ulp, v - ulp, v + 3 * ulp // 2, v + (ulp >> 1), -v, 0, v >> 7]


def _assert_certified_fixed_matches_mpf(v, check, w, D, ctx):
    expected = hp.certified_digits(hp.from_fixed(v, w, ctx), hp.from_fixed(check, w, ctx), D, ctx)
    assert hp.certified_fixed(v, check, w, D, ctx) == expected, (v, check)


class TestCertifiedFixed:
    @settings(max_examples=200, deadline=None)
    @given(v=st.integers(-(2**500), 2**500), w=st.integers(150, 400), digits=PRECISIONS,
           D=st.integers(1, 240))
    def test_matches_certified_digits_on_mpf(self, v, w, digits, D):
        ctx = context(digits)
        for check in _check_values(v, ctx.prec):
            _assert_certified_fixed_matches_mpf(v, check, w, D, ctx)

    @pytest.mark.parametrize("v", [0, 1, -1, 3 << 300, -(5 << 250) - 1])
    def test_edge_pairs(self, v):
        ctx, w = context(55), 226
        for check in _check_values(v, ctx.prec):
            _assert_certified_fixed_matches_mpf(v, check, w, 40, ctx)
        assert hp.certified_fixed(0, 0, w, 40, ctx) == 40
        assert hp.certified_fixed(v, v, w, 40, ctx) == 40
        if v:
            assert hp.certified_fixed(v, -v, w, 40, ctx) == 0

    def test_reads_the_rounded_values(self):
        # y sits just past a decade boundary from x, 20 bits below the
        # precision: the unrounded pair agrees on k - 1 digits, and rounding
        # y to the context can move it to k
        ctx, w = context(30), 200
        x = (3 << (ctx.prec - 2)) << 20
        for k in range(1, 31):
            _assert_certified_fixed_matches_mpf(x, x - (x // 10**k + 1), w, 30, ctx)

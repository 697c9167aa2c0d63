import mpmath
import pytest

from treeasym.hp import GUARD_DIGITS, agreement_digits, context, to_decimal, working_context


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

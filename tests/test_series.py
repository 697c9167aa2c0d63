import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeasym import series
from treeasym.hp import (
    agreement_digits,
    context,
    fixed_bits,
    from_fixed,
    to_fixed,
    working_context,
)
from treeasym.series import (
    PowerSeries,
    series_eval_deriv_tail,
    series_exp,
    series_exp_fixed,
    series_taylor,
    series_taylor_split,
)


def from_integers(values):
    """Exact series with the given integer coefficients."""
    return PowerSeries(tuple(Fraction(v) for v in values))


def series_mul(f, g):
    """Cauchy product truncated at ``min(f.order, g.order)``: the oracle of ``series_exp``."""
    order = min(f.order, g.order)
    return PowerSeries(tuple(
        sum(f.coeffs[k] * g.coeffs[n - k] for k in range(n + 1)) for n in range(order + 1)
    ))


def series_derivative(f):
    """Coefficient-wise derivative, order drops by one."""
    if f.order == 0:
        return PowerSeries((0 * f.coeffs[0],))
    return PowerSeries(tuple(n * f.coeffs[n] for n in range(1, f.order + 1)))


fractions_st = st.fractions(min_value=-2, max_value=2, max_denominator=8)


def exact_series(draw_coeffs, zero_constant=False):
    coeffs = list(draw_coeffs)
    if zero_constant and coeffs:
        coeffs[0] = Fraction(0)
    return PowerSeries(tuple(Fraction(c) for c in coeffs))


class TestMul:
    def test_difference_of_squares(self):
        one_plus = from_integers([1, 1, 0])
        one_minus = from_integers([1, -1, 0])
        assert series_mul(one_plus, one_minus).coeffs == (1, 0, -1)

    def test_identity_element(self):
        f = from_integers([3, 1, 4, 1, 5])
        one = from_integers([1, 0, 0, 0, 0])
        assert series_mul(f, one).coeffs == f.coeffs

    def test_telescoping_geometric(self):
        geometric = from_integers([1] * 6)
        one_minus = from_integers([1, -1, 0, 0, 0, 0])
        assert series_mul(geometric, one_minus).coeffs == (1, 0, 0, 0, 0, 0)

    def test_truncates_to_shorter(self):
        f = from_integers([1, 2, 3, 4])
        g = from_integers([5, 6])
        assert series_mul(f, g).order == 1


class TestExp:
    def test_exp_z(self):
        e = series_exp(from_integers([0, 1, 0]))
        assert e.coeffs == (1, 1, Fraction(1, 2))

    def test_exp_zero(self):
        assert series_exp(from_integers([0, 0, 0])).coeffs == (1, 0, 0)

    def test_exact_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(from_integers([1, 1]))

    def test_numeric_nonzero_constant(self):
        ctx = context(40)
        e = series_exp(from_integers([-1, 1]), ctx)
        assert abs(e[0] - ctx.exp(-1)) < ctx.mpf(10) ** -38

    @settings(max_examples=40, deadline=None)
    @given(st.lists(fractions_st, min_size=2, max_size=8))
    def test_exp_inverse_property(self, coeffs):
        g = exact_series(coeffs, zero_constant=True)
        neg = PowerSeries(tuple(-c for c in g.coeffs))
        product = series_mul(series_exp(g), series_exp(neg))
        assert product.coeffs == (1,) + (0,) * g.order

    @settings(max_examples=40, deadline=None)
    @given(st.lists(fractions_st, min_size=2, max_size=8))
    def test_exp_derivative_identity(self, coeffs):
        # (exp g)' = g' * exp(g), checked coefficient-wise and exactly
        g = exact_series(coeffs, zero_constant=True)
        e = series_exp(g)
        lhs = series_derivative(e)
        rhs = series_mul(series_derivative(g), e)
        assert lhs.coeffs[: rhs.order + 1] == rhs.coeffs[: lhs.order + 1]


class TestEvalDeriv:
    def test_second_derivative_of_square(self):
        ctx = context(30)
        f = from_integers([0, 0, 1])
        assert series_eval_deriv_tail(f, ctx.mpf("0.7"), 2, ctx)[0] == 2

    def test_geometric_value(self):
        ctx = working_context(60)
        geometric = from_integers([1] * 201)
        value = series_eval_deriv_tail(geometric, ctx.mpf("0.5"), 0, ctx)[0]
        assert abs(value - 2) < ctx.mpf(10) ** -55

    def test_geometric_derivative(self):
        ctx = working_context(60)
        geometric = from_integers([1] * 201)
        value = series_eval_deriv_tail(geometric, ctx.mpf("0.5"), 1, ctx)[0]
        assert abs(value - 4) < ctx.mpf(10) ** -50

    def test_order_beyond_truncation_rejected(self):
        ctx = context(30)
        with pytest.raises(ValueError):
            series_eval_deriv_tail(from_integers([1, 1]), ctx.mpf("0.1"), 2, ctx)

    def test_finite_difference_cross_check(self):
        ctx = working_context(50)
        coeffs = [Fraction(1, n + 3) for n in range(40)]
        f = PowerSeries(tuple(coeffs))
        x = ctx.mpf("0.3")
        h = ctx.mpf(10) ** -12
        d1 = series_eval_deriv_tail(f, x, 1, ctx)[0]
        fd = (series_eval_deriv_tail(f, x + h, 0, ctx)[0]
              - series_eval_deriv_tail(f, x - h, 0, ctx)[0]) / (2 * h)
        assert abs(d1 - fd) < ctx.mpf(10) ** -20  # central difference error ~ h^2


class TestPrecisionMonotonicity:
    @pytest.mark.parametrize("digits", [30, 45, 60])
    def test_eval_stable_under_extra_digits(self, digits):
        coeffs = tuple(Fraction((-1) ** n, n + 1) for n in range(120))
        f = PowerSeries(coeffs)
        lo = context(digits)
        hi = context(digits + 10)
        a = series_eval_deriv_tail(f, lo.mpf("0.4"), 0, lo)[0]
        b = series_eval_deriv_tail(f, hi.mpf("0.4"), 0, hi)[0]
        assert agreement_digits(a, b, hi) >= digits - 5


def test_tail_indicator_reported():
    ctx = context(30)
    geometric = from_integers([1] * 51)
    _, tail = series_eval_deriv_tail(geometric, ctx.mpf("0.5"), 0, ctx)
    assert 0 < tail < ctx.mpf(10) ** -12


def exact_taylor(coeffs, x, r):
    """``x^j f^(j)(x) / j!`` for ``j = 0 .. r`` by an exact Fraction Taylor shift."""
    a = [Fraction(c) for c in coeffs]
    for j in range(r + 1):
        for k in range(len(a) - 2, j - 1, -1):
            a[k] += x * a[k + 1]
    return [v * x**j for j, v in enumerate(a[: r + 1])]


def exact_dyadic_taylor(coeffs, s, e, r):
    """:func:`exact_taylor` at the point ``s / 2^e`` on integers: ``a[k]`` holds
    its unscaled value times ``2^(e (top - k))``; orders beyond the degree are 0."""
    top = len(coeffs) - 1
    a = [c << e * (top - k) for k, c in enumerate(coeffs)]
    for j in range(min(r, top) + 1):
        for k in range(top - 1, j - 1, -1):
            a[k] += s * a[k + 1]
    return [Fraction(a[j] * s**j, 2 ** (e * top)) if j <= top else 0 for j in range(r + 1)]


def units_off(got, coeffs, s, e, r):
    """Distance of each fixed-point ``got[j]`` from the exact shift of the
    fixed-point ``coeffs`` to ``s / 2^e``, in units of their scale."""
    return [abs(v - x) for v, x in zip(got, exact_dyadic_taylor(coeffs, s, e, r), strict=True)]


#: Dyadic points ``s / 2^e`` in [-1/2, 3/5]: 0, ``±2^-e`` down to ``2^-60``, and others.
dyadic_points_st = st.one_of(
    st.just((0, 1)),
    st.tuples(st.sampled_from([-1, 1]), st.integers(1, 60)),
    st.integers(1, 60).flatmap(lambda e: st.tuples(st.integers(-(2 ** (e - 1)), 3 * 2**e // 5), st.just(e))),
)


class TestTaylor:
    def test_exact_quadratic(self):
        # f = 1 + 2z + 3z^2 at x = 1/2: f = 11/4, x f' = 5/2, x^2 f''/2 = 3/4,
        # all exact in 8-bit fixed point
        w = 8
        f = tuple(c << w for c in (1, 2, 3))
        got = series_taylor(f, 1 << (w - 1), 2, w)
        assert [Fraction(v, 2**w) for v in got] == [Fraction(11, 4), Fraction(5, 2), Fraction(3, 4)]

    def test_matches_termwise_derivatives(self):
        ctx = working_context(50)
        w = fixed_bits(ctx)
        f = PowerSeries(tuple(ctx.mpf(1) / (n + 3) for n in range(80)))
        x = ctx.mpf("0.45")
        taylor = series_taylor([to_fixed(c, w, ctx) for c in f.coeffs], to_fixed(x, w, ctx), 4, w)
        factorial = 1
        for r in range(5):
            expected = series_eval_deriv_tail(f, x, r, ctx)[0] / factorial * x**r
            assert agreement_digits(from_fixed(taylor[r], w, ctx), expected, ctx) >= 55
            factorial *= r + 1

    def test_order_outside_degree_rejected(self):
        with pytest.raises(ValueError):
            series_taylor((1, 1), 1 << 7, 2, 8)

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=401),
        x=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(3, 5), max_denominator=10**6),
        r=st.integers(min_value=0, max_value=12),
        w=st.sampled_from([64, 100, 226]),
    )
    def test_within_flooring_bound_of_exact_shift(self, coeffs, x, r, w):
        # the documented bound: coefficient j is within (j + 2) / (1 - x)^(j + 1)
        # units of 2^-w of the exact shift at the fixed-point x actually used
        r = min(r, len(coeffs) - 1)
        X = math.floor(x * 2**w)
        got = series_taylor([c << w for c in coeffs], X, r, w)
        exact = exact_taylor(coeffs, Fraction(X, 2**w), r)
        for j in range(r + 1):
            bound = (j + 2) / (1 - x) ** (j + 1)
            assert abs(Fraction(got[j], 2**w) - exact[j]) * 2**w <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        point=dyadic_points_st,
        n=st.integers(min_value=1, max_value=601),
        r=st.integers(min_value=0, max_value=23),
        w=st.sampled_from([64, 226, 758]),
        growth=st.sampled_from([0, 1]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_within_stated_bound_of_exact_shift(self, point, n, r, w, growth, seed):
        # the stated bound: within 2 units of 2^-w of the exact shift of the
        # given fixed-point integers, for the whole and for the prefix alike;
        # coefficient m has w + 64 + growth * m random bits, as the exponent's do
        s, e = point
        X = s << (w - e)
        rng = random.Random(seed)
        coeffs = [rng.getrandbits(w + 64 + growth * m) * rng.choice((-1, 1)) for m in range(n)]
        cut = rng.randint(1, n)
        top = min(r, n - 1)
        if n <= 40:  # the integer reference is exact_taylor's shift
            assert exact_dyadic_taylor(coeffs, s, e, top) == exact_taylor(coeffs, Fraction(s, 2**e), top)
        assert max(units_off(series_taylor(coeffs, X, top, w), coeffs, s, e, top)) <= 2
        whole, low = series_taylor_split(coeffs, cut, X, r, w)
        assert max(units_off(whole, coeffs, s, e, r)) <= 2
        assert max(units_off(low, coeffs[:cut], s, e, r)) <= 2

    def test_zero_point_returns_the_constant_term(self):
        # x^j f^(j)(x) / j! at x = 0 is c_0 for j = 0 and 0 beyond
        coeffs = (5, -7, 11, 13)
        assert series_taylor(coeffs, 0, 2, 8) == (5, 0, 0)
        assert series_taylor_split(coeffs, 2, 0, 5, 8) == ((5, 0, 0, 0, 0, 0),) * 2

    def test_negative_step_runs_the_one_kernel(self, monkeypatch):
        # a point just below zero, as a short model's root just below its sweep point
        calls = []
        original = series._scaled_shift

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(series, "_scaled_shift", counted)
        w = 226
        model = [(-1) ** k * (3 << w) // (k + 2) ** 5 for k in range(16)]
        s, e = -(2**40) - 987654321, 90  # y = s / 2^e, about -2^-50
        got = series_taylor(model, s << (w - e), 12, w)
        assert len(calls) == 1
        assert max(units_off(got, model, s, e, 12)) <= 2

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=30),
        y=st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=10**9),
        w=st.sampled_from([64, 100, 226]),
    )
    def test_shift_by_a_signed_point_within_bound(self, coeffs, y, w):
        # the shift of a short model to its root: y of either sign, bound at |y|
        r = len(coeffs) - 1
        Y = math.floor(y * 2**w)
        got = series_taylor([c << w for c in coeffs], Y, r, w)
        exact = exact_taylor(coeffs, Fraction(Y, 2**w), r)
        for j in range(r + 1):
            bound = (j + 2) / (1 - abs(y)) ** (j + 1)
            assert abs(Fraction(got[j], 2**w) - exact[j]) * 2**w <= bound


class TestTaylorSplit:
    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=160),
        x=st.fractions(min_value=0, max_value=Fraction(3, 5), max_denominator=10**6),
        r=st.integers(min_value=0, max_value=12),
        w=st.sampled_from([64, 100, 226]),
        data=st.data(),
    )
    def test_within_documented_bound(self, coeffs, x, r, w, data):
        if x == Fraction(3, 5):
            x = Fraction(0)  # the interval is [0, 0.6)
        cut = data.draw(st.integers(min_value=1, max_value=len(coeffs)))
        X = math.floor(x * 2**w)
        xw = Fraction(X, 2**w)
        f = [c << w for c in coeffs]
        whole, low = series_taylor_split(f, cut, X, r, w)
        assert len(whole) == len(low) == r + 1

        def padded(values, n):
            top = min(r, n - 1)
            return series_taylor(values[:n], X, top, w) + (0,) * (r - top)

        def block(j):
            return (j + 2) / (1 - x) ** (j + 1)

        # the prefix is series_taylor's own result
        assert low == padded(f, cut)
        reference = padded(f, len(f))
        exact = exact_taylor(coeffs, xw, min(r, len(coeffs) - 1)) + [0] * r
        for j in range(r + 1):
            bound = block(j) + sum(
                math.comb(cut, k) * xw ** (cut - k) * block(j - k) + 2 for k in range(min(j, cut) + 1)
            )
            error = abs(Fraction(whole[j], 2**w) - exact[j]) * 2**w
            assert error <= bound, (j, cut)
            assert abs(whole[j] - reference[j]) <= bound + block(j)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.integers(min_value=-(2**90), max_value=2**90), min_size=1, max_size=90),
        point=st.one_of(
            st.integers(1, 2**24),                                  # near 0
            st.integers(1, 2**24).map(lambda k: -k),
            st.integers(1, 2**40).map(lambda k: (1 << 64) - k),     # near 1, read at w = 64
            st.fractions(min_value=Fraction(-3, 5), max_value=Fraction(3, 5), max_denominator=10**6),
        ),
        r=st.integers(min_value=0, max_value=15),
        w=st.sampled_from([64, 100, 226]),
        data=st.data(),
    )
    def test_within_two_units_of_the_exact_scaled_sum(self, coeffs, point, r, w, data):
        # whole and prefix within 2 units of 2^-(w+g) of sum_m C(m, j) c_m x^m
        # in Fractions, for either sign of coefficient and point, a cut that
        # may lie past the end and a result scale g bits finer than the
        # coefficients', up to wider than w
        if isinstance(point, Fraction):
            X = math.floor(point * 2**w)
        else:
            X = point << (w - 64) if abs(point) >= 1 << 40 else point
        cut = data.draw(st.integers(min_value=1, max_value=len(coeffs) + 3), label="cut")
        g = data.draw(st.sampled_from([0, 0, 40, 300]), label="g")
        whole, low = series_taylor_split(coeffs, cut, X << g, r, w, g)
        x = Fraction(X, 2**w)

        def exact(block, j):
            return sum(math.comb(m, j) * Fraction(c, 2**w) * x**m for m, c in enumerate(block))

        for j in range(r + 1):
            assert abs(whole[j] - exact(coeffs, j) * 2 ** (w + g)) <= 2, j
            assert abs(low[j] - exact(coeffs[:cut], j) * 2 ** (w + g)) <= 2, j

    def test_high_block_below_the_unit(self):
        # x^cut far below 2^-w: the top block still reaches the whole's
        # coefficients (here through x^cut times 2^200-sized coefficients)
        w, cut = 64, 150
        coeffs = [1 << w] * cut + [1 << (w + 200)] * 5
        X = 1 << (w - 1)
        whole, low = series_taylor_split(coeffs, cut, X, 3, w)
        exact = exact_taylor([c >> w for c in coeffs], Fraction(1, 2), 3)
        for j in range(4):
            assert abs(Fraction(whole[j], 2**w) - exact[j]) * 2**w <= 2 * (j + 2) * 2 ** (j + 1) + 8
        assert whole != low

    def test_orders_beyond_a_block_read_zero(self):
        w = 64
        coeffs = [c << w for c in (1, -2, 3, 4, 5)]
        whole, low = series_taylor_split(coeffs, 2, 3 << (w - 3), 7, w)
        assert whole[5:] == (0, 0, 0) and low[2:] == (0,) * 6
        assert low[:2] == series_taylor(coeffs[:2], 3 << (w - 3), 1, w)
        assert max(units_off(whole, coeffs, 3, 3, 7)) <= 2

    @pytest.mark.parametrize("extra, tail", [pytest.param(0, 0, id="0"), pytest.param(3, 0, id="3"),
                                             pytest.param(0, 4, id="floored-block")])
    def test_cut_at_the_end_returns_the_prefix_twice(self, extra, tail):
        # no block above the cut, or one of unit coefficients (-1)^m whose
        # terms (5/16)^m, m >= 9, all floor to zero
        w = 100
        X = -(5 << (w - 4))
        coeffs = [(k * k - 7) << (w - 3) for k in range(9)]
        block = [(-1) ** m for m in range(9, 9 + tail)]
        whole, low = series_taylor_split(coeffs + block, len(coeffs) + extra, X, 4, w)
        assert whole == low == series_taylor(coeffs, X, 4, w)

    def test_cut_must_be_positive(self):
        with pytest.raises(ValueError):
            series_taylor_split((1, 1), 0, 0, 1, 8)


class TestExpFixed:
    @settings(max_examples=40, deadline=None)
    @given(
        g=st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=1000), min_size=1, max_size=14),
        w=st.sampled_from([64, 100, 226]),
    )
    def test_within_stated_unit_bound(self, g, w):
        G = [math.floor(c * 2**w) for c in g]
        got = series_exp_fixed(G, w)
        exact = series_exp(PowerSeries(tuple([Fraction(0)] + [Fraction(c, 2**w) for c in G[1:]])))
        bound = [Fraction(0)]
        for n in range(1, len(G)):
            bound.append(
                1 + sum(Fraction(k, n) * abs(Fraction(G[k], 2**w)) * bound[n - k] for k in range(1, n + 1))
            )
        assert got[0] == 1 << w
        for n in range(len(G)):
            assert abs(Fraction(got[n], 2**w) - exact[n]) * 2**w <= bound[n], n

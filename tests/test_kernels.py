import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeasym
from treeasym import hp
from treeasym.expansions import tau_coeffs
from treeasym.hp import context
from treeasym.kernels import b_seq, tau_symbolic

from gamma_ratio_oracle import tau_gamma
from puiseux_oracle import b_seq_direct, bell_partial, gen_binom
from qr_oracle import _q_weight, compositions, q_symbolic, r_inner, r_seq, tau_qr

SRC = Path(treeasym.__file__).parent.parent

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def bell_partial_by_partitions(n, k, xs):
    """Direct evaluation of the defining sum over (c_1, ..., c_{n-k+1})."""
    m = n - k + 1
    total = Fraction(0)
    for cs in product(range(k + 1), repeat=m):
        if sum(cs) != k or sum(i * c for i, c in enumerate(cs, start=1)) != n:
            continue
        term = Fraction(math.factorial(n))
        for i, c in enumerate(cs, start=1):
            term /= math.factorial(c)
            term *= (Fraction(xs[i - 1]) / math.factorial(i)) ** c
        total += term
    return total


class TestBellPartial:
    def test_single_block(self):
        xs = [Fraction(i + 2, 3) for i in range(8)]
        for n in range(1, 8):
            assert bell_partial(n, 1, xs) == xs[n - 1]

    def test_all_singletons(self):
        assert bell_partial(5, 5, [Fraction(2, 7)]) == Fraction(2, 7) ** 5

    def test_three_two(self):
        assert bell_partial(3, 2, [Fraction(1, 3), Fraction(1, 4)]) == Fraction(1, 4)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bell_partial(3, 4, [1, 2, 3])
        with pytest.raises(ValueError):
            bell_partial(3, 0, [1, 2, 3])
        with pytest.raises(ValueError):
            bell_partial(4, 2, [1, 2])  # needs n-k+1 = 3 arguments

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_recurrence_equals_partition_sum(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        k = data.draw(st.integers(min_value=1, max_value=n))
        xs = data.draw(
            st.lists(fractions_st, min_size=n - k + 1, max_size=n - k + 1)
        )
        assert bell_partial(n, k, xs) == bell_partial_by_partitions(n, k, xs)


class TestBSeq:
    def test_first_values(self):
        assert b_seq(1) == 1
        assert b_seq(2) == Fraction(-2, 3)
        assert b_seq(3) == Fraction(11, 12)

    # l <= 81 is the K that an order-40 error table reads
    @pytest.mark.parametrize("ell", range(1, 82))
    def test_horner_equals_direct(self, ell):
        assert b_seq(ell) == b_seq_direct(ell)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            b_seq(0)


class TestCayleyPuiseux:
    # the eight leading coefficients of the square-root expansion of the
    # tree function at z = 1/e, as (rational, sqrt2 power) pairs
    EXPECTED = [
        (Fraction(1), 0),
        (Fraction(-1), 1),
        (Fraction(2, 3), 0),
        (Fraction(-11, 36), 1),
        (Fraction(43, 135), 0),
        (Fraction(-769, 4320), 1),
        (Fraction(1768, 8505), 0),
        (Fraction(-680863, 5443200), 1),
    ]

    def test_displayed_coefficients(self):
        # the coefficient of (1 - e z)^(n/2) is c_n 2^(n/2), c_n = -B(n)/n! (c_0 = 1)
        got = [(Fraction(1), 0)] + [
            (-b_seq(n) * Fraction(2 ** (n // 2), math.factorial(n)), n % 2) for n in range(1, 8)
        ]
        assert got == self.EXPECTED


class TestGenBinom:
    def test_zero_order(self):
        assert gen_binom(Fraction(7, 3), 0) == 1

    def test_half_integer(self):
        assert gen_binom(Fraction(3, 2), 2) == Fraction(3, 8)
        assert gen_binom(Fraction(1, 2), 3) == Fraction(1, 16)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(min_value=0, max_value=12), r=st.integers(min_value=0, max_value=12))
    def test_matches_integer_binomial(self, a, r):
        expected = math.comb(a, r) if r <= a else 0
        assert gen_binom(Fraction(a), r) == expected


class TestCompositions:
    def test_examples(self):
        assert set(compositions(3, 2)) == {(1, 2), (2, 1)}
        assert set(compositions(2, 2)) == {(1, 1)}
        assert len(list(compositions(6, 3))) == 10

    @settings(max_examples=40, deadline=None)
    @given(total=st.integers(min_value=1, max_value=10), parts=st.integers(min_value=1, max_value=10))
    def test_count_and_validity(self, total, parts):
        seen = list(compositions(total, parts)) if parts <= total else []
        if parts > total:
            return
        assert len(seen) == math.comb(total - 1, parts - 1)
        assert len(set(seen)) == len(seen)
        for tup in seen:
            assert len(tup) == parts
            assert all(x >= 1 for x in tup)
            assert sum(tup) == total


def stirling2(m, s):
    @lru_cache(maxsize=None)
    def S(n, k):
        if n == k:
            return 1
        if k == 0 or k > n:
            return 0
        return k * S(n - 1, k) + S(n - 1, k - 1)

    return S(m, s)


class TestRWeights:
    def test_r_inner_first_value(self):
        assert r_inner(1) == Fraction(1, 6)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_r_inner_stirling_route(self, k):
        # sum_j (-1)^j binom(s,j) j^m = (-1)^s s! S(m, s)
        acc = Fraction(0)
        for s in range(0, 2 * k + 1):
            acc += Fraction((-1) ** s * math.factorial(s) * stirling2(2 * k, s), s + 1)
        assert r_inner(k) == acc

    def test_r_seq_values(self):
        assert r_seq(2) == [Fraction(1), Fraction(-1, 8), Fraction(1, 128)]


class TestQSymbolic:
    def test_first_forms(self):
        q1, q2, q3 = q_symbolic(3)
        assert q1 == {1: Fraction(-1, 2)}
        assert q2 == {1: Fraction(-1, 4), 3: Fraction(3, 4)}
        assert q3 == {1: Fraction(-1, 8), 3: Fraction(3, 2), 5: Fraction(-15, 8)}

    @pytest.mark.parametrize("r", range(1, 9))
    def test_weights_match_composition_enumeration(self, r):
        for j in range(r):
            direct = Fraction(0)
            if j + 1 <= r:
                for comp in compositions(r, j + 1):
                    term = Fraction(1)
                    for i, part in enumerate(comp):
                        term *= Fraction(2 * i + 1, 2) ** part
                    direct += term
            assert _q_weight(j, r) == direct

    def test_odd_index_invariant(self):
        for q in q_symbolic(12):
            assert all(idx % 2 == 1 for idx in q)


class TestTauSymbolic:
    # closed forms of the first five asymptotic coefficients
    EXPECTED = [
        {1: Fraction(-1, 2)},
        {1: Fraction(-3, 16), 3: Fraction(3, 4)},
        {1: Fraction(-25, 256), 3: Fraction(45, 32), 5: Fraction(-15, 8)},
        {
            1: Fraction(-105, 2048),
            3: Fraction(105 * 44, 2048),
            5: Fraction(-105 * 160, 2048),
            7: Fraction(105 * 128, 2048),
        },
        {
            1: Fraction(-21 * 79, 65536),
            3: Fraction(21 * 10800, 65536),
            5: Fraction(-21 * 81600, 65536),
            7: Fraction(21 * 161280, 65536),
            9: Fraction(-21 * 92160, 65536),
        },
    ]

    @pytest.mark.parametrize("ell", range(5))
    def test_closed_forms(self, ell):
        assert tau_symbolic(ell) == self.EXPECTED[ell]

    def test_evaluate(self):
        ctx = context(30)
        w = hp.fixed_bits(ctx)
        t = [0, ctx.mpf(-2), 0, ctx.mpf(4)]  # t_1 = -2, t_3 = 4
        value = hp.from_fixed(tau_coeffs([hp.to_fixed(v, w, ctx) for v in t], 1)[1], w, ctx)
        # -3(t_1 - 4 t_3)/16 = -3(-2 - 16)/16 = 27/8
        assert abs(value - ctx.mpf("3.375")) < ctx.mpf(10) ** -25

    @settings(max_examples=60, deadline=None)
    @given(ell=st.integers(0, 12), data=st.data())
    def test_evaluate_matches_exact_rational_form(self, ell, data):
        # fixed-point evaluation against the exact Fraction sum at rational t
        ctx = context(40)
        w = hp.fixed_bits(ctx)
        form = tau_symbolic(ell)
        t = [Fraction(0)] * (2 * ell + 2)
        for j in form:
            t[j] = data.draw(st.fractions(-50, 50, max_denominator=10**6))
        exact = sum(c * t[j] for j, c in form.items())
        fixed = tau_coeffs([hp.to_fixed(v, w, ctx) for v in t], ell)
        value = hp.from_fixed(fixed[ell], w, ctx)
        # each t_j is rounded to ctx once, the sum is rounded once more
        size = sum(abs(c * t[j]) for j, c in form.items()) + abs(exact)
        assert abs(value - ctx.mpf(exact.numerator) / exact.denominator) <= (
            ctx.mpf(2) ** (2 - ctx.prec) * (ctx.mpf(size.numerator) / size.denominator + 1)
        )

    @pytest.mark.parametrize("ell", range(19))
    def test_matches_composition_oracle(self, ell):
        # the paper's Q/R composition sums give the same Fractions, in the same order
        form, oracle = tau_symbolic(ell), tau_qr(ell)
        assert form == oracle
        assert list(form) == list(oracle)

    @pytest.mark.parametrize("ell", range(61))
    def test_matches_gamma_ratio_reference(self, ell):
        # the per-(j, m) Gamma-ratio table gives the same Fractions, in the same order
        form, reference = tau_symbolic(ell), tau_gamma(ell)
        assert form == reference
        assert list(form) == list(reference)

    def test_cold_high_order_form_needs_no_deep_recursion(self):
        # a cold tau_symbolic(200) fills the forms below it in ascending order, so
        # a recursion limit far below 200 frames is enough; the form must equal
        # the one that ascending calls build from fresh caches
        probe = (
            "import sys\n"
            "from treeasym import kernels\n"
            "sys.setrecursionlimit(150)\n"
            "cold = kernels.tau_symbolic(200)\n"
            "for f in (kernels.tau_symbolic, kernels._log_gamma_ratio, kernels._bernoulli):\n"
            "    f.cache_clear()\n"
            "ascending = [kernels.tau_symbolic(ell) for ell in range(201)][-1]\n"
            "assert cold == ascending and list(cold) == list(ascending)\n"
            "print(len(cold))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "201"

    @pytest.mark.parametrize("k", [1, 3, 5, 9, 15])
    def test_truncation_error_decay(self, k):
        # with t = e_k the order-L sum approximates sqrt(pi n^3) [z^n](1-z)^(k/2);
        # its relative error is ~ n^-(L+1-(k-1)/2), so one decade in n gains
        # L+1-(k-1)/2 decades, and a wrong coefficient of order <= L breaks that;
        # at L = 80 the error at n = 10^5 is about 1e-351 (k = 1), so 400 digits
        # still resolve it
        L = 80
        ctx = context(400)
        half_k = ctx.mpf(k) / 2
        taus = [tau_symbolic(ell).get(k, Fraction(0)) for ell in range(L + 1)]

        def rel_error(n):
            n = ctx.mpf(n)
            exact = (
                ctx.sqrt(ctx.pi * n**3)
                * ctx.gamma(n - half_k)
                / (ctx.gamma(-half_k) * ctx.gamma(n + 1))
            )
            approx = sum(ctx.mpf(c.numerator) / c.denominator / n**ell
                         for ell, c in enumerate(taus))
            return abs(approx - exact) / abs(exact)

        ratio = rel_error(10**4) / rel_error(10**5)
        expected = ctx.mpf(10) ** (L + 1 - (k - 1) // 2)
        assert abs(ratio / expected - 1) < 0.05, ctx.nstr(ratio / expected, 6)

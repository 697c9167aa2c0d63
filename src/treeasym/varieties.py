"""Variety models: each tree family's perturbation factor as data.

Every variety handled here has a generating function ``T(z)`` satisfying
``T = zeta(z) * exp(T)`` (after an affine change of series for hierarchies),
with ``zeta`` analytic beyond the dominant singularity of ``T``.  The factor
is encoded as

    zeta(z) = c * z^a * exp( sigma*(1-z)/2 + sum_{i>=2} eps_i * T(z^i)/i )

with per-variety constants:

=========== ===== === ====== ==============
variety      c     a  sigma   eps_i
=========== ===== === ====== ==============
polya        1     1   0      +1
identity     1     1   0      (-1)^(i-1)
hierarchy    1/2   0  -1      +1
=========== ===== === ====== ==============

These specs (:class:`VarietySpec`) live in :mod:`treeasym.counts`, which
derives the counts from them alone, and are re-exported here.

The functional equation holds for the shifted series
``T~ = T - sigma*(1-z)/2``; for hierarchies ``2T = z - 1 + exp(sum T(z^i)/i)``
becomes ``T~ = T + (1-z)/2``.  Expanding
``1 - z = (1-rho) + rho*(1 - z/rho)`` shows that only the first and third
singular-expansion coefficients move when translating back:
``t_0 += sigma*(1-rho)/2`` and ``t_2 += sigma*rho/2``.  Note the sign of the
shift inside the exponential: substituting ``T~`` into the functional
equation forces ``sigma = -1`` (exp of ``-(1-z)/2``).  With ``sigma = +1``
the spec admits no integer counts (the count recurrence stops at an
inexact division at ``n = 2``), and on the hierarchy counts ``zeta`` never
reaches ``1/e``, so there is no singularity to solve for.

Numerically ``zeta`` is evaluated through its exponent
``h = log(zeta / (c z^a)) = sum_m g_m z^m``, whose coefficients are exact:
``g_m = S_m / m`` with ``S_m`` an integer divisor sum of the counts
(:func:`zeta_exponent`).  Taken to degree ``2N`` it still reads the counts
only up to ``N``, and its truncation error at ``rho`` is about ``rho^N``;
the order-``N`` series of ``zeta`` itself (:func:`zeta_series`) is accurate
there only to about ``rho^(N/2)``, because ``zeta`` converges only for
``|z| < sqrt(rho)``.  The slow terms are ``i = 2, 3``.  Their part
``H4 = sigma*(1-z)/2 + sum_{i>=4} eps_i T(z^i)/i`` is exact to degree
``4N`` from the same counts, with truncation error about ``rho^(3N)`` at
``rho``, and so is ``h`` at ``rho^2`` and ``rho^3``: the solver
(:mod:`treeasym.solver`) evaluates ``h`` only there, and ``T(z^2)`` and
``T(z^3)`` by the functional equation.  Those tails are bounded from
``T_d <= rho_lo^-d`` (:func:`tail_bound`), so the solver reads the counts
only to the reach past which no tail is visible at its precision.  The
pipeline holds both exponents as fixed-point integers ``floor(g_m 2^w)``,
``w`` the working precision plus :data:`treeasym.hp.FIXED_GUARD_BITS` bits
(:func:`numeric_exponent`); every exponent, exact, fixed-point or float,
takes its divisor sums from one pass (:func:`_divisor_sums`).  The scaled
Taylor shift over them gives their Taylor coefficients at a point ``x`` in
the scaled variable ``u = d/x`` (one split sweep serves an exponent and its
``N//2`` prefix) in ``O(N)`` integer products and ``O(rN)`` integer
additions; adding ``a log z + log c`` gives those of ``log zeta``
(:func:`log_zeta_taylor`).  Their short exponential on integers
(:func:`treeasym.series.series_exp_fixed`) gives those of ``zeta`` up to
the factor ``zeta(x)``, which at the root is ``1/e``, so the pipeline never
forms it (:mod:`treeasym.expansions`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import hp
from .counts import CountSequence, VarietySpec, add_to_multiples

# Re-exported: the spec table lives in counts, and callers read it here too.
from .counts import HIERARCHY, IDENTITY, POLYA, VARIETIES, get_variety  # noqa: F401
from .series import PowerSeries, _fixed_power, series_exp, series_exp_fixed, series_taylor

# Not called here; the benchmark traces this name in this module (perfbench/layers.py).
from .series import series_eval_deriv_tail  # noqa: F401


def _divisor_sums(spec: VarietySpec, counts: CountSequence, N: int) -> tuple:
    """``(S, S4)``: the divisor sums of the exponents ``h`` and ``H4``, reading counts to ``N``.

    ``S4_m = sum_{d | m, m/d >= 4} eps_(m/d) d T_d`` for ``m = 0 .. 4N`` is
    one pass over the multiples of each ``d <= N``;
    ``S_m = S4_m + eps_2 (m/2) T_(m/2) + eps_3 (m/3) T_(m/3)``, the terms
    that divide ``m``, for ``m = 0 .. 2N``.
    """
    if counts.variety != spec.name:
        raise ValueError(f"count/variety mismatch: {counts.variety} vs {spec.name}")
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")
    eps = [spec.eps(0), spec.eps(1)] * (2 * N + 1)  # eps_i depends on the parity of i alone
    dT = [d * counts[d] for d in range(N + 1)]
    S4 = [0] * (4 * N + 1)
    for d in range(1, N + 1):
        add_to_multiples(S4, eps, d, dT[d], first=4)
    S = S4[: 2 * N + 1]
    for i in (2, 3):
        S[i::i] = [s + eps[i] * t for s, t in zip(S[i::i], dT[1:])]
    return S, S4


def zeta_exponent(spec: VarietySpec, counts: CountSequence, N: int) -> PowerSeries:
    """Exact coefficients ``g_0 .. g_(2N)`` of ``h = sigma*(1-z)/2 + sum_{i>=2} eps_i T(z^i)/i``.

    ``g_m = S_m / m`` for ``m >= 2``, with the integer divisor sum
    ``S_m = sum_{d | m, d < m} eps_(m/d) d T_d``; ``sigma`` adds ``sigma/2``
    to ``g_0`` and ``-sigma/2`` to ``g_1``.  For ``m <= 2N`` every proper
    divisor ``d`` is at most ``N``, so the counts are read only up to ``N``
    and the first ``2n+1`` coefficients are the exponent of degree ``2n`` for
    every ``n <= N``.
    """
    S = _divisor_sums(spec, counts, N)[0]
    half = Fraction(spec.shift_sign, 2)
    g = [half] + [Fraction(S[m], m) for m in range(1, 2 * N + 1)]
    if N >= 1:
        g[1] -= half
    return PowerSeries(tuple(g))


def numeric_exponent(spec: VarietySpec, counts: CountSequence, N: int, ctx) -> tuple:
    """``(h, H4)`` in fixed point: :func:`zeta_exponent` and its part with ``i >= 4``.

    ``h[m] = floor(g_m 2^w)`` for ``m <= 2N``, ``w = hp.fixed_bits(ctx)``, and
    ``H4`` the same for ``sigma*(1-z)/2 + sum_{i>=4} eps_i T(z^i)/i`` to
    degree ``4N``, the degree to which counts to ``N`` give it exactly.
    Each is ``floor(S_m 2^w / m)`` straight from the integer divisor sums
    of one pass; ``sigma/2`` is ``sigma 2^(w-1)`` exactly.  Built once, for
    the root and the Taylor models of both truncation orders.  The solver
    takes ``N`` as the visible reach ``n_read``: with ``T_d <= rho_lo^-d``
    the coefficients past degrees ``2N`` and ``4N`` move no sweep by a
    quarter unit (:func:`tail_bound`), and each exponent is a prefix of the
    one of any larger reach.
    """
    w = hp.fixed_bits(ctx)
    half = spec.shift_sign << (w - 1)
    out = []
    for S in _divisor_sums(spec, counts, N):
        g = [half] + [(S[m] << w) // m for m in range(1, len(S))]
        if N >= 1:
            g[1] -= half
        out.append(tuple(g))
    return tuple(out)


def float_exponent(spec: VarietySpec, counts: CountSequence, n: int) -> list:
    """Floats of the coefficients ``g_0 .. g_(2n)`` of :func:`zeta_exponent`.

    Each ``g_m`` is ``S_m / m`` of :func:`_divisor_sums`, correctly rounded:
    for a bisection, without the fixed-point exponent.
    """
    S = _divisor_sums(spec, counts, n)[0]
    half = spec.shift_sign / 2
    g = [half] + [S[m] / m for m in range(1, 2 * n + 1)]
    g[1] -= half
    return g


def zeta_series(spec: VarietySpec, counts: CountSequence, N: int, ctx) -> PowerSeries:
    """Numeric series of ``zeta`` to order ``N`` at the context's precision.

    The exponential of the first ``N+1`` exponent coefficients, converted to
    ``ctx`` only at that step, times ``c * z^a``.  Its value at ``rho`` is
    accurate to about ``rho^(N/2)``; the pipeline uses the Taylor models of
    :func:`log_zeta_taylor` instead.
    """
    g = zeta_exponent(spec, counts, N)
    expo = series_exp(PowerSeries(g.coeffs[: N + 1]), ctx)
    shifted = (0,) * spec.z_exponent + expo.coeffs  # times z^a, truncated below
    c = hp.convert(spec.prefactor, ctx)
    return PowerSeries(tuple(c * v for v in shifted[: N + 1]))


def log_zeta_taylor(spec: VarietySpec, taylor: Sequence[int], x: int, w: int,
                    log=None) -> list:
    """Fixed-point scaled Taylor coefficients of ``g + a log z + log c`` at ``x``.

    ``taylor`` holds those of an exponent ``g`` in ``u = d/x``
    (:func:`treeasym.series.series_taylor`), and so does the result: for
    ``g = h`` the sum is ``log zeta``, for ``g = H4`` the first part of the
    solver's split model.  ``a log(x (1 + u)) = a (log x + log1p(u))`` adds
    ``a log x`` and ``a (-1)^(k+1) / k`` at order ``k``.  The logarithms of
    ``c`` and ``x`` come from ``log(v, w)``, :func:`treeasym.hp.fixed_log` by
    default or the solver's memo of it; ``log 1 = 0`` is not taken.
    """
    log = log or hp.fixed_log
    c = spec.prefactor
    out = list(taylor)
    if c != 1:
        out[0] += log((c.numerator << w) // c.denominator, w)
    a = spec.z_exponent
    if a:
        out[0] += a * log(x, w)
        for k in range(1, len(out)):
            out[k] += (a << w) // k if k % 2 else -((a << w) // k)
    return out


def exponent_tail(h: tuple, x: int, r: int, w: int) -> int:
    """Tail indicator of ``x^r h^(r)(x) / r!``: the summed size of its last five retained terms.

    The terms are ``binom(m, r) |g_m| x^m`` for the top five degrees ``m``
    of the numeric exponent ``h``, a stand-in for the first omitted ones.
    ``h``, ``0 < x < 1`` and the result are fixed-point at ``w``.  The sum
    runs by Horner's rule from the top degree, then takes the factor
    ``x^m`` of the lowest ``m``.  That power can lie far below ``2^-w``
    while the sum is large, so it is held with ``wide - w`` extra bits,
    enough that it keeps ``w`` significant bits.
    """
    top = len(h) - 1
    low = max(r, top - 4)
    acc = 0
    for m in range(top, low - 1, -1):
        acc = abs(h[m]) * math.comb(m, r) + (acc * x >> w)
    wide = w + low * (w + 1 - x.bit_length())  # x^low >= 2^(w - wide)
    return acc * _fixed_power(x << (wide - w), low, wide) >> wide


def model_tail(exponents: tuple, x: int, r: int, w: int) -> int:
    """Tail indicator of the order-``r`` scaled Taylor coefficient of the split model at ``x``.

    ``exponents`` is ``(h, H4)`` (:func:`numeric_exponent`).  The sum of
    :func:`exponent_tail` of ``H4`` at ``x`` and of ``h`` at ``x^2`` and
    ``x^3``, the last two times ``i^r``: order ``r`` in ``s = y/x^i - 1``
    reaches order ``r`` in ``u = d/x`` through ``(1 + u)^i - 1 = i u + ...``;
    the factors ``1/i`` and ``dT~/d log zeta = T~/(1 - T~) < 1`` are left
    out.  All fixed-point at ``w``; the tail is ``x^r`` times that of the
    unscaled coefficient.  It reads the retained terms, so it moves with the
    count reach.  Cut at the visible reach, the omitted tail is below
    ``2^-(w+2)`` in ``H4`` and ``2^-(w+G+2)`` in ``h`` by :func:`tail_bound`
    on ``T_d <= rho_lo^-d``, and the last retained terms, a few counts
    before it, lie far below the warning's relative ``10^-(D-10)``.
    """
    h, H4 = exponents
    tail = exponent_tail(H4, x, r, w)
    for i in (2, 3):
        tail += exponent_tail(h, x**i >> (i - 1) * w, r, w) * i**r
    return tail


def tail_bound(y: float, rho_lo: float, first: int, n: int, j: int) -> float:
    """``log2`` of a bound on coefficient ``j`` of an exponent's tail swept at ``y``.

    The exponent is ``sum_{i >= first} eps_i T(z^i)/i``, cut at degree
    ``first n``, where counts to ``n`` give it exactly; its tail, the
    coefficients ``c_m`` with ``m > first n``, contributes
    ``sum_m C(m, j) c_m y^m`` to coefficient ``j`` of the scaled sweep at
    ``y`` (:func:`treeasym.series.series_taylor`).  The counts satisfy
    ``T_d <= rho_lo^-d`` for ``rho_lo <= rho``: their series has
    non-negative coefficients and ``T(rho) <= 1``.  Since
    ``sum_{i | m} 1/i <= 1 + ln m``,

        |c_m| <= [first | m] rho_lo^(-m/first) / first + (1 + ln m) rho_lo^(-m/(first+1)),

    and each of the two sums is at most its first term over ``1 - q``, with
    ``q`` the largest ratio of consecutive terms.  ``inf`` when a ``q``
    reaches 1 or ``first n + 1 <= j``.
    """
    a = y**first / rho_lo  # ratio of the terms d and d + 1 of the part i = first
    gamma = y * rho_lo ** (-1 / (first + 1))
    top, m = first * (n + 1), first * n + 1  # first terms of the two sums
    if m <= j:
        return math.inf
    q_top = a * ((top + 1) / (top + 1 - j)) ** first
    q_m = gamma * (m + 1) / (m + 1 - j) * (1 + 1 / m)
    if max(q_top, q_m) >= 1:
        return math.inf
    part = _log2_comb(top, j) + (n + 1) * math.log2(a) - math.log2(first * (1 - q_top))
    rest = _log2_comb(m, j) + m * math.log2(gamma) + math.log2((1 + math.log(m)) / (1 - q_m))
    return max(part, rest) + math.log2(1 + 2 ** -abs(part - rest))


def tail_reach(y: float, rho_lo: float, first: int, j: int, bits: int, n_min: int,
               N: int) -> int:
    """The least ``n`` in ``n_min .. N`` with ``tail_bound(..., n, j) <= -bits``, or ``N``.

    ``first n_min >= j``.  The bound exceeds its first term,
    ``C(first (n+1), j) a^(n+1) / first`` for ``a = y^first / rho_lo``; the
    largest ``n`` at which that term alone is above ``2^-bits``, reached
    from below by re-evaluating the binomial, fails, and the count steps up
    from there, one bound at a time.
    """
    per_count = -math.log2(y**first / rho_lo)
    n = n_min - 1
    while (fails := math.ceil((bits - math.log2(first) + _log2_comb(first * (n + 1), j))
                              / per_count) - 2) > n:
        n = fails
    n += 1
    while n < N and tail_bound(y, rho_lo, first, n, j) > -bits:
        n += 1
    return min(n, N)


def _log2_comb(m: int, j: int) -> float:
    return (math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)) / math.log(2)


def zeta_derivatives(
    spec: VarietySpec, counts: CountSequence, x, r_max: int, N: int, ctx
) -> tuple:
    """``zeta^(0)(x) .. zeta^(r_max)(x)`` from the exponent of degree ``2N``."""
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    w = hp.fixed_bits(ctx)
    X = hp.to_fixed(x, w, ctx)
    h = numeric_exponent(spec, counts, N, ctx)[0]
    log_taylor = log_zeta_taylor(spec, series_taylor(h, X, r_max, w), X, w)
    value = ctx.exp(hp.from_fixed(log_taylor[0], w, ctx))  # zeta(x)
    # zeta(x (1 + u)) = zeta(x) exp(sum_{j>=1} L_j u^j), and u = y/x
    x = hp.from_fixed(X, w, ctx)
    return tuple(
        math.factorial(j) * value * hp.from_fixed(v, w, ctx) / x**j
        for j, v in enumerate(series_exp_fixed(log_taylor, w))
    )


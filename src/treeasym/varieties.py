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
``T(z^3)`` by the functional equation.  The pipeline holds both exponents
as fixed-point integers ``floor(g_m 2^w)``, ``w`` the working precision
plus :data:`treeasym.hp.FIXED_GUARD_BITS` bits (:func:`numeric_exponent`),
computed straight from the integer divisor sums of one pass.  The scaled
Taylor shift over them gives their Taylor coefficients at a point (one
split sweep serves an exponent and its ``N//2`` prefix) in ``O(N)``
integer products and ``O(rN)`` integer additions; adding
``a log z + log c`` gives the Taylor coefficients of ``log zeta``
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
    the root and the Taylor models of both truncation orders.
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


def log_zeta_taylor(spec: VarietySpec, taylor: Sequence[int], x: int, w: int) -> list:
    """Fixed-point Taylor coefficients of ``g + a log z + log c`` at ``x``.

    ``taylor`` holds those of an exponent ``g``: for ``g = h`` the sum is
    ``log zeta``, for ``g = H4`` the first part of the solver's split model.
    ``a log(x + y) = a (log x + log1p(y/x))`` adds ``a log x`` (one
    logarithm, :func:`treeasym.hp.fixed_log`) and ``a (-1)^(k+1) / (k x^k)``
    at order ``k``.
    """
    c = spec.prefactor
    out = list(taylor)
    out[0] += hp.fixed_log((c.numerator << w) // c.denominator, w)
    a = spec.z_exponent
    if a:
        out[0] += a * hp.fixed_log(x, w)
        inverse, power = (1 << 2 * w) // x, 1 << w
        for k in range(1, len(out)):
            power = power * inverse >> w  # x^-k
            out[k] += a * power // k if k % 2 else -(a * power // k)
    return out


def exponent_tail(h: tuple, x: int, r: int, w: int) -> int:
    """Tail indicator of ``h^(r)(x) / r!``: the summed size of its last five retained terms.

    The terms are ``binom(m, r) |g_m| x^(m-r)`` for the top five degrees ``m``
    of the numeric exponent ``h``, a stand-in for the first omitted ones.
    ``h``, ``0 < x < 1`` and the result are fixed-point at ``w``.  The sum
    runs by Horner's rule from the top degree, then takes the factor
    ``x^(m-r)`` of the lowest ``m``.  That power can lie far below ``2^-w``
    while the sum is large, so it is held with ``wide - w`` extra bits,
    enough that it keeps ``w`` significant bits.
    """
    top = len(h) - 1
    low = max(r, top - 4)
    acc = 0
    for m in range(top, low - 1, -1):
        acc = abs(h[m]) * math.comb(m, r) + (acc * x >> w)
    k = low - r
    wide = w + k * (w + 1 - x.bit_length())  # x^k >= 2^(w - wide)
    return acc * _fixed_power(x << (wide - w), k, wide) >> wide


def model_tail(exponents: tuple, x: int, r: int, w: int) -> int:
    """Tail indicator of the order-``r`` Taylor coefficient of the split model at ``x``.

    ``exponents`` is ``(h, H4)`` (:func:`numeric_exponent`).  The sum of
    :func:`exponent_tail` of ``H4`` at ``x`` and of ``h`` at ``x^2`` and
    ``x^3``, the last two times ``(i x^(i-1))^r``, the leading factor by
    which order ``r`` in ``y = x^i`` reaches order ``r`` in ``x``; the
    factors ``1/i`` and ``dT~/d log zeta = T~/(1 - T~) < 1`` are left out.
    All fixed-point at ``w``.
    """
    h, H4 = exponents
    tail = exponent_tail(H4, x, r, w)
    for i in (2, 3):
        slope = i * x ** (i - 1) >> (i - 2) * w
        tail += exponent_tail(h, x**i >> (i - 1) * w, r, w) * _fixed_power(slope, r, w) >> w
    return tail


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
    # zeta(x + y) = zeta(x) exp(sum_{j>=1} L_j y^j)
    return tuple(
        math.factorial(j) * value * hp.from_fixed(v, w, ctx)
        for j, v in enumerate(series_exp_fixed(log_taylor, w))
    )


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
``|z| < sqrt(rho)``.  The pipeline holds the ``2N+1`` coefficients as
fixed-point integers ``floor(g_m 2^w)``, ``w`` the working precision plus
:data:`treeasym.hp.FIXED_GUARD_BITS` bits (:func:`numeric_exponent`),
computed straight from the integer divisor sums.  The scaled Taylor shift
over them gives ``h^(j)(x)/j!`` (one split sweep serves the exponent and its
``N//2`` prefix, see :mod:`treeasym.solver`) in ``O(N)`` integer products
and ``O(rN)`` integer additions; adding ``a log z + log c`` gives the
Taylor coefficients of ``log zeta`` (:func:`log_zeta_taylor`).  Their
short exponential on integers (:func:`treeasym.series.series_exp_fixed`)
gives those of ``zeta`` up to the factor ``zeta(x)``, which at the root is
``1/e``, so the pipeline never forms it (:mod:`treeasym.expansions`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import hp
from .counts import CountSequence, VarietySpec, add_to_multiples

# Re-exported: the spec table lives in counts, and callers read it here too.
from .counts import HIERARCHY, IDENTITY, POLYA, VARIETIES, get_variety  # noqa: F401
from .series import (
    PowerSeries,
    _fixed_power,
    series_exp,
    series_exp_fixed,
    series_scale,
    series_shift,
    series_taylor,
)

# Not called here; the benchmark traces this name in this module (perfbench/layers.py).
from .series import series_eval_deriv_tail  # noqa: F401


def _divisor_sums(spec: VarietySpec, counts: CountSequence, N: int) -> list:
    """``S_m = sum_{d | m, d < m} eps_(m/d) d T_d`` for ``m = 0 .. 2N``, reading counts to ``N``."""
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")
    S = [0] * (2 * N + 1)
    eps = [spec.eps(i) for i in range(2 * N + 1)]
    for d in range(1, N + 1):
        add_to_multiples(S, eps, d, d * counts[d], first=2)
    return S


def zeta_exponent(spec: VarietySpec, counts: CountSequence, N: int) -> PowerSeries:
    """Exact coefficients ``g_0 .. g_(2N)`` of ``h = sigma*(1-z)/2 + sum_{i>=2} eps_i T(z^i)/i``.

    ``g_m = S_m / m`` for ``m >= 2``, with the integer divisor sum
    ``S_m = sum_{d | m, d < m} eps_(m/d) d T_d``; ``sigma`` adds ``sigma/2``
    to ``g_0`` and ``-sigma/2`` to ``g_1``.  For ``m <= 2N`` every proper
    divisor ``d`` is at most ``N``, so the counts are read only up to ``N``
    and the first ``2n+1`` coefficients are the exponent of degree ``2n`` for
    every ``n <= N``.
    """
    S = _divisor_sums(spec, counts, N)
    half = Fraction(spec.shift_sign, 2)
    g = [half] + [Fraction(S[m], m) for m in range(1, 2 * N + 1)]
    if N >= 1:
        g[1] -= half
    return PowerSeries(tuple(g))


def numeric_exponent(spec: VarietySpec, counts: CountSequence, N: int, ctx) -> tuple:
    """:func:`zeta_exponent` in fixed point: ``floor(g_m 2^w)`` with ``w = hp.fixed_bits(ctx)``.

    Computed as ``floor(S_m 2^w / m)`` straight from the integer divisor
    sums; ``sigma/2`` is ``sigma 2^(w-1)`` exactly.  Built once, for the root
    and the Taylor models of both truncation orders.
    """
    w = hp.fixed_bits(ctx)
    S = _divisor_sums(spec, counts, N)
    half = spec.shift_sign << (w - 1)
    h = [half] + [(S[m] << w) // m for m in range(1, 2 * N + 1)]
    if N >= 1:
        h[1] -= half
    return tuple(h)


def zeta_series(spec: VarietySpec, counts: CountSequence, N: int, ctx) -> PowerSeries:
    """Numeric series of ``zeta`` to order ``N`` at the context's precision.

    The exponential of the first ``N+1`` exponent coefficients, converted to
    ``ctx`` only at that step, times ``c * z^a``.  Its value at ``rho`` is
    accurate to about ``rho^(N/2)``; the pipeline uses the Taylor models of
    :func:`log_zeta_taylor` instead.
    """
    g = zeta_exponent(spec, counts, N)
    expo = series_exp(PowerSeries(g.coeffs[: N + 1]), ctx)
    out = series_scale(expo, hp.convert(spec.prefactor, ctx))
    return series_shift(out, spec.z_exponent)


def log_zeta_taylor(spec: VarietySpec, taylor: Sequence[int], x: int, w: int) -> list:
    """Fixed-point Taylor coefficients of ``log zeta = h + a log z + log c`` at ``x``.

    ``taylor`` holds those of ``h``.  ``a log(x + y) = a (log x +
    log1p(y/x))`` adds ``a log x`` (one logarithm, :func:`treeasym.hp.fixed_log`)
    and ``a (-1)^(k+1) / (k x^k)`` at order ``k``.
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


def zeta_derivatives(
    spec: VarietySpec, counts: CountSequence, x, r_max: int, N: int, ctx
) -> tuple:
    """``zeta^(0)(x) .. zeta^(r_max)(x)`` from the exponent of degree ``2N``."""
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    w = hp.fixed_bits(ctx)
    X = hp.to_fixed(x, w, ctx)
    h = numeric_exponent(spec, counts, N, ctx)
    log_taylor = log_zeta_taylor(spec, series_taylor(h, X, r_max, w), X, w)
    value = ctx.exp(hp.from_fixed(log_taylor[0], w, ctx))  # zeta(x)
    # zeta(x + y) = zeta(x) exp(sum_{j>=1} L_j y^j)
    return tuple(
        math.factorial(j) * value * hp.from_fixed(v, w, ctx)
        for j, v in enumerate(series_exp_fixed(log_taylor, w))
    )


def functional_residual_exact(spec: VarietySpec, counts: CountSequence, N: int) -> PowerSeries:
    """Exact residual ``zeta * exp(T~) - T~`` as a rational series.

    ``T~`` is the shifted series ``T - sigma*(1-z)/2`` (equal to ``T`` when
    ``sigma = 0``).  The exponentials are combined before expanding, which
    keeps every coefficient rational; by construction the constant term of
    the combined exponent vanishes.  The residual must be zero through order
    ``N - 2`` when the counts satisfy the variety's functional equation.
    """
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")
    t_shift = [Fraction(counts[n]) for n in range(N + 1)]
    if spec.shift_sign:
        t_shift[0] -= Fraction(spec.shift_sign, 2)
        if N >= 1:
            t_shift[1] += Fraction(spec.shift_sign, 2)
    t_tilde = PowerSeries(tuple(t_shift))
    g = zeta_exponent(spec, counts, N)
    combined = PowerSeries(tuple(a + b for a, b in zip(g.coeffs, t_tilde.coeffs)))
    expo = series_exp(combined)  # exact: the constant terms cancel
    prod = series_shift(series_scale(expo, spec.prefactor), spec.z_exponent)
    return PowerSeries(tuple(p - t for p, t in zip(prod.coeffs, t_tilde.coeffs)))

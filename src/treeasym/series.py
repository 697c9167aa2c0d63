"""Truncated power series over exact rationals or high-precision reals.

A :class:`PowerSeries` is an immutable coefficient vector ``c_0 .. c_N``
with truncation order ``N``.  Coefficients are either ``fractions.Fraction``
(exact mode) or mpf values from an explicit mpmath context (numeric mode);
the operations below work uniformly on both.  Arithmetic never reads beyond
the truncation order, and binary operations truncate to the shorter operand.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import hp


class TruncationWarning(UserWarning):
    """Series truncation order is too small for the requested precision."""


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients ``c_0 .. c_N`` of a series truncated at order ``N``."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a power series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def series_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at ``min(f.order, g.order)``."""
    order = min(f.order, g.order)
    out = []
    for n in range(order + 1):
        acc = f.coeffs[0] * g.coeffs[n]
        for k in range(1, n + 1):
            acc += f.coeffs[k] * g.coeffs[n - k]
        out.append(acc)
    return PowerSeries(tuple(out))


def series_exp(g: PowerSeries, ctx=None) -> PowerSeries:
    """Formal exponential ``E = exp(g)``.

    Uses ``E_0 = exp(g_0)`` and ``E_n = (1/n) sum_{k=1..n} k g_k E_{n-k}``.
    In exact mode (``ctx is None``) the constant term of ``g`` must vanish,
    otherwise ``exp(g_0)`` is irrational; pass a context to allow it.
    """
    if ctx is None:
        if g.coeffs[0] != 0:
            raise ValueError("exact series_exp requires a zero constant term")
        coeffs = g.coeffs
        e0 = Fraction(1)
    else:
        coeffs = tuple(hp.convert(c, ctx) for c in g.coeffs)
        e0 = ctx.exp(coeffs[0])
    N = g.order
    out = [e0] + [None] * N
    for n in range(1, N + 1):
        acc = coeffs[1] * out[n - 1]  # k = 1 term; also fixes the result type
        for k in range(2, n + 1):
            acc += k * coeffs[k] * out[n - k]
        out[n] = acc / n
    return PowerSeries(tuple(out))


def series_substitute_power(f: PowerSeries, i: int) -> PowerSeries:
    """Substitute ``z -> z**i``: the result has ``f_n`` at degree ``i*n``."""
    if i < 1:
        raise ValueError(f"substitution power must be >= 1, got {i}")
    N = f.order
    zero = 0 * f.coeffs[0]
    out = [zero] * (N + 1)
    for n in range(0, N // i + 1):
        out[i * n] = f.coeffs[n]
    return PowerSeries(tuple(out))


def series_eval_deriv(
    f: PowerSeries,
    x,
    r: int,
    ctx,
    *,
    radius_bound=None,
    warn_digits: int | None = None,
):
    """Evaluate the ``r``-th term-wise derivative of ``f`` at ``x``.

    Returns ``sum_{n=r..N} c_n * n!/(n-r)! * x^(n-r)`` accumulated in ``ctx``.
    When ``warn_digits`` is given, a :class:`TruncationWarning` is emitted if
    the crude tail indicator (magnitude of the last five accumulated terms)
    exceeds ``10**-(warn_digits - 10)``.
    """
    value, tail = series_eval_deriv_tail(f, x, r, ctx, radius_bound=radius_bound)
    if warn_digits is not None and tail > ctx.mpf(10) ** (-(warn_digits - 10)):
        warnings.warn(
            f"series tail indicator {ctx.nstr(tail, 3)} too large for "
            f"{warn_digits} requested digits (order {f.order} insufficient)",
            TruncationWarning,
            stacklevel=2,
        )
    return value


def series_eval_deriv_tail(f: PowerSeries, x, r: int, ctx, *, radius_bound=None):
    """Like :func:`series_eval_deriv` but returns ``(value, tail_indicator)``."""
    if r < 0:
        raise ValueError("derivative order must be non-negative")
    if r > f.order:
        raise ValueError(f"derivative order {r} exceeds truncation order {f.order}")
    x = hp.convert(x, ctx)
    if radius_bound is not None and not abs(x) < hp.convert(radius_bound, ctx):
        raise ValueError("evaluation point outside the supplied radius bound")
    acc = ctx.mpf(0)
    xpow = ctx.mpf(1)
    # falling factorial n!/(n-r)!, updated multiplicatively along the loop
    ff = 1
    for j in range(r):
        ff *= (r - j)
    last_terms = []
    for n in range(r, f.order + 1):
        term = hp.convert(f.coeffs[n], ctx) * ff * xpow
        acc += term
        last_terms.append(abs(term))
        if len(last_terms) > 5:
            last_terms.pop(0)
        xpow *= x
        ff = ff * (n + 1) // (n + 1 - r)
    tail = ctx.fsum(last_terms) if last_terms else ctx.mpf(0)
    return acc, tail


def series_taylor(coeffs: Sequence[int], x: int, r: int, w: int) -> tuple:
    """Fixed-point Taylor coefficients ``f^(j)(x) / j!`` for ``j = 0 .. r``.

    The coefficients ``c_0 .. c_N`` of ``f``, the point ``x`` and the result
    are integers scaled by ``2^w`` (:func:`treeasym.hp.to_fixed`).  ``r + 1``
    synthetic divisions of ``f`` by ``z - x`` (Horner's rule, run as the
    first ``r + 1`` steps of the Taylor shift ``f(x + y)``) take about
    ``(r + 1) N`` steps ``acc = c_k + (x acc >> w)``; the flooring error is
    bounded at :data:`treeasym.hp.FIXED_GUARD_BITS`.
    """
    top = len(coeffs) - 1
    if not 0 <= r <= top:
        raise ValueError(f"derivative order {r} outside 0..{top}")
    a = list(coeffs)
    for j in range(r + 1):
        acc = a[top]
        for k in range(top - 1, j - 1, -1):
            acc = a[k] + (x * acc >> w)
            a[k] = acc
    return tuple(a[: r + 1])


def series_scale(f: PowerSeries, c) -> PowerSeries:
    return PowerSeries(tuple(c * x for x in f.coeffs))


def series_shift(f: PowerSeries, a: int) -> PowerSeries:
    """Multiply by ``z**a`` keeping the truncation order."""
    if a < 0:
        raise ValueError("shift must be non-negative")
    if a == 0:
        return f
    zero = 0 * f.coeffs[0]
    out = [zero] * (f.order + 1)
    for n in range(0, f.order + 1 - a):
        out[n + a] = f.coeffs[n]
    return PowerSeries(tuple(out))

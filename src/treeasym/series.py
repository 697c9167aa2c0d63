"""Truncated power series over exact rationals or high-precision reals.

A :class:`PowerSeries` is an immutable coefficient vector ``c_0 .. c_N``
with truncation order ``N``.  Coefficients are either ``fractions.Fraction``
(exact mode) or mpf values from an explicit mpmath context (numeric mode);
the operations below work uniformly on both.  Arithmetic never reads beyond
the truncation order, and binary operations truncate to the shorter operand.

The numeric pipeline uses the fixed-point kernels at the end instead:
Taylor shifts (:func:`series_taylor`, :func:`series_taylor_split`) and the
short exponential (:func:`series_exp_fixed`) on integers scaled by ``2^w``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from . import hp
from .records import Record

# Not raised here; re-exported because pyproject's warning filter, perfbench/run.py
# and the tests name it as series.TruncationWarning.
from .errors import TruncationWarning  # noqa: F401


class PowerSeries(Record):
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


def series_eval_deriv_tail(f: PowerSeries, x, r: int, ctx):
    """The ``r``-th term-wise derivative of ``f`` at ``x`` and a tail indicator.

    Returns ``(value, tail)``: ``value = sum_{n=r..N} c_n * n!/(n-r)! * x^(n-r)``
    accumulated in ``ctx``, and ``tail`` the summed magnitude of its last
    five terms.
    """
    if r < 0:
        raise ValueError("derivative order must be non-negative")
    if r > f.order:
        raise ValueError(f"derivative order {r} exceeds truncation order {f.order}")
    x = hp.convert(x, ctx)
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


def series_taylor(coeffs: Sequence[int], x: int, r: int, w: int, g: int = 0) -> tuple:
    """Fixed-point scaled Taylor coefficients ``x^j f^(j)(x) / j!`` for ``j = 0 .. r``.

    These are the coefficients of ``f(x (1 + u))`` in ``u = d/x``.  The
    coefficients ``c_0 .. c_N`` of ``f`` are integers scaled by ``2^w``
    (:func:`treeasym.hp.to_fixed`), the point ``x`` and the result by
    ``2^(w+g)``; for ``|x| < 1`` each result is within 2 units of
    ``2^-(w+g)`` of the exact ``sum_m C(m, j) c_m x^m`` of the given
    integers (:func:`series_taylor_split`).
    """
    if not 0 <= r < len(coeffs):
        raise ValueError(f"derivative order {r} outside 0..{len(coeffs) - 1}")
    return series_taylor_split(coeffs, len(coeffs), x, r, w, g)[1]


def series_taylor_split(coeffs: Sequence[int], cut: int, x: int, r: int, w: int,
                        g: int = 0) -> tuple:
    """:func:`series_taylor` to order ``r`` of ``f = coeffs`` and of its prefix ``coeffs[:cut]``.

    Shaw and Traub's scaled Taylor shift (JACM 21, 1974): the terms
    ``c_m x^m`` are formed once, and their shift by 1, which takes only
    additions, is the result, ``x^j f^(j)(x) / j! = sum_m C(m, j) c_m x^m``.
    With ``f = f_low + z^cut f_high``, ``x^cut`` sits in the terms of
    ``f_high``, so the two blocks' shifts join exactly through the binomials
    ``C(cut, k)`` (Vandermonde's identity).  The prefix is scaled by itself
    alone, so its result is ``series_taylor``'s; with no block above the cut,
    or one whose terms all floor to zero, the whole equals it.  Both are
    within 2 units of ``2^-(w+g)`` for ``|x| < 1``; ``x = 0`` gives ``c_0``
    and zeros, and orders beyond a block's degree are zero.
    """
    if not 0 < cut:
        raise ValueError(f"cut {cut} must be positive")
    low, W = _scaled_shift(coeffs[:cut], x, r, w, g)
    high, V = _scaled_shift(coeffs[cut:], x, r, w, g, cut) if cut < len(coeffs) else ([0], W)
    w += g  # the scale of x and of the result
    prefix = tuple(v >> W - w for v in low)
    # V >= W: the guard grows with the degree
    binomials = [math.comb(cut, k) for k in range(r + 1)]
    return tuple((low[j] << V - W) + sum(map(operator.mul, binomials[j::-1], high)) >> V - w
                 for j in range(r + 1)), prefix


def _scaled_shift(coeffs: Sequence[int], x: int, r: int, w: int, g: int,
                  start: int = 0) -> tuple:
    """``(q, W)``: the shift by 1, to order ``r``, of the terms ``c_m x^(start+m)`` scaled by ``2^W``.

    ``c_m`` is scaled by ``2^w`` and ``x`` by ``2^v``, ``v = w + g``.  Each
    term is floored within 2 units of ``2^-W`` (the powers carry the
    coefficients' bits above ``2^w`` as extra bits), and coefficient ``j``
    sums ``C(m, j)`` times term ``m``: within ``2 C(size, j + 1)`` units,
    which the guard ``W - v`` keeps below half a unit of ``2^-v`` for
    ``j <= r``.  Each synthetic division by ``z - 1`` is one running sum
    from the top degree, run in C, over the terms up to the last nonzero
    one.
    """
    size, v = start + len(coeffs), w + g
    W = v + math.comb(size, min(r + 1, size // 2)).bit_length() + 2
    wide = W + max(0, max(map(abs, coeffs)).bit_length() - w) + (2 * size).bit_length()
    power, terms = _fixed_power(x << wide - v, start, wide), []
    shift, append = wide - W + w, terms.append
    for c in coeffs:
        if not power:
            break  # x^m is below 2^-wide: this term and all later ones are zero
        append(c * power >> shift)
        power = power * x >> v
    while terms and not terms[-1]:
        terms.pop()  # zero terms at the top add nothing to any running sum
    q, terms = [], terms[::-1]
    for _ in range(min(r + 1, len(terms))):
        terms = list(accumulate(terms))
        q.append(terms.pop())
    return q + [0] * (r + 1 - len(q)), W


def _fixed_power(x: int, n: int, w: int) -> int:
    """``x^n`` for a fixed-point ``|x| < 2^w`` by squaring; within ``2n`` units of ``2^-w``."""
    out = 1 << w
    while n:
        if n & 1:
            out = out * x >> w
        n >>= 1
        if n:
            x = x * x >> w
    return out


def series_exp_fixed(g: Sequence[int], w: int) -> tuple:
    """Fixed-point ``exp(g(y) - g_0)`` to the order of ``g``, on integers scaled by ``2^w``.

    ``E_0 = 2^w`` and ``E_n = (1/n) sum_{k=1..n} k g_k E_(n-k)``, each
    ``E_n`` floored once, so it is within ``e_n`` units of ``2^-w`` of the
    exact exponential of the fixed-point ``g``, where ``e_0 = 0`` and
    ``e_n = 1 + sum_{k=1..n} (k/n) |g_k 2^-w| e_(n-k)``.
    """
    out = [1 << w]
    for n in range(1, len(g)):
        out.append(sum(k * g[k] * out[n - k] for k in range(1, n + 1)) // (n << w))
    return tuple(out)


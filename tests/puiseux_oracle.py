"""Test oracles of the singular coefficients ``t``.

The library computes ``t`` from the functional equation by a first-order
recurrence on ``g = T~ - 1`` in ``s = sqrt(u)``
(:func:`treeasym.expansions.puiseux_coeffs`).  Kept here:

* the paper's explicit form (:func:`t_values`), the Faa di Bruno expansion
  of ``T = C(zeta)``: partial Bell polynomials give the weights ``B(l)``,
  generalized binomials ``binom(l/2, r)`` and a composition-power table
  give the inner sums;
* the composition ``T = C(zeta)`` by J.C.P. Miller's power recurrence, on
  mpf values (:func:`miller_t_values`) and on fixed-point integers with
  ``2K`` guard bits (:func:`miller_t_fixed`), the library's route before
  the recurrence;
* the recurrence in exact rationals (:func:`exact_recurrence`) and its
  stated flooring bound (:func:`recurrence_error_bound`).

With ``zeta' = zeta'(rho)`` and ``t_1 = -sqrt(2 e rho zeta')``, for ``n > 1``::

    t_n = -B(n)/n! (2 e rho zeta')^(n/2)
          - sum_{1 <= l <= n-1, l == n (mod 2)} (-1)^((n-l)/2) rho^(n/2) B(l)/l!
            (2 e zeta')^(l/2)
            sum_{r=1}^{(n-l)/2} binom(l/2, r) zeta'^(-r)
            sum over i_1..i_r >= 1 with i_1 + ... + i_r = (n-l)/2 of
                prod_j zeta^(i_j+1)(rho) / (i_j+1)!
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from treeasym import hp
from treeasym.kernels import b_seq


def bell_partial(n: int, k: int, xs: Sequence[Fraction]) -> Fraction:
    """Partial exponential Bell polynomial ``B_{n,k}(x_1..x_{n-k+1})``.

    Computed through the recurrence
    ``B_{n,k} = sum_i binom(n-1, i-1) x_i B_{n-i,k-1}``
    rather than by enumerating set partitions.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if len(xs) < n - k + 1:
        raise ValueError(f"need {n - k + 1} arguments, got {len(xs)}")
    xs = tuple(Fraction(x) for x in xs)
    # table[m][j] = B_{m,j}; only entries with m - j <= n - k are reachable
    # from B_{n,k} through the recurrence, and only those index into xs
    table = [[Fraction(0)] * (k + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for m in range(1, n + 1):
        for j in range(1, min(m, k) + 1):
            if m - j > n - k:
                continue
            acc = Fraction(0)
            for i in range(1, m - j + 2):
                acc += math.comb(m - 1, i - 1) * xs[i - 1] * table[m - i][j - 1]
            table[m][j] = acc
    return table[n][k]


@lru_cache(maxsize=None)
def _bell_unit(n: int, k: int) -> Fraction:
    """``B_{n,k}`` at the fixed argument sequence ``x_i = 1/(i+2)``."""
    if n == 0 and k == 0:
        return Fraction(1)
    if n == 0 or k == 0:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(1, n - k + 2):
        acc += math.comb(n - 1, i - 1) * Fraction(1, i + 2) * _bell_unit(n - i, k - 1)
    return acc


def b_seq_direct(ell: int) -> Fraction:
    """``B(l) = sum_{k=1}^{l-1} (-1)^k B_{l-1,k}(1/3,...,1/(l-k+2)) prod_{i<k} (l + 2i)``, ``B(1) = 1``."""
    if ell < 1:
        raise ValueError(f"index must be positive, got {ell}")
    if ell == 1:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(1, ell):
        prod = Fraction(1)
        for i in range(k):
            prod *= ell + 2 * i
        acc += (-1) ** k * _bell_unit(ell - 1, k) * prod
    return acc


def gen_binom(a, r: int) -> Fraction:
    """Generalized binomial ``binom(a, r) = prod_{j<r} (a - j) / r!``."""
    if r < 0:
        raise ValueError(f"lower index must be non-negative, got {r}")
    a = Fraction(a)
    prod = Fraction(1)
    for j in range(r):
        prod *= a - j
    return prod / math.factorial(r)


def composition_power_table(values: Sequence, m_max: int, ctx) -> list[list]:
    """Table ``W[r][M] = sum over i_1..i_r >= 1 summing to M of prod_j values[i_j]``.

    ``values[i]`` must be defined for ``1 <= i <= m_max``.  Computed by the
    convolution recurrence ``W[r][M] = sum_i values[i] W[r-1][M-i]``.
    """
    W = [[ctx.mpf(0)] * (m_max + 1) for _ in range(m_max + 1)]
    W[0][0] = ctx.mpf(1)
    for r in range(1, m_max + 1):
        for M in range(r, m_max + 1):
            acc = ctx.mpf(0)
            for i in range(1, M - r + 2):
                acc += values[i] * W[r - 1][M - i]
            W[r][M] = acc
    return W


def t_values(rho, deriv_values: Sequence, K: int, ctx) -> list:
    """``t_0 .. t_K`` before any post-transform, from ``deriv_values[r] = zeta^(r)(rho)``."""
    zeta_prime = deriv_values[1]
    e = ctx.e
    sqrt_big = ctx.sqrt(2 * e * rho * zeta_prime)   # (2 e rho zeta')^(1/2)
    sqrt_small = ctx.sqrt(2 * e * zeta_prime)       # (2 e zeta')^(1/2)
    sqrt_rho = ctx.sqrt(rho)
    m_max = (K - 1) // 2
    weights = [None] + [
        deriv_values[i + 1] / math.factorial(i + 1) for i in range(1, m_max + 1)
    ]
    table = composition_power_table(weights, m_max, ctx)
    t = [ctx.mpf(1)]
    for n in range(1, K + 1):
        total = -hp.convert(b_seq_direct(n), ctx) / math.factorial(n) * sqrt_big**n
        for l in range(2 - n % 2, n - 1, 2):
            M = (n - l) // 2
            sign = -1 if M % 2 == 1 else 1
            outer = (
                -sign
                * sqrt_rho**n
                * hp.convert(b_seq_direct(l), ctx)
                / math.factorial(l)
                * sqrt_small**l
            )
            inner = ctx.mpf(0)
            for r in range(1, M + 1):
                binom = hp.convert(gen_binom(Fraction(l, 2), r), ctx)
                inner += binom / zeta_prime**r * table[r][M]
            total += outer * inner
        t.append(total)
    return t


def miller_t_values(rho, taylor: Sequence, K: int, ctx) -> list:
    """``t_0 .. t_K`` of ``T = C(zeta)`` by J.C.P. Miller's power recurrence in ``ctx`` arithmetic.

    The library's fixed-point composition, step for step on mpf values:
    ``P_i = -2e taylor[i+1] (-rho)^(i+1)``, ``Q = P^(k/2)`` from
    ``m P_0 Q_m = sum_{j=1}^{m} ((k/2+1) j - m) P_j Q_(m-j)`` and
    ``t_n = sum_k -B(k)/k! Q_((n-k)/2)``.
    """
    P = [-2 * ctx.e * taylor[i + 1] * (-rho) ** (i + 1) for i in range((K + 1) // 2)]
    root = ctx.sqrt(P[0])
    t = [ctx.mpf(1)] + [ctx.mpf(0)] * K
    for k in range(1, K + 1):
        c = -hp.convert(b_seq(k), ctx) / math.factorial(k)
        Q = [root**k]
        for m in range(1, (K - k) // 2 + 1):
            acc = sum(((k + 2) * j - 2 * m) * P[j] * Q[m - j] for j in range(1, m + 1))
            Q.append(acc / (2 * m * P[0]))
        for m, q in enumerate(Q):
            t[k + 2 * m] += c * q
    return t


def miller_t_fixed(x: int, E: Sequence[int], K: int, w: int) -> list:
    """:func:`miller_t_values` on integers scaled by ``2^w``, with ``2K`` guard bits.

    ``x = rho`` and ``E[j] = e zeta^(j)(rho)/j!``.  Its flooring errors grow
    through the recurrence by up to ``2^(0.98 K)`` units of ``2^-(w+2K)``
    over the three varieties: for identity the result misses the exact one
    by about ``2.9e5`` units of ``2^-w`` at ``K = 81`` and ``2.3e14`` at
    ``K = 161``.
    """
    wide = 2 * K
    W = w + wide
    P, power = [], x << wide  # power = -(-rho)^(i+1)
    for i in range((K + 1) // 2):
        P.append(2 * E[i + 1] * power >> w)
        power = -(power * x >> w)
    root = math.isqrt(P[0] << W)
    t = [1 << W] + [0] * K
    lead = 1 << W  # root^k
    for k in range(1, K + 1):
        b = b_seq(k)
        c = (-b.numerator << W) // (b.denominator * math.factorial(k))
        lead = lead * root >> W
        Q = [lead]
        for m in range(1, (K - k) // 2 + 1):
            acc = sum(((k + 2) * j - 2 * m) * P[j] * Q[m - j] for j in range(1, m + 1))
            Q.append(acc // (2 * m * P[0]))
        for m, q in enumerate(Q):
            t[k + 2 * m] += c * q >> W
    return [v >> wide for v in t]


def exact_recurrence(F: Sequence[Fraction], g1: Fraction, K: int) -> list:
    """``g_0 = 0, g_1 .. g_K`` of ``g - log(1+g) = F(s^2)`` in exact arithmetic.

    ``F[i]`` is the coefficient of ``u^i`` (``F[0]`` unused) and ``g1`` must
    be ``-sqrt(2 F_1)``; then ``2 g_1 g_(m-1) = (2/m) [s^(m-1)]((1+g) dF/ds)
    - sum_{j=2}^{m-2} g_j g_(m-j)`` for ``m >= 3``.
    """
    g = [Fraction(0), Fraction(g1)]
    for m in range(3, K + 2):
        S = sum(2 * i * F[i] * g[m - 2 * i] for i in range(1, (m + 1) // 2))
        if m % 2 == 0:
            S += m * F[m // 2]
        C = sum(g[j] * g[m - j] for j in range(2, m - 1))
        g.append((Fraction(2, m) * S - C) / (2 * g1))
    return g


def recurrence_error_bound(F: Sequence, g: Sequence, K: int, W: int) -> list:
    """The bound ``e_0 = 0, e_1 .. e_K`` of :func:`treeasym.expansions.puiseux_coeffs`, in floats.

    Units of ``2^-W``; ``F`` and ``g`` are the exact values, as from
    :func:`exact_recurrence`.
    """
    unit = 2.0**-W
    e = [0.0, 1 + 2 / abs(g[1])]
    G = [0.0, abs(g[1]) + e[1] * unit]
    for m in range(3, K + 2):
        err_S = (m if m % 2 == 0 else 0) + sum(
            2 * i * ((abs(F[i]) + unit) * e[m - 2 * i] + G[m - 2 * i]) for i in range(1, (m + 1) // 2)
        )
        err_C = 2 * sum(G[j] * e[m - j] for j in range(2, m - 1))
        n = m - 1
        e.append(1 + (abs(g[n]) * e[1] + err_S / m + err_C / 2) / (abs(g[1]) - e[1] * unit))
        G.append(abs(g[n]) + e[n] * unit)
    return e


def apply_shift(t: list, rho, spec) -> list:
    """``t`` of ``T = T~ + sigma*(1-z)/2`` from that of ``T~`` in mpf: ``1 - z = (1-rho) + rho*u``."""
    out = list(t)
    out[0] += spec.shift_sign * (1 - rho) / 2
    if len(out) > 2:
        out[2] += spec.shift_sign * rho / 2
    return out

"""Singular and asymptotic expansions of the counting sequences.

Given a variety with singularity ``rho`` and derivative values
``zeta^(r)(rho)``, the counting series expands in half-integer powers of
``u = 1 - z/rho``::

    T(z) = 1 + sum_{n>=1} t_n u^(n/2)

with ``t_1 = -sqrt(2 e rho zeta'(rho))`` and, for ``n > 1``,

    t_n = -B(n)/n! (2 e rho zeta')^(n/2)
          - sum_{1 <= l <= n-1, l == n (mod 2)} (-1)^((n-l)/2) rho^(n/2) B(l)/l!
            (2 e zeta')^(l/2)
            sum_{r=1}^{(n-l)/2} binom(l/2, r) zeta'^(-r)
            sum over compositions (i_1..i_r) of (n-l)/2 of
                prod_j zeta^(i_j+1)(rho) / (i_j+1)!

The innermost composition sum is the coefficient of ``u^M`` in the ``r``-th
power of ``sum_i zeta^(i+1) u^i/(i+1)!`` and is evaluated by the convolution
table :func:`composition_power_table`; tests compare it against explicit
composition enumeration.

The counting sequence then satisfies

    T_n ~ rho^(-n) / sqrt(pi n^3) * sum_{l>=0} tau_l / n^l

with ``tau_l = sum_{r=1}^{l+1} Q_r R_{l+1-r}`` instantiated from the odd
``t``-coefficients (see :mod:`treeasym.kernels`).  An order-``k``
approximation keeps the terms through ``tau_k / n^k`` (``k+1`` summands).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import hp
from .counts import CountSequence
from .kernels import b_seq, gen_binom, tau_symbolic
from .series import TruncationWarning, series_eval_deriv_tail
from .solver import DEFAULT_BRACKET, MAX_NEWTON, RhoResult, check_series_inputs, find_root
from .varieties import VarietySpec, get_variety, zeta_series

# Not called here; the benchmark traces both names in this module (perfbench/layers.py).
from .solver import solve_rho  # noqa: F401
from .varieties import zeta_derivatives  # noqa: F401


@dataclass(frozen=True)
class PuiseuxExpansion:
    """Singular-expansion data ``rho`` and ``t_0 .. t_K`` for one variety."""

    variety: str
    rho: object
    t: tuple
    certified_digits: tuple[int, ...]
    n_series: int
    digits: int
    ctx: object


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Asymptotic-expansion data ``rho`` and ``tau_0 .. tau_L`` for one variety."""

    variety: str
    rho: object
    tau: tuple
    certified_digits: tuple[int, ...]
    n_series: int
    digits: int
    ctx: object

    @property
    def order(self) -> int:
        return len(self.tau) - 1


def composition_power_table(values: Sequence, m_max: int, ctx) -> list[list]:
    """Table ``W[r][M] = sum over compositions (i_1..i_r) of M of prod_j values[i_j]``.

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


def derivative_orders_needed(K: int) -> int:
    """Highest ``zeta`` derivative order used by ``t_1 .. t_K``."""
    return max(1, (K - 1) // 2 + 1)


def _t_values(rho, deriv_values: Sequence, K: int, ctx) -> list:
    """Pre-transform coefficients ``t_0 .. t_K`` from raw derivative values."""
    zeta_prime = deriv_values[1]
    if not zeta_prime > 0:
        raise ValueError(f"zeta'(rho) must be positive, got {ctx.nstr(zeta_prime, 8)}")
    e = ctx.e
    sqrt_big = ctx.sqrt(2 * e * rho * zeta_prime)   # (2 e rho zeta')^(1/2)
    sqrt_small = ctx.sqrt(2 * e * zeta_prime)       # (2 e zeta')^(1/2)
    sqrt_rho = ctx.sqrt(rho)
    m_max = (K - 1) // 2
    if m_max >= 1:
        weights = [None] + [
            deriv_values[i + 1] / math.factorial(i + 1) for i in range(1, m_max + 1)
        ]
        table = composition_power_table(weights, m_max, ctx)
    t = [ctx.mpf(1)]
    for n in range(1, K + 1):
        total = -hp.convert(b_seq(n), ctx) / math.factorial(n) * sqrt_big**n
        start = 1 if n % 2 == 1 else 2
        for l in range(start, n - 1, 2):
            M = (n - l) // 2
            sign = -1 if M % 2 == 1 else 1
            outer = (
                -sign
                * sqrt_rho**n
                * hp.convert(b_seq(l), ctx)
                / math.factorial(l)
                * sqrt_small**l
            )
            inner = ctx.mpf(0)
            for r in range(1, M + 1):
                inner += (
                    hp.convert(gen_binom(Fraction(l, 2), r), ctx)
                    / zeta_prime**r
                    * table[r][M]
                )
            total += outer * inner
        t.append(total)
    return t


def _apply_post_transform(t: list, rho, spec: VarietySpec) -> list:
    if not spec.post_transform:
        return t
    out = list(t)
    out[0] = 1 - (1 - rho) / 2
    if len(out) > 2:
        out[2] = out[2] - rho / 2
    return out


def puiseux_coeffs(spec: VarietySpec, rho, derivs: Sequence, K: int, ctx) -> tuple:
    """Singular coefficients ``t_0 .. t_K`` from ``rho`` and ``derivs[r] = zeta^(r)(rho)``.

    ``derivs`` must reach order :func:`derivative_orders_needed` ``(K)``.  The
    hierarchy affine correction is applied after the generic coefficients.
    """
    if K < 1:
        raise ValueError(f"order K must be >= 1, got {K}")
    needed = derivative_orders_needed(K)
    if len(derivs) <= needed:
        raise ValueError(
            f"zeta derivatives up to order {needed} required for K={K}, "
            f"got r_max={len(derivs) - 1}"
        )
    return tuple(_apply_post_transform(_t_values(rho, derivs, K, ctx), rho, spec))


def tau_coeffs(t: Sequence, L: int, ctx) -> tuple:
    """Instantiate ``tau_0 .. tau_L`` from the singular coefficients ``t``.

    Requires ``t``-indices up to ``2L+1``.  Only odd indices enter, so the
    hierarchy post-transform (touching ``t_0`` and ``t_2``) is irrelevant
    here and the same code serves all varieties.
    """
    if L < 0:
        raise ValueError(f"order L must be >= 0, got {L}")
    if len(t) - 1 < 2 * L + 1:
        raise ValueError(
            f"tau_{L} needs t-indices up to {2 * L + 1}, expansion has {len(t) - 1}"
        )
    return tuple(tau_symbolic(ell).evaluate(t, ctx) for ell in range(L + 1))


def estimate_count(asym: AsymptoticExpansion, n: int, order: int):
    """Order-``k`` approximation ``rho^-n / sqrt(pi n^3) * sum_{i<=k} tau_i/n^i``."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if not 0 <= order <= asym.order:
        raise ValueError(f"order {order} outside available range 0..{asym.order}")
    ctx = asym.ctx
    nn = ctx.mpf(n)
    prefactor = ctx.power(asym.rho, -n) / ctx.sqrt(ctx.pi * nn**3)
    acc = ctx.mpf(0)
    for i in range(order, -1, -1):  # small terms first
        acc += asym.tau[i] / nn**i
    return prefactor * acc


@dataclass(frozen=True)
class ErrorTable:
    """Relative errors and estimate/exact ratios over a (size, order) grid."""

    variety: str
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    relative_errors: dict
    ratios: dict

    def rows(self):
        """Long-form rows ``(size, order, relative_error, ratio)``."""
        for n in self.sizes:
            for k in self.orders:
                yield n, k, self.relative_errors[(n, k)], self.ratios[(n, k)]


def error_table(
    asym: AsymptoticExpansion,
    counts: CountSequence,
    sizes: Sequence[int],
    orders: Sequence[int],
) -> ErrorTable:
    """Compare approximations against exact counts on a grid.

    Entries are ``|estimate - exact| / exact``; the ratio series
    ``estimate / exact`` is kept alongside for plotting.
    """
    sizes = tuple(int(n) for n in sizes)
    orders = tuple(int(k) for k in orders)
    if not sizes or not orders:
        raise ValueError("sizes and orders must be non-empty")
    if max(sizes) > counts.n_max:
        raise ValueError(
            f"size {max(sizes)} beyond exact-count reach (have n <= {counts.n_max})"
        )
    if counts.variety != asym.variety:
        raise ValueError(f"count/expansion mismatch: {counts.variety} vs {asym.variety}")
    ctx = asym.ctx
    rel, ratios = {}, {}
    for n in sizes:
        exact = hp.convert(counts[n], ctx)
        if exact == 0:
            raise ValueError(f"exact count at n={n} is zero; no relative error")
        for k in orders:
            estimate = estimate_count(asym, n, k)
            rel[(n, k)] = abs(estimate - exact) / exact
            ratios[(n, k)] = estimate / exact
    return ErrorTable(
        variety=asym.variety,
        sizes=sizes,
        orders=orders,
        relative_errors=rel,
        ratios=ratios,
    )


@dataclass(frozen=True)
class VarietyExpansion:
    """Bundle of everything the pipeline produces for one variety."""

    spec: VarietySpec
    counts: CountSequence
    rho_result: RhoResult
    puiseux: PuiseuxExpansion
    asym: AsymptoticExpansion


def expand_variety(
    variety: str,
    *,
    L: int = 4,
    K: int | None = None,
    N: int = 200,
    D: int = 60,
    counts: CountSequence | None = None,
) -> VarietyExpansion:
    """Full pipeline: counts, singularity, derivatives, ``t`` and ``tau``.

    ``K`` defaults to ``max(2L+1, 1)`` so that ``tau_0 .. tau_L`` are
    derivable; pass a larger ``K`` for more singular terms.  The pipeline
    runs at truncation orders ``N`` and ``N//2``; the agreement of the two
    runs gives the certified digits of ``rho``, every ``t_n`` and every
    ``tau_l``.
    """
    spec = get_variety(variety)
    if K is None:
        K = max(2 * L + 1, 1)
    if K < 2 * L + 1:
        raise ValueError(f"K={K} too small for L={L}; need K >= {2 * L + 1}")
    if N < 2 * K:
        raise ValueError(f"series order N={N} too small for K={K}; need N >= {2 * K}")
    if counts is None:
        counts = spec.count_source(N)
    check_series_inputs(counts, N, D)
    ctx = hp.working_context(D)
    rho, iterations, t, tau, tail = _expand_at(spec, counts, N, D, K, L, ctx)
    rho_check, _, t_check, tau_check, _ = _expand_at(spec, counts, N // 2, D, K, L, ctx)
    if tail > ctx.mpf(10) ** (-(D - 10)):
        warnings.warn(
            f"zeta derivative tails reach {ctx.nstr(tail, 3)}; "
            f"truncation order {N} is small for {D} digits",
            TruncationWarning,
            stacklevel=2,
        )
    rho_result = RhoResult(
        variety=spec.name,
        rho=rho,
        certified_digits=hp.certified_digits(rho, rho_check, D, ctx),
        n_used=N,
        iterations=iterations,
        digits=D,
        ctx=ctx,
    )
    puiseux = PuiseuxExpansion(
        variety=spec.name,
        rho=rho,
        t=t,
        certified_digits=tuple(hp.certified_digits(a, b, D, ctx) for a, b in zip(t, t_check)),
        n_series=N,
        digits=D,
        ctx=ctx,
    )
    asym = AsymptoticExpansion(
        variety=spec.name,
        rho=rho,
        tau=tau,
        certified_digits=tuple(
            hp.certified_digits(a, b, D, ctx) for a, b in zip(tau, tau_check)
        ),
        n_series=N,
        digits=D,
        ctx=ctx,
    )
    return VarietyExpansion(
        spec=spec, counts=counts, rho_result=rho_result, puiseux=puiseux, asym=asym
    )


def _expand_at(spec: VarietySpec, counts: CountSequence, N: int, D: int, K: int, L: int, ctx):
    """``(rho, iterations, t, tau, tail)`` from one ``zeta`` series truncated at order ``N``.

    ``tail`` is the largest tail indicator of the derivative evaluations.
    """
    zeta = zeta_series(spec, counts, N, ctx)
    rho, iterations = find_root(zeta, ctx, DEFAULT_BRACKET, D, MAX_NEWTON, spec.name)
    orders = range(derivative_orders_needed(K) + 1)
    derivs, tails = zip(*(series_eval_deriv_tail(zeta, rho, r, ctx) for r in orders))
    t = puiseux_coeffs(spec, rho, derivs, K, ctx)
    return rho, iterations, t, tau_coeffs(t, L, ctx), max(tails)

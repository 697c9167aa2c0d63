"""Singular and asymptotic expansions of the counting sequences.

The pipeline builds the exponents of ``zeta`` from counts to ``n`` once,
as fixed-point integers at the working precision: ``h`` of degree ``2n``
and its part ``H4`` with ``i >= 4`` of degree ``4n``.  ``n`` is the count
reach ``N`` asked for, or less: the least reach past which no count moves
the working precision (:func:`treeasym.solver.solve_exponent`).  Three
split sweeps of scaled Taylor shifts, ``H4`` at ``x`` and ``h`` at ``x^2`` and ``x^3``,
with ``T(z^2)`` and ``T(z^3)`` solved there by the functional equation,
give the short Taylor models of ``log zeta`` at count reach ``N`` and at
``N//2``; integer Newton on each model gives ``rho`` and the model's
Taylor shift to it, in the variable ``d/rho``
(:func:`treeasym.solver.solve_models`).  Both are accurate to about
``rho^(3N)`` and ``rho^(3N/2)``.  From the model ``l``, the counting series
expands in half-integer powers of ``u = 1 - z/rho``::

    T(z) = 1 + sum_{n>=1} t_n u^(n/2)

With ``z = rho(1-u)`` and ``g = T~ - 1`` a series in ``s = sqrt(u)``, the
functional equation ``T~ e^(-T~) = zeta`` reads ``g - log(1+g) = F(s^2)``,
``F(u) = -(1 + log zeta(rho(1-u)))``, whose coefficients
``F_i = -(-1)^i l_i`` are the model's own (``F_0 = 0`` at the root), since
``d/rho = -u``.  Differentiating in ``s`` gives ``g g' = (1+g) dF/ds``: a
square root for ``t_1 = -sqrt(2 F_1) = -sqrt(2 e rho zeta'(rho))``, then one
division per coefficient (:func:`puiseux_coeffs`; Knuth, TAOCP vol. 2, 4.7,
on power series from differential equations; Brent and Kung, JACM 25, 1978;
Flajolet and Sedgewick, Analytic Combinatorics, VII.4, on the square-root
singularity).  That is ``O(K^2)`` integer operations with ``K + 8`` guard
bits beyond :func:`treeasym.hp.fixed_bits`.  Tests compare it against the
paper's explicit Faa di Bruno form of ``T = C(zeta)``, against that
composition by Miller's power recurrence and against the recurrence in
exact rationals.

The counting sequence then satisfies

    T_n ~ rho^(-n) / sqrt(pi n^3) * sum_{l>=0} tau_l / n^l

with ``tau_l = sum_{j=0}^{l} t_{2j+1} w_j c_{l-j}(j + 1/2)`` instantiated from
the odd ``t``-coefficients: ``w_j = sqrt(pi) / Gamma(-j-1/2)`` and ``c_m(a)`` is
the ``n^-m`` coefficient of ``Gamma(n-a) n^(a+1) / Gamma(n+1)``, both exact
rationals (see :mod:`treeasym.kernels`).  An order-``k`` approximation keeps
the terms through ``tau_k / n^k`` (``k+1`` summands).

Everything from the sweeps to ``tau`` runs on integers scaled by ``2^w``;
``rho``, ``t`` and ``tau`` become mpf values only where
:func:`expand_variety` stores them in its result records.  Their certified
digits and the tail indicator are read off the integers too: the
indicator sums the tails of the split model's own exponents
(:func:`treeasym.varieties.model_tail`), and its scale
``e rho^r zeta^(r)(rho)/r!`` is the short exponential of the model
(:func:`treeasym.series.series_exp_fixed`), since ``zeta(rho) = 1/e``.  It
runs the pipeline at ``N`` and at ``N//2``; both roots and models come
from the same sweeps, so the second has no bracket phase of its own, and
where the two models are equal so are their ``t`` and ``tau``.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Sequence

from . import hp
from .counts import CountSequence
from .kernels import tau_symbolic
from .records import Record
from .series import TruncationWarning, series_exp_fixed
from .solver import RhoResult, solve_exponent
from .varieties import VarietySpec, get_variety, model_tail

# Not called here; the benchmark traces these names in this module (perfbench/layers.py).
from .kernels import b_seq  # noqa: F401
from .solver import solve_rho  # noqa: F401
from .varieties import zeta_derivatives  # noqa: F401


class PuiseuxExpansion(Record):
    """Singular-expansion data ``rho`` and ``t_0 .. t_K`` for one variety."""

    variety: str
    rho: object
    t: tuple
    certified_digits: tuple[int, ...]
    n_series: int
    digits: int
    ctx: object


class AsymptoticExpansion(Record):
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


def derivative_orders_needed(K: int) -> int:
    """Highest ``zeta`` derivative order used by ``t_1 .. t_K``."""
    return max(1, (K - 1) // 2 + 1)


def puiseux_coeffs(spec: VarietySpec, x: int, l: Sequence[int], K: int, w: int) -> tuple:
    """Singular coefficients ``t_0 .. t_K`` from ``x = rho`` and the model ``l`` of ``log zeta``.

    All fixed-point at ``w``; ``l[i]`` is ``rho^i`` times the Taylor
    coefficient of ``log zeta`` at ``rho`` of order ``i``, that of
    ``(d/rho)^i``, to order :func:`derivative_orders_needed` ``(K)``.  With
    ``g = T~ - 1`` a series in ``s = sqrt(u)``, the functional equation
    reads ``g - log(1+g) = F(s^2)`` with ``F_i = -(-1)^i l_i``, exact; its
    derivative ``g g' = (1+g) dF/ds`` gives
    ``g_1 = -sqrt(2 F_1)`` and, for ``m >= 3``,
    ``2 g_1 g_(m-1) = (2/m) [s^(m-1)]((1+g) dF/ds) - sum_{j=2}^{m-2} g_j g_(m-j)``.
    The shift ``sigma*(1-z)/2``, with ``1 - z = (1-rho) + rho*u``, is added
    back after: ``t_0 += sigma*(1-rho)/2`` and ``t_2 += sigma*rho/2``.

    The recurrence runs at ``W = w + K + 8`` bits, each ``g_n`` floored
    once; the two sums of each step are products of list slices run in C,
    exact on the integers.  Against the exact recurrence on the given integers,
    ``g_n`` errs by at most ``e_n`` units of ``2^-W``: ``e_1 = 1 + 2/|g_1|``
    and, with ``m = n + 1``, ``G_j = |g_j| + e_j 2^-W`` and
    ``F'_i = |F_i| + 2^-W``::

        e_n = 1 + (|g_n| e_1 + err_S/m + err_C/2) / (|g_1| - e_1 2^-W)
        err_S = m [m even] + sum_{1 <= i < m/2} 2i (F'_i e_(m-2i) + G_(m-2i))
        err_C = 2 sum_{j=2}^{m-2} G_j e_(m-j)

    So ``t_n`` is within ``1 + e_n 2^-(K+8)`` units of ``2^-w`` before the
    shift.  Over the three varieties up to ``K = 161``, ``e_n`` stays below
    ``2^(n/2 + 2)``, which leaves ``t_n`` within 2 units.
    """
    if K < 1:
        raise ValueError(f"order K must be >= 1, got {K}")
    needed = derivative_orders_needed(K)
    if len(l) <= needed:
        raise ValueError(
            f"zeta derivatives up to order {needed} required for K={K}, "
            f"got r_max={len(l) - 1}"
        )
    if not l[1] > 0:
        raise ValueError(
            f"zeta'(rho) must be positive, got e rho zeta'(rho) = {l[1] / (1 << w):.8g}")
    guard = K + 8
    W = w + guard
    F = [0] + [(-l[i] if i % 2 == 0 else l[i]) << guard for i in range(1, needed + 1)]
    F2 = [2 * i * f for i, f in enumerate(F)]
    g = [0, -math.isqrt(F[1] << W + 1)]
    for m in range(3, K + 2):
        # i < (m+1)/2 against g_(m-2i), j from 2 to below (m+1)/2 against g_(m-j)
        S = sum(map(operator.mul, F2[1:(m + 1) // 2], g[m - 2::-2]))
        C = 2 * sum(map(operator.mul, g[2:(m + 1) // 2], g[m - 2::-1]))
        if m % 2 == 0:
            S += m * F[m // 2] << W
            C += g[m // 2] ** 2
        g.append((2 * S - m * C) // (2 * m * g[1]))
    t = [1 << w] + [v >> guard for v in g[1:]]
    t[0] += spec.shift_sign * ((1 << w) - x) >> 1
    if K >= 2:
        t[2] += spec.shift_sign * x >> 1
    return tuple(t)


def tau_coeffs(t: Sequence[int], L: int) -> tuple:
    """``tau_0 .. tau_L`` from the fixed-point singular coefficients ``t``, at the same scale.

    Each ``tau_l`` is the exact linear form :func:`treeasym.kernels.tau_symbolic`
    applied to ``t``, one floor per term.  Requires ``t``-indices up to
    ``2L+1``.  Only odd indices enter, so the shift correction (touching
    ``t_0`` and ``t_2``) is irrelevant here and the same code serves all
    varieties.
    """
    if L < 0:
        raise ValueError(f"order L must be >= 0, got {L}")
    if len(t) - 1 < 2 * L + 1:
        raise ValueError(
            f"tau_{L} needs t-indices up to {2 * L + 1}, expansion has {len(t) - 1}"
        )
    return tuple(
        sum(c.numerator * t[j] // c.denominator for j, c in tau_symbolic(ell).items())
        for ell in range(L + 1)
    )


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


class ErrorTable(Record):
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


class VarietyExpansion(Record):
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

    ``K`` defaults to ``2L+1`` so that ``tau_0 .. tau_L`` are
    derivable; pass a larger ``K`` for more singular terms.  ``N`` is the
    count reach, at most: the exponents of ``zeta`` are taken to degrees
    ``2n`` and ``4n`` for ``n = min(N, visible reach)``
    (:func:`treeasym.solver.solve_exponent`), where the omitted tail of
    every sweep is below a quarter unit by ``T_d <= rho_lo^-d``, so the
    counts past it change nothing at the working precision.  ``counts``
    are read to that ``n``, and computed, or continued when shorter, to it;
    the result keeps them, and ``rho_result.n_read`` is the ``n``.  The
    pipeline runs at count reach ``N`` and ``N//2``; the agreement of the
    two runs gives the certified digits of ``rho``, every ``t_n`` and every
    ``tau_l``.
    """
    spec = get_variety(variety)
    if L < 0:
        raise ValueError(f"order L must be >= 0, got {L}")
    if K is None:
        K = 2 * L + 1
    if K < 2 * L + 1:
        raise ValueError(f"K={K} too small for L={L}; need K >= {2 * L + 1}")
    if N < 2 * K:
        raise ValueError(f"count reach N={N} too small for K={K}; need N >= {2 * K}")
    r_max = derivative_orders_needed(K)
    rho_result, counts, exponents, models = solve_exponent(spec, counts, N, D, r_max)
    (x, model), (x_check, model_check) = models
    rho, ctx = rho_result.rho, rho_result.ctx
    w = hp.fixed_bits(ctx)
    t = puiseux_coeffs(spec, x, model, K, w)
    tau = tau_coeffs(t, L)
    if models[1] == models[0]:  # the N//2 sweeps gave the same integers: so do t and tau
        t_check, tau_check = t, tau
    else:
        t_check = puiseux_coeffs(spec, x_check, model_check, K, w)
        tau_check = tau_coeffs(t_check, L)

    def report(values, checks):  # (mpf values, certified digits), one rounding of each value
        return zip(*(hp.read_certified(v, c, w, D, ctx) for v, c in zip(values, checks)))

    # relative truncation error of the highest derivative that t_K reads;
    # zeta(rho) = 1/e, so the model's short exponential is e rho^r zeta^(r)(rho)/r!,
    # and the tail carries the same rho^r
    tail = model_tail(exponents, x, r_max, w)
    top = series_exp_fixed(model, w)[r_max]
    if tail * 10 ** (D - 10) > abs(top):
        ratio = hp.from_fixed(tail, w, ctx) / abs(hp.from_fixed(top, w, ctx))
        warnings.warn(
            f"relative tail of the highest zeta derivative reaches {ctx.nstr(ratio, 3)}; "
            f"truncation order {N} is small for {D} digits",
            TruncationWarning,
            stacklevel=2,
        )
    t_real, t_digits = report(t, t_check)
    tau_real, tau_digits = report(tau, tau_check)
    shared = dict(variety=spec.name, rho=rho, n_series=N, digits=D, ctx=ctx)
    puiseux = PuiseuxExpansion(t=t_real, certified_digits=t_digits, **shared)
    asym = AsymptoticExpansion(tau=tau_real, certified_digits=tau_digits, **shared)
    return VarietyExpansion(
        spec=spec, counts=counts, rho_result=rho_result, puiseux=puiseux, asym=asym
    )


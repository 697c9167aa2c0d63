"""Singular and asymptotic expansions of the counting sequences.

The pipeline builds the exponent ``h = log(zeta / (c z^a))`` to degree
``2N`` once, as fixed-point integers at the working precision.  One split
sweep of scaled Taylor shifts gives the short Taylor models of ``log
zeta`` for ``h`` and for its ``N//2`` prefix; integer Newton on each model
gives ``rho`` and the model's Taylor shift to it
(:func:`treeasym.solver.solve_models`).  Since ``zeta(rho) = 1/e``, the
short exponential of that model (:func:`treeasym.series.series_exp_fixed`)
is ``E[j] = e zeta^(j)(rho)/j!`` with ``E[0] = 1``.  From these, the
counting series expands in half-integer powers of ``u = 1 - z/rho``::

    T(z) = 1 + sum_{n>=1} t_n u^(n/2)

and ``T = C(zeta)`` with ``C`` the tree function, whose square-root expansion
at ``1/e`` is ``C = sum_k c_k (2(1 - e z))^(k/2)``, ``c_k = -B(k)/k!``
(:func:`treeasym.kernels.b_seq`).  With ``z = rho(1-u)`` the argument is
``2(1 - e zeta) = u P(u)``, ``P`` read off ``E``, so ``t_n`` collects
``c_k [u^((n-k)/2)] P^(k/2)`` over ``k == n (mod 2)``; in particular
``t_1 = -sqrt(2 e rho zeta'(rho))``.  The composition runs with ``2K``
guard bits beyond :func:`treeasym.hp.fixed_bits`.  Tests compare this
against the paper's explicit Faa di Bruno form and against the same
recurrence on mpf values.

The counting sequence then satisfies

    T_n ~ rho^(-n) / sqrt(pi n^3) * sum_{l>=0} tau_l / n^l

with ``tau_l = sum_{j=0}^{l} t_{2j+1} w_j c_{l-j}(j + 1/2)`` instantiated from
the odd ``t``-coefficients: ``w_j = sqrt(pi) / Gamma(-j-1/2)`` and ``c_m(a)`` is
the ``n^-m`` coefficient of ``Gamma(n-a) n^(a+1) / Gamma(n+1)``, both exact
rationals (see :mod:`treeasym.kernels`).  An order-``k`` approximation keeps
the terms through ``tau_k / n^k`` (``k+1`` summands).

Everything from the sweep to ``tau`` runs on integers scaled by ``2^w``;
``rho``, ``t`` and ``tau`` become mpf values only where
:func:`expand_variety` stores them in its result records.  Their certified
digits and the tail indicator are read off the integers too.  It runs the
pipeline at ``N`` and at ``N//2``; both roots and models come from the same
sweep, so the second has no bracket phase of its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from . import hp
from .counts import CountSequence
from .kernels import b_seq, tau_symbolic
from .series import TruncationWarning, series_exp_fixed
from .solver import RhoResult, check_series_inputs, half_cut, solve_models
from .varieties import VarietySpec, exponent_tail, get_variety, numeric_exponent

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


def derivative_orders_needed(K: int) -> int:
    """Highest ``zeta`` derivative order used by ``t_1 .. t_K``."""
    return max(1, (K - 1) // 2 + 1)


def _t_values(x: int, E: Sequence[int], K: int, w: int) -> list:
    """``t_0 .. t_K`` of ``T = C(zeta)`` from ``x = rho`` and ``E[j] = e zeta^(j)(rho)/j!``.

    All fixed-point at ``w``.

    ``2(1 - e zeta(rho(1-u))) = u P(u)`` with ``P_i = -2 E[i+1] (-rho)^(i+1)``,
    so ``t_n = sum_k c_k [u^((n-k)/2)] P^(k/2)`` over ``1 <= k <= n``,
    ``k == n (mod 2)``, with ``c_k = -B(k)/k!``.  Each power comes from
    J.C.P. Miller's recurrence ``m P_0 Q_m = sum_{j=1}^{m} ((k/2+1) j - m) P_j Q_(m-j)``.
    """
    if not E[1] > 0:
        raise ValueError(f"zeta'(rho) must be positive, got e zeta'(rho) = {E[1] / (1 << w):.8g}")
    # Every floor below errs by less than one unit of 2^-W, but the Miller
    # recurrence carries each error on with the weights
    # ((k+2) j - 2m) P_j / (2m P_0), which grow with the order: over the
    # three varieties up to K = 161 the flooring error reaches 2^(0.98 K)
    # units at most.  The 2K extra bits cover that with K bits to spare.
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


def puiseux_coeffs(spec: VarietySpec, x: int, E: Sequence[int], K: int, w: int) -> tuple:
    """Singular coefficients ``t_0 .. t_K`` from ``x = rho`` and ``E[r] = e zeta^(r)(rho)/r!``.

    All fixed-point at ``w``.  ``E`` must reach order
    :func:`derivative_orders_needed` ``(K)``.  The shift ``sigma*(1-z)/2``,
    with ``1 - z = (1-rho) + rho*u``, is added back after the generic
    coefficients: ``t_0 += sigma*(1-rho)/2`` and ``t_2 += sigma*rho/2``.
    """
    if K < 1:
        raise ValueError(f"order K must be >= 1, got {K}")
    needed = derivative_orders_needed(K)
    if len(E) <= needed:
        raise ValueError(
            f"zeta derivatives up to order {needed} required for K={K}, "
            f"got r_max={len(E) - 1}"
        )
    t = _t_values(x, E, K, w)
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

    ``K`` defaults to ``2L+1`` so that ``tau_0 .. tau_L`` are
    derivable; pass a larger ``K`` for more singular terms.  ``N`` is the
    count reach: the exponent of ``zeta`` is taken to degree ``2N``.  The
    pipeline runs at truncation orders ``N`` and ``N//2``; the agreement of
    the two runs gives the certified digits of ``rho``, every ``t_n`` and
    every ``tau_l``.
    """
    spec = get_variety(variety)
    if L < 0:
        raise ValueError(f"order L must be >= 0, got {L}")
    if K is None:
        K = 2 * L + 1
    if K < 2 * L + 1:
        raise ValueError(f"K={K} too small for L={L}; need K >= {2 * L + 1}")
    if N < 2 * K:
        raise ValueError(f"series order N={N} too small for K={K}; need N >= {2 * K}")
    if counts is None:
        counts = spec.count_source(N)
    check_series_inputs(counts, N, D)
    ctx = hp.working_context(D)
    w = hp.fixed_bits(ctx)
    h = numeric_exponent(spec, counts, N, ctx)
    r_max = derivative_orders_needed(K)
    models, iterations = solve_models(spec, h, half_cut(N), r_max, ctx, D)
    (x, E, t, tau), (x_check, _, t_check, tau_check) = (
        _expand_at(spec, root, log_taylor, K, L, w) for root, log_taylor in models
    )

    def real(values):
        return tuple(hp.from_fixed(v, w, ctx) for v in values)

    def certified(values, checks):
        return tuple(hp.certified_fixed(v, c, w, D, ctx) for v, c in zip(values, checks))

    # relative truncation error of the highest derivative that t_K reads
    tail = exponent_tail(h, x, r_max, w)
    if tail * 10 ** (D - 10) > abs(E[r_max]):
        ratio = hp.from_fixed(tail, w, ctx) / abs(hp.from_fixed(E[r_max], w, ctx))
        warnings.warn(
            f"relative tail of the highest zeta derivative reaches {ctx.nstr(ratio, 3)}; "
            f"truncation order {N} is small for {D} digits",
            TruncationWarning,
            stacklevel=2,
        )
    rho = hp.from_fixed(x, w, ctx)
    rho_result = RhoResult(
        variety=spec.name,
        rho=rho,
        certified_digits=hp.certified_fixed(x, x_check, w, D, ctx),
        n_used=N,
        iterations=iterations,
        digits=D,
        ctx=ctx,
    )
    puiseux = PuiseuxExpansion(
        variety=spec.name,
        rho=rho,
        t=real(t),
        certified_digits=certified(t, t_check),
        n_series=N,
        digits=D,
        ctx=ctx,
    )
    asym = AsymptoticExpansion(
        variety=spec.name,
        rho=rho,
        tau=real(tau),
        certified_digits=certified(tau, tau_check),
        n_series=N,
        digits=D,
        ctx=ctx,
    )
    return VarietyExpansion(
        spec=spec, counts=counts, rho_result=rho_result, puiseux=puiseux, asym=asym
    )


def _expand_at(spec: VarietySpec, x: int, log_taylor: Sequence[int], K: int, L: int, w: int):
    """Fixed-point ``(rho, E, t, tau)`` at the root ``x`` from the model ``log_taylor``.

    ``log_taylor`` holds the Taylor coefficients of ``log zeta`` at ``x``.
    ``zeta(rho) = 1/e`` at the root, so ``E[j] = e zeta^(j)(rho)/j!`` is the
    short exponential of the model, with ``E[0] = 2^w``.
    """
    E = series_exp_fixed(log_taylor, w)
    t = puiseux_coeffs(spec, x, E, K, w)
    return x, E, t, tau_coeffs(t, L)

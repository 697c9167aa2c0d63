"""Dominant-singularity solver.

At the dominant singularity ``rho`` of a variety in this framework the tree
function reaches the value 1 and the perturbation factor satisfies
``zeta(rho) = 1/e`` (the characteristic point of ``C = z*exp(C)`` transported
through the functional equation).  That collapses the two-equation
characteristic system to a single root-finding problem in ``rho``, solved by
bracketing + bisection to ~10 digits followed by Newton refinement with the
term-wise series derivative.

:func:`find_root` solves on one given ``zeta`` series.  :func:`solve_rho` is
the certified form for direct callers: it solves at truncation orders ``N``
and ``N//2`` and reports their agreement through
:func:`treeasym.hp.certified_digits`, the same helper that certifies the
full expansion in :func:`treeasym.expansions.expand_variety`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hp
from .counts import CountSequence
from .series import series_eval_deriv_tail
from .varieties import VarietySpec, zeta_series

#: Default bracketing interval; all three shipped varieties have their
#: singularity well inside it and their zeta is increasing across it.
DEFAULT_BRACKET = (Fraction(1, 20), Fraction(3, 5))

MIN_SERIES_ORDER = 50

MAX_NEWTON = 80


class SolverError(RuntimeError):
    """Base class for singularity-solver failures."""


class NoBracketError(SolverError):
    """The target value is not crossed on the bracketing interval."""


class StalledError(SolverError):
    """Newton iteration failed to contract to the requested tolerance."""


@dataclass(frozen=True)
class RhoResult:
    """Solved singularity with provenance and certification metadata."""

    variety: str
    rho: object
    certified_digits: int
    n_used: int
    iterations: int
    digits: int       # target digits requested
    ctx: object

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError(f"rho out of range: {self.rho}")


def solve_rho(
    spec: VarietySpec,
    counts: CountSequence,
    N: int,
    D: int,
    *,
    bracket=DEFAULT_BRACKET,
    max_newton: int = MAX_NEWTON,
) -> RhoResult:
    """Solve ``zeta(rho) = exp(-1)`` to ``D`` target digits, certified at ``N//2``.

    ``counts`` must cover indices up to ``N`` and ``N`` must be at least
    ``MIN_SERIES_ORDER``.  Raises :class:`NoBracketError` when no sign change
    exists on ``bracket`` and :class:`StalledError` when Newton fails to
    reach the ``10**-(D+5)`` step tolerance within ``max_newton`` iterations.
    """
    check_series_inputs(counts, N, D)
    ctx = hp.working_context(D)
    full = zeta_series(spec, counts, N, ctx)
    rho, iterations = find_root(full, ctx, bracket, D, max_newton, spec.name)
    check = zeta_series(spec, counts, N // 2, ctx)
    rho_check, _ = find_root(check, ctx, bracket, D, max_newton, spec.name)
    return RhoResult(
        variety=spec.name,
        rho=rho,
        certified_digits=hp.certified_digits(rho, rho_check, D, ctx),
        n_used=N,
        iterations=iterations,
        digits=D,
        ctx=ctx,
    )


def check_series_inputs(counts: CountSequence, N: int, D: int) -> None:
    """Reject a series order, target precision or count reach the solver cannot use."""
    if N < MIN_SERIES_ORDER:
        raise ValueError(f"series order {N} too small, need >= {MIN_SERIES_ORDER}")
    if D < hp.MIN_DIGITS:
        raise ValueError(f"target digits {D} too small, need >= {hp.MIN_DIGITS}")
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")


def find_root(f, ctx, bracket, D, max_newton, name):
    """Root of ``f(x) = 1/e`` on ``bracket`` and the Newton iteration count.

    Bisection to about 10 digits, then Newton to a ``10**-(D+5)`` step.
    """
    target = ctx.exp(ctx.mpf(-1))

    def residual(x):
        value, _ = series_eval_deriv_tail(f, x, 0, ctx)
        return value - target

    lo = hp.convert(bracket[0], ctx)
    hi = hp.convert(bracket[1], ctx)
    f_lo = residual(lo)
    f_hi = residual(hi)
    if f_lo == 0:
        return lo, 0
    if f_hi == 0:
        return hi, 0
    if (f_lo < 0) == (f_hi < 0):
        raise NoBracketError(
            f"{name}: no sign change of zeta - 1/e on [{ctx.nstr(lo, 6)}, {ctx.nstr(hi, 6)}]"
            f" (endpoint residuals {ctx.nstr(f_lo, 6)}, {ctx.nstr(f_hi, 6)})"
        )
    # bisect to ~10 digits to give Newton a safe start
    while hi - lo > ctx.mpf(10) ** -10:
        mid = (lo + hi) / 2
        f_mid = residual(mid)
        if f_mid == 0:
            lo = hi = mid
            break
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    x = (lo + hi) / 2
    tolerance = ctx.mpf(10) ** (-(D + 5))
    steps = []
    for iteration in range(1, max_newton + 1):
        slope, _ = series_eval_deriv_tail(f, x, 1, ctx)
        if slope == 0:
            raise StalledError(f"{name}: zero derivative at {ctx.nstr(x, 12)}")
        step = residual(x) / slope
        x -= step
        steps.append(abs(step))
        if abs(step) < tolerance:
            return x, iteration
    raise StalledError(
        f"{name}: Newton not contracting after {max_newton} iterations; "
        f"last steps {[ctx.nstr(s, 3) for s in steps[-3:]]} vs tolerance {ctx.nstr(tolerance, 3)}"
        " (series order likely too small)"
    )

"""Dominant-singularity solver.

At the dominant singularity ``rho`` of a variety in this framework the tree
function reaches the value 1 and the perturbation factor satisfies
``zeta(rho) = 1/e`` (the characteristic point of ``C = z*exp(C)`` transported
through the functional equation).  That collapses the two-equation
characteristic system to a single root-finding problem in ``rho``.  It is
solved in log form, ``h(x) + a log x + log c + 1 = 0`` with
``h = log(zeta / (c x^a))`` the exponent polynomial of degree ``2N``
(:func:`treeasym.varieties.zeta_exponent`): bisection on the bracket to
about three digits, then Newton with ``h`` and ``h'`` from Horner passes.
The passes run on the fixed-point exponent of
:func:`treeasym.varieties.numeric_exponent`; only ``x`` going in and the
value and slope coming out are converted
(:func:`treeasym.varieties.exponent_taylor`).

:func:`find_root` solves on one given exponent, or starts Newton at a
given point and skips the bisection.  :func:`solve_rho` is the
certified form for direct callers: it solves at truncation order ``N``,
then at ``N//2`` from the order-``N`` root, and reports their agreement through
:func:`treeasym.hp.certified_digits`, the same helper that certifies the
full expansion in :func:`treeasym.expansions.expand_variety`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hp
from .counts import CountSequence
from .varieties import VarietySpec, exponent_prefix, exponent_taylor, numeric_exponent

# Not called here; the benchmark traces both names in this module (perfbench/layers.py).
from .series import series_eval_deriv_tail  # noqa: F401
from .varieties import zeta_series  # noqa: F401

#: Default bracketing interval; all three shipped varieties have their
#: singularity well inside it and their zeta is increasing across it.
DEFAULT_BRACKET = (Fraction(1, 20), Fraction(3, 5))

MIN_SERIES_ORDER = 50

MAX_NEWTON = 80

#: Count reach of the exponent prefix that the bracket phase bisects on; its
#: truncation error at ``rho`` (about ``rho^25``, below ``1e-9``) moves the
#: root far less than the ``10**-3`` bisection width.
BRACKET_REACH = 25


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
    h = numeric_exponent(spec, counts, N, ctx)
    rho, iterations = find_root(spec, h, ctx, bracket, D, max_newton)
    rho_check, _ = find_root(
        spec, exponent_prefix(h, N // 2), ctx, bracket, D, max_newton, start=rho
    )
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


def find_root(spec: VarietySpec, h: tuple, ctx, bracket, D, max_newton, start=None):
    """Root of ``h(x) + a log x + log c + 1 = 0`` on ``bracket`` and the Newton iteration count.

    ``h`` is the fixed-point numeric exponent, so the equation is ``zeta(x) = 1/e``.
    Bisection to a width of ``10**-3`` on the exponent's prefix of count
    reach ``BRACKET_REACH`` (:func:`_bisect`), then Newton on all of ``h`` to a
    ``10**-(D+5)`` step.  A ``start`` point, such as the root of a longer
    exponent, replaces the bisection: Newton starts there.
    """
    a = spec.z_exponent
    offset = ctx.log(hp.convert(spec.prefactor, ctx)) + 1
    x_min, x_max = hp.convert(bracket[0], ctx), hp.convert(bracket[1], ctx)
    if start is None:
        x = _bisect(spec, exponent_prefix(h, BRACKET_REACH), ctx, x_min, x_max, offset)
    else:
        x = hp.convert(start, ctx)
    tolerance = ctx.mpf(10) ** (-(D + 5))
    steps = []
    for iteration in range(1, max_newton + 1):
        value, slope = exponent_taylor(h, x, 1, ctx)
        value += a * ctx.log(x) + offset
        slope += a / x
        if slope == 0:
            raise StalledError(f"{spec.name}: zero derivative at {ctx.nstr(x, 12)}")
        step = value / slope
        x -= step
        steps.append(abs(step))
        if abs(step) < tolerance:
            return x, iteration
        if not x_min <= x <= x_max:
            raise StalledError(f"{spec.name}: Newton left the bracket at {ctx.nstr(x, 12)}")
    raise StalledError(
        f"{spec.name}: Newton not contracting after {max_newton} iterations; "
        f"last steps {[ctx.nstr(s, 3) for s in steps[-3:]]} vs tolerance {ctx.nstr(tolerance, 3)}"
        " (truncation order likely too small)"
    )


def _bisect(spec: VarietySpec, coarse: tuple, ctx, lo, hi, offset):
    """Midpoint of a ``10**-3`` bracket of the root on the short exponent ``coarse``.

    Raises :class:`NoBracketError` when the residual has no sign change on ``[lo, hi]``.
    """
    a = spec.z_exponent

    def residual(x):
        return exponent_taylor(coarse, x, 0, ctx)[0] + a * ctx.log(x) + offset

    f_lo = residual(lo)
    f_hi = residual(hi)
    if f_lo == 0 or f_hi == 0:
        return lo if f_lo == 0 else hi
    if (f_lo < 0) == (f_hi < 0):
        raise NoBracketError(
            f"{spec.name}: no sign change of log(zeta) + 1 on "
            f"[{ctx.nstr(lo, 6)}, {ctx.nstr(hi, 6)}]"
            f" (endpoint residuals {ctx.nstr(f_lo, 6)}, {ctx.nstr(f_hi, 6)})"
        )
    # bisect to ~3 digits; Newton converges quadratically from there
    while hi - lo > ctx.mpf(10) ** -3:
        mid = (lo + hi) / 2
        f_mid = residual(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2

"""The degree-``2N`` exponent solved in two runs, kept as a test oracle.

Each truncation order is solved on its own: an mpf bisection on a short
prefix of the exponent ``h`` of degree ``2N``, then Newton with one
full-width fixed-point Taylor shift to order 1 per iteration, then one to
order ``r`` at the root for the Taylor coefficients of ``log zeta``.  The
``N//2`` run starts Newton at the order-``N`` root.  That exponent is
accurate to about ``rho^N`` at ``rho``.  The library splits off ``T(z^2)``
and ``T(z^3)``, solves them at ``rho^2`` and ``rho^3`` by the functional
equation, and reads both orders off three split sweeps
(:func:`treeasym.solver.solve_models`), accurate to about ``rho^(3N)``.
"""

from __future__ import annotations

from treeasym import hp
from treeasym.expansions import derivative_orders_needed, puiseux_coeffs, tau_coeffs
from treeasym.series import series_taylor
from treeasym.solver import (
    BRACKET_REACH,
    DEFAULT_BRACKET,
    MAX_NEWTON,
    NoBracketError,
    StalledError,
)
from treeasym.varieties import get_variety, log_zeta_taylor, numeric_exponent


def exponent_taylor(h: tuple, x, r: int, ctx) -> tuple:
    """``h^(j)(x) / j!`` for ``j = 0 .. r`` in ``ctx``, from the fixed-point exponent ``h``.

    The scaled shift gives ``x^j h^(j)(x) / j!``; the division by ``x^j``
    runs in ``ctx``.
    """
    w = hp.fixed_bits(ctx)
    X = hp.to_fixed(x, w, ctx)
    shifted = series_taylor(h, X, r, w)
    x = hp.from_fixed(X, w, ctx)
    return tuple(hp.from_fixed(v, w, ctx) / x**j for j, v in enumerate(shifted))


def log_model(spec, h: tuple, x, r: int, ctx) -> tuple:
    """``(X, l)``: the fixed-point ``x`` and the Taylor coefficients ``l_0 .. l_r`` of ``log zeta``
    there in ``d/x``, the model that :func:`treeasym.expansions.puiseux_coeffs` reads."""
    w = hp.fixed_bits(ctx)
    X = hp.to_fixed(x, w, ctx)
    return X, log_zeta_taylor(spec, series_taylor(h, X, r, w), X, w)


def find_root(spec, h: tuple, ctx, bracket, D, max_newton, start=None):
    """Root of ``h(x) + a log x + log c + 1`` and the Newton iteration count.

    Bisection to ``10**-3`` on the prefix of count reach ``BRACKET_REACH``
    (skipped when ``start`` is given), then mpf Newton on all of ``h`` to a
    ``10**-(D+5)`` step.
    """
    a = spec.z_exponent
    offset = ctx.log(hp.convert(spec.prefactor, ctx)) + 1
    x_min, x_max = hp.convert(bracket[0], ctx), hp.convert(bracket[1], ctx)
    if start is None:
        x = _bisect(spec, h[: 2 * BRACKET_REACH + 1], ctx, x_min, x_max, offset)
    else:
        x = hp.convert(start, ctx)
    tolerance = ctx.mpf(10) ** (-(D + 5))
    for iteration in range(1, max_newton + 1):
        value, slope = exponent_taylor(h, x, 1, ctx)
        step = (value + a * ctx.log(x) + offset) / (slope + a / x)
        x -= step
        if abs(step) < tolerance:
            return x, iteration
        if not x_min <= x <= x_max:
            raise StalledError(f"{spec.name}: Newton left the bracket")
    raise StalledError(f"{spec.name}: Newton not contracting after {max_newton} iterations")


def _bisect(spec, coarse: tuple, ctx, lo, hi, offset):
    """Midpoint of a ``10**-3`` bracket of the root on the short exponent ``coarse``."""
    a = spec.z_exponent

    def residual(x):
        return exponent_taylor(coarse, x, 0, ctx)[0] + a * ctx.log(x) + offset

    f_lo = residual(lo)
    if (f_lo < 0) == (residual(hi) < 0):
        raise NoBracketError(f"{spec.name}: no sign change of log(zeta) + 1")
    while hi - lo > ctx.mpf(10) ** -3:
        mid = (lo + hi) / 2
        f_mid = residual(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def expand(variety: str, L: int, N: int, D: int) -> dict:
    """``rho``, ``t``, ``tau``, their ``N//2``-certified digit counts and the Newton count.

    The pipeline of :func:`treeasym.expansions.expand_variety` with
    ``K = 2L + 1``, each order solved and Taylor-expanded on its own.
    """
    spec, K = get_variety(variety), 2 * L + 1
    ctx = hp.working_context(D)
    h = numeric_exponent(spec, spec.count_source(N), N, ctx)[0]
    r_max = derivative_orders_needed(K)
    w = hp.fixed_bits(ctx)

    def real(values):
        return [hp.from_fixed(v, w, ctx) for v in values]

    runs, start = [], None
    for exponent in (h, h[: 2 * (N // 2) + 1]):
        rho, iterations = find_root(spec, exponent, ctx, DEFAULT_BRACKET, D, MAX_NEWTON, start)
        t = puiseux_coeffs(spec, *log_model(spec, exponent, rho, r_max, ctx), K, w)
        runs.append((rho, iterations, real(t), real(tau_coeffs(t, L))))
        start = rho
    (rho, iterations, t, tau), (rho_check, _, t_check, tau_check) = runs

    def certified(values, checks):
        return [min(hp.agreement_digits(a, b, ctx), D) for a, b in zip(values, checks)]

    return dict(
        ctx=ctx,
        rho=rho,
        iterations=iterations,
        t=t,
        tau=tau,
        rho_certified=min(hp.agreement_digits(rho, rho_check, ctx), D),
        t_certified=certified(t, t_check),
        tau_certified=certified(tau, tau_check),
    )

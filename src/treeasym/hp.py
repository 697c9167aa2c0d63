"""Arbitrary-precision arithmetic contexts.

Every numeric routine in this package receives an explicit mpmath context
instead of relying on the global ``mpmath.mp`` state.  A context created by
:func:`context` is an independent clone, so computations at different
precisions never interfere and all operations are thread-safe.

Working precision policy: computations targeting ``D`` reported digits run
at ``D + GUARD_DIGITS`` internal digits.  Certification of the reported
digits is done separately, by recomputing with the series truncation order
halved and counting agreement digits (see :func:`certified_digits`).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

#: Extra digits carried internally beyond the requested target precision.
GUARD_DIGITS = 15

#: Smallest target precision supported by the expansion pipeline.
MIN_DIGITS = 30


def context(digits: int):
    """Return an independent mpmath context with ``digits`` decimal digits."""
    if digits < 1:
        raise ValueError(f"precision must be positive, got {digits}")
    ctx = mpmath.mp.clone()
    ctx.dps = digits
    return ctx


def working_context(digits: int):
    """Context used internally for a computation reported at ``digits``."""
    return context(digits + GUARD_DIGITS)


def agreement_digits(a, b, ctx) -> int:
    """Number of leading decimal digits on which ``a`` and ``b`` agree.

    Used to certify results recomputed at two different truncation orders:
    the agreement count is a practical lower bound on the correct digits.
    Capped at ``ctx.dps`` (beyond that the comparison itself is meaningless).
    """
    a = ctx.convert(a)
    b = ctx.convert(b)
    if a == b:
        return ctx.dps
    scale = max(abs(a), abs(b))
    if scale == 0:
        return ctx.dps
    rel = abs(a - b) / scale
    if rel == 0:
        return ctx.dps
    digits = int(mpmath.floor(-ctx.log10(rel)))
    return max(0, min(digits, ctx.dps))


def certified_digits(value, check, D: int, ctx) -> int:
    """Digits of ``value`` certified by ``check``, its recomputation at order ``N//2``.

    The agreement count of the two, capped at the target ``D``; used for
    ``rho``, every ``t_n`` and every ``tau_l``.
    """
    return min(agreement_digits(value, check, ctx), D)


def to_decimal(x, digits: int, ctx) -> str:
    """Round-trippable decimal string of ``x`` with ``digits`` significant digits."""
    return ctx.nstr(ctx.convert(x), max(1, digits))


def convert(x, ctx):
    """Convert ints, Fractions, strings or foreign mpf values into ``ctx``."""
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.convert(x)

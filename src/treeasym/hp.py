"""Arbitrary-precision arithmetic contexts.

Every numeric routine in this package receives an explicit mpmath context
instead of relying on the global ``mpmath.mp`` state.  :func:`context`
clones ``mpmath.mp`` once per precision and hands every caller at that
precision the same clone, so computations at different precisions never
interfere.  The shared contexts are read-only: nothing may set their
``dps``, ``prec`` or rounding (``ctx.workdps`` and the like included), and
nothing in this package does.  Kept to that rule they are safe under
concurrent readers.

Working precision policy: computations targeting ``D`` reported digits run
at ``D + GUARD_DIGITS`` internal digits.  Certification of the reported
digits is done separately, by recomputing with the series truncation order
halved and counting agreement digits (see :func:`certified_fixed`).

Everything between the exponents of ``zeta`` and the reported values runs
on fixed-point integers: a real ``y`` is held as ``floor(y 2^w)`` with
``w = ctx.prec + FIXED_GUARD_BITS`` (:func:`fixed_bits`), or a few more
bits inside one step.  That covers the three split sweeps of scaled Taylor
shifts over the exponents, the solution of the functional equation at
``x^2`` and ``x^3``, Newton on the short Taylor models they give, their
Taylor shift and short exponential, the singular coefficients ``t`` and
the linear forms that give ``tau``.  mpf appears at the edges only: the
logarithms of :func:`fixed_log`, and :func:`from_fixed` where ``rho``,
``t`` and ``tau`` are stored in the result records.  The digit counts are
exact integer comparisons too: :func:`certified_fixed` reads them off the
rounded mantissas and exponents of two fixed-point values, by the same rule
as :func:`agreement_digits` on two mpf values, without building an mpf.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp

#: Extra digits carried internally beyond the requested target precision.
GUARD_DIGITS = 15

#: Bits carried beyond ``ctx.prec`` by the fixed-point pipeline.  Flooring
#: an exponent's coefficients moves coefficient ``j`` of its Taylor shift
#: to ``0 <= y < 1`` by at most ``1 / (1 - y)^(j + 1)`` units of ``2^-w``,
#: and the scaled sweep (:func:`treeasym.series.series_taylor_split`) adds
#: 2 units.  For ``H4`` at ``x <= 0.4`` and ``j <= 41`` (an order-40
#: expansion) that is below ``2^31``, so the first part of the solver's
#: model of ``log zeta`` stays within ``2^-(ctx.prec + 9)``; for ``h`` at
#: ``x^2 <= 0.16`` it is below ``2^11``.  The parts ``T(z^2)/2`` and
#: ``T(z^3)/3`` carry a relative error instead: the Newton root for ``T~``
#: is within a quarter unit, and the recurrence for its Taylor coefficients
#: and their composition with ``(x+d)^i`` floor once per sum of products.
#: Against the same integers at 200 more bits they hold every coefficient
#: to 271 units of ``2^-w`` relative or better, over the three varieties up
#: to order 84 (``L = 80``): within ``2^-(ctx.prec + 31)`` relative.  The
#: ``MODEL_EXTRA = 3`` orders the sweeps keep beyond the ``r + 1`` they
#: report (:mod:`treeasym.solver`) enter those only times powers of the
#: step ``|y| <= 2^-b`` to the root; the Taylor shift by ``y`` and Newton
#: on the short model add a few units more.
FIXED_GUARD_BITS = 40

#: Smallest target precision supported by the expansion pipeline.
MIN_DIGITS = 30


@lru_cache(maxsize=None)
def context(digits: int):
    """The shared mpmath context with ``digits`` decimal digits; read-only.

    One clone of ``mpmath.mp`` per precision, made on the first call and
    returned to every later one: a clone costs a fraction of a millisecond,
    and its first operations more while its mpf classes warm up.  Each
    cached context holds about 42 KB for the life of the process.  Callers
    must not change its precision or rounding.
    """
    if digits < 1:
        raise ValueError(f"precision must be positive, got {digits}")
    ctx = mpmath.mp.clone()
    ctx.dps = digits
    return ctx


def working_context(digits: int):
    """Context used internally for a computation reported at ``digits``."""
    return context(digits + GUARD_DIGITS)


def fixed_bits(ctx) -> int:
    """Fraction bits ``w`` of the fixed-point numbers used at the precision of ``ctx``."""
    return ctx.prec + FIXED_GUARD_BITS


def to_fixed(x, w: int, ctx) -> int:
    """``floor(x 2^w)`` for a real ``x``, exact for an mpf of ``ctx``."""
    return libmp.to_int(ctx.ldexp(convert(x, ctx), w)._mpf_, "f")


def from_fixed(v: int, w: int, ctx):
    """The fixed-point integer ``v`` read back as ``v 2^-w``, rounded to nearest in ``ctx``."""
    return ctx.make_mpf(libmp.from_man_exp(v, -w, ctx.prec, "n"))


def fixed_log(v: int, w: int) -> int:
    """``floor(log(v 2^-w) 2^w)``, within one unit, for a fixed-point ``v > 0``."""
    y = libmp.mpf_log(libmp.from_man_exp(v, -w), w + 16)
    return libmp.to_int(libmp.mpf_shift(y, w), "f")


def agreement_digits(a, b, ctx) -> int:
    """Number of leading decimal digits on which ``a`` and ``b`` agree.

    The largest ``k <= ctx.dps`` with ``|a - b| 10^k <= max(|a|, |b|)``, or
    0 if there is none, counted exactly on the integer mantissas and
    exponents of the two values converted to ``ctx``; no logarithm decides a
    boundary case.  Used to certify results recomputed at two different
    truncation orders: the agreement count is a practical lower bound on the
    correct digits.  Capped at ``ctx.dps`` (beyond that the comparison itself
    is meaningless).
    """
    return _agreement(ctx.convert(a)._mpf_, ctx.convert(b)._mpf_, ctx.dps)


def _agreement(a: tuple, b: tuple, dps: int) -> int:
    """:func:`agreement_digits` of raw mpf tuples ``(sign, man, exp, bc)``, capped at ``dps``."""
    (sa, ma, ea, _), (sb, mb, eb, _) = a, b
    e = min(ea, eb)
    x = (-ma if sa else ma) << (ea - e)
    y = (-mb if sb else mb) << (eb - e)
    if x == y:
        return dps
    q = max(abs(x), abs(y)) // abs(x - y)  # 10^k <= q exactly when k qualifies
    if q >= 10**dps:
        return dps
    return len(str(q)) - 1 if q else 0


def certified_fixed(value: int, check: int, w: int, D: int, ctx) -> int:
    """Digits of ``value`` certified by ``check``, its recomputation at order ``N//2``.

    Both are fixed-point at ``w``.  The count is ``min(agreement_digits(a,
    b, ctx), D)`` for ``a``, ``b`` the two read back by :func:`from_fixed`:
    the rule runs on the same rounded ``(sign, man, exp)`` tuples, but builds
    no mpf.  The pipeline certifies ``rho``, every ``t_n`` and every
    ``tau_l`` by this rule.
    """
    a, b = (libmp.from_man_exp(v, -w, ctx.prec, "n") for v in (value, check))
    return min(_agreement(a, b, ctx.dps), D)


def to_decimal(x, digits: int, ctx) -> str:
    """Round-trippable decimal string of ``x`` with ``digits`` significant digits."""
    return ctx.nstr(ctx.convert(x), max(1, digits))


def convert(x, ctx):
    """Convert ints, Fractions, strings or foreign mpf values into ``ctx``."""
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.convert(x)

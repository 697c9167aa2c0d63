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
at ``D + GUARD_DIGITS`` internal digits and are certified by their agreement
with a recomputation at count reach ``N//2`` (:func:`read_certified`).
Where ``N//2 >= n_read``, the reach the solver reads, both read the same
counts and sweeps: the count is ``D`` by construction and rests on the
visible-reach bound ``T_d <= rho_lo^-d`` (:mod:`treeasym.solver`).

Everything between the exponents of ``zeta`` and the reported values runs
on fixed-point integers: a real ``y`` is held as ``floor(y 2^w)`` with
``w = ctx.prec + FIXED_GUARD_BITS`` (:func:`fixed_bits`), or more bits
inside one step.  That covers the three split sweeps of scaled Taylor
shifts over the exponents, the solution of the functional equation at
``x^2`` and ``x^3``, Newton on the short Taylor models they give in the
scaled variable ``d/x``, their Taylor shift and short exponential, the
singular coefficients ``t`` and the linear forms that give ``tau``.  mpf
appears at the edges only: the logarithms of :func:`fixed_log`, and
:func:`read_certified` where ``rho``, ``t`` and ``tau`` are stored in the
result records.

A solve takes each logarithm once.  The solver keeps the values of
:func:`fixed_log` in a memo keyed by argument and width that lives for one
solve and no longer, so the model at count reach ``N`` and its ``N//2``
check read ``log x`` and the logarithm at the start of each Newton for
``T~`` once; a logarithm of 1 is 0 and is not taken.  Within that Newton
``log v`` is read as ``log v0 + log1p((v - v0)/v0)`` from the start ``v0``,
the second term by the short integer series of :func:`fixed_log1p`.  Each
reported value is rounded once: :func:`read_certified` gives its mpf and
its certified digit count from one rounding of the value and, unless the
two are equal, one of its check, with the exact integer rule of
:func:`agreement_digits` on the rounded mantissas and exponents.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp

#: Extra digits carried internally beyond the requested target precision.
GUARD_DIGITS = 15

#: Bits carried beyond ``ctx.prec`` by the fixed-point pipeline.  The models
#: of ``log zeta`` are kept in the scaled variable ``u = d/x``.  Flooring an
#: exponent's coefficients moves coefficient ``j`` of its scaled Taylor shift
#: to ``0 <= y < 1``, ``y^j f^(j)(y) / j!``, by at most
#: ``y^j / (1 - y)^(j + 1)`` units of ``2^-w``, and the scaled sweep
#: (:func:`treeasym.series.series_taylor_split`) adds 2 units.  For ``H4`` at
#: ``x <= 0.4`` that is below ``1 / (1 - x) <= 1.7`` units at every order,
#: since ``x / (1 - x) <= 2/3``, so the first part of the solver's model stays
#: within 4 units; for ``h`` at ``x^2 <= 0.16`` the flooring adds below 1.2
#: units.  The parts ``T(z^2)/2`` and ``T(z^3)/3`` run ``COMPOSE_BITS (R+1)``
#: bits wider (:mod:`treeasym.solver`) and are floored to ``w`` once.  Against
#: the same integers at 400 more bits every coefficient of each part is
#: within 2 units of ``2^-w``, over the three varieties up to order 503
#: (``L = 499``).  The ``MODEL_EXTRA = 3`` orders the sweeps keep beyond the
#: ``r + 1`` they report enter those only times powers of the step
#: ``|u| <= 2^-b`` to the root; the Taylor shift by ``u``, its rescaling to
#: ``d/rho`` and Newton on the short model add a few units more.
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


def fixed_log1p(t: int, w: int) -> int:
    """``floor(log(1 + t 2^-w) 2^w)``, within one unit, for ``|t| < 2^(w-30)``.

    The series ``sum_k (-1)^(k+1) y^k / k`` in integers at ``w + 16`` bits,
    on ``|y|`` so that every power and quotient floors towards zero: with
    ``|y| < 2^-30`` it stops after at most ``w / 30 + 2`` terms, each off by
    less than 2 units of ``2^-(w+16)``, so for ``w < 10^5`` the sum is off
    by less than half a unit of ``2^-w`` before the last floor.
    """
    g, a = w + 16, abs(t) << 16
    total, power, k = 0, a, 1
    while power:
        term = power // k
        total += term if t > 0 and k % 2 else -term
        power = power * a >> g
        k += 1
    return total >> 16


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


def read_certified(value: int, check: int, w: int, D: int, ctx) -> tuple:
    """``(mpf, digits)``: ``value`` read back in ``ctx`` and its digits certified by ``check``.

    ``check`` is the recomputation of ``value`` at order ``N//2``; both are
    fixed-point at ``w``.  The mpf is :func:`from_fixed` ``(value, w, ctx)``
    and the count ``min(agreement_digits(a, b, ctx), D)`` for ``a``, ``b``
    the two read back that way; the rule runs on the same rounded
    ``(sign, man, exp)`` tuples, and ``value`` is rounded once for both.
    Equal integers give ``min(ctx.dps, D)``, the pipeline's ``D``, without
    rounding ``check``.  The pipeline reports ``rho``, every ``t_n`` and
    every ``tau_l`` through this one function.
    """
    a = libmp.from_man_exp(value, -w, ctx.prec, "n")
    if value == check:
        return ctx.make_mpf(a), min(ctx.dps, D)
    b = libmp.from_man_exp(check, -w, ctx.prec, "n")
    return ctx.make_mpf(a), min(_agreement(a, b, ctx.dps), D)


def to_decimal(x, digits: int, ctx) -> str:
    """Round-trippable decimal string of ``x`` with ``digits`` significant digits."""
    return ctx.nstr(ctx.convert(x), max(1, digits))


def convert(x, ctx):
    """Convert ints, Fractions, strings or foreign mpf values into ``ctx``."""
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.convert(x)

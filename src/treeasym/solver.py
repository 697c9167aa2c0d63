"""Dominant-singularity solver.

At the dominant singularity ``rho`` of a variety in this framework the tree
function reaches the value 1 and the perturbation factor satisfies
``zeta(rho) = 1/e`` (the characteristic point of ``C = z*exp(C)`` transported
through the functional equation).  That collapses the two-equation
characteristic system to a single root-finding problem in ``rho``.  It is
solved in log form, ``log zeta(x) + 1 = h(x) + a log x + log c + 1 = 0``
with ``h = log(zeta / (c x^a))`` the exponent polynomial of degree ``2N``
(:func:`treeasym.varieties.zeta_exponent`), held as fixed-point integers
(:func:`treeasym.varieties.numeric_exponent`).

Every solve takes the same steps (:func:`solve_models`):

1. A start point.  Bisection on Python floats over the exponent's prefix of
   count reach ``BRACKET_REACH`` to a ``10**-3`` bracket, float Newton on a
   short prefix to about ``FLOAT_BITS`` bits, then, when the bound of
   :func:`_start_bits` asks for more, integer Newton steps at doubling
   precision, each on the prefix whose count reach matches its bits.
2. One split sweep: the scaled Taylor shift to order ``r + MODEL_EXTRA``
   over the exponent (:func:`treeasym.series.series_taylor_split`) gives the
   short Taylor models of ``log zeta`` at that point for the whole exponent
   and for its ``N//2`` prefix (:func:`treeasym.varieties.log_zeta_taylor`).
3. Integer Newton on each short model to a ``10**-(D+5)`` step, then a
   Taylor shift of the model to its root in ``O(r^2)`` operations.  A model
   whose root lies further than ``2^-b`` from the sweep point is swept
   again there.

No step runs at the full working precision over all ``2N+1`` coefficients
except the one sweep.  :func:`solve_exponent` is the one front end: it
builds the exponent, solves at truncation order ``N`` and at ``N//2`` from
the same sweep, and reports their agreement through
:func:`treeasym.hp.certified_fixed`.  :func:`solve_rho` returns its
:class:`RhoResult`; :func:`treeasym.expansions.expand_variety` reads the
models too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import hp
from .counts import CountSequence
from .errors import NoBracketError, StalledError
from .records import Record
from .series import series_taylor, series_taylor_split
from .varieties import VarietySpec, log_zeta_taylor, numeric_exponent

# Not called here; the benchmark traces both names in this module (perfbench/layers.py).
from .series import series_eval_deriv_tail  # noqa: F401
from .varieties import zeta_series  # noqa: F401

# Not raised here; re-exported so ``solver.SolverError`` still names their base class.
from .errors import SolverError  # noqa: F401

#: Default bracketing interval; all three shipped varieties have their
#: singularity well inside it and their zeta is increasing across it.
DEFAULT_BRACKET = (Fraction(1, 20), Fraction(3, 5))

MIN_SERIES_ORDER = 50

MAX_NEWTON = 80

#: Count reach of the exponent prefix that the bracket phase bisects on; its
#: truncation error at ``rho`` (about ``rho^25``, below ``1e-9``) moves the
#: root far less than the ``10**-3`` bisection width.
BRACKET_REACH = 25

#: Bits of the root that float Newton reaches: the float residual rounds at
#: a few units of ``2^-53`` of its terms, whose sizes sum to at most 2.2, and
#: its slope at the root is at least 0.95 (hierarchy).  The three varieties
#: measure 54-56 bits.
FLOAT_BITS = 50

#: Orders the short model keeps beyond the ``r`` that the caller needs
#: (see :func:`_start_bits`).
MODEL_EXTRA = 3

#: The exponent of degree ``2n`` is accurate to about ``rho^n`` at ``rho``, so
#: ``b`` bits of the root need count reach ``b / log2(1/rho)``, plus this.
REACH_MARGIN = 8

#: Bits per order by which the Taylor coefficients of ``log zeta`` at
#: ``rho`` grow: ``h`` converges for ``|z| < sqrt(rho)``, so its coefficients
#: grow like ``(sqrt(rho) - rho)^-j``, and that distance is 0.243, 0.233 and
#: 0.249 for polya, identity and hierarchy; the log terms ``a / (k x^k)`` grow
#: slower.
GROWTH_BITS = 2.11


class RhoResult(Record):
    """Solved singularity with provenance and certification metadata.

    ``iterations`` counts the integer Newton iterations on the short Taylor
    model of the order-``N`` exponent, summed over its sweeps; the float
    and precision-graded steps that place the start point are not counted.
    """

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
    return solve_exponent(spec, counts, N, D, 0, bracket, max_newton)[0]


def solve_exponent(spec: VarietySpec, counts: CountSequence, N: int, D: int, r: int,
                   bracket=DEFAULT_BRACKET, max_newton: int = MAX_NEWTON) -> tuple:
    """``(RhoResult, h, models)``: the certified root, the exponent and its Taylor models.

    Checks the inputs as :func:`solve_rho` states, builds the fixed-point
    exponent ``h`` of degree ``2N`` at the working precision of ``D`` and
    runs :func:`solve_models` to order ``r`` at the cut :func:`half_cut`
    ``(N)``; ``models`` is its ``[(x, L), (x_check, L_check)]``.
    """
    check_series_inputs(counts, N, D)
    ctx = hp.working_context(D)
    w = hp.fixed_bits(ctx)
    h = numeric_exponent(spec, counts, N, ctx)
    models, iterations = solve_models(spec, h, half_cut(N), r, ctx, D, bracket, max_newton)
    (x, _), (x_check, _) = models
    result = RhoResult(
        variety=spec.name,
        rho=hp.from_fixed(x, w, ctx),
        certified_digits=hp.certified_fixed(x, x_check, w, D, ctx),
        n_used=N,
        iterations=iterations,
        digits=D,
        ctx=ctx,
    )
    return result, h, models


def check_series_inputs(counts: CountSequence, N: int, D: int) -> None:
    """Reject a series order, target precision or count reach the solver cannot use."""
    if N < MIN_SERIES_ORDER:
        raise ValueError(f"series order {N} too small, need >= {MIN_SERIES_ORDER}")
    if D < hp.MIN_DIGITS:
        raise ValueError(f"target digits {D} too small, need >= {hp.MIN_DIGITS}")
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")


def half_cut(N: int) -> int:
    """Length ``2(N//2) + 1`` of the exponent prefix that certifies order ``N``."""
    return 2 * (N // 2) + 1


def _start_bits(prec: int, r: int) -> int:
    """Bits ``b`` to which the start point must hold the root before the sweep.

    The model keeps the Taylor coefficients of ``log zeta`` at ``x`` to
    order ``R = r + e``, ``e = MODEL_EXTRA``; they grow by at most
    ``g = GROWTH_BITS`` bits per order.  Shifting the model to the root,
    ``|y| <= 2^-b`` away, leaves coefficient ``j <= r`` short by the omitted
    orders, about ``C(R+1, j) 2^(g (R+1)) |y|^(R+1-j)``, most at ``j = r``.
    Rounding the root to the working precision ``prec`` already moves
    coefficient ``j`` by about ``2^(g (j+1) - prec)``.  The truncation stays
    below that for every ``j <= r`` when
    ``(e + 1) b >= prec + g e + log2 C(R+1, r)``.  With ``e = 3`` that is
    about ``prec / 4`` bits: at ``D = 40`` (``prec = 186``) 49 bits for
    ``r = 0``, which the float start holds, and 51 for ``r = 9``, one
    doubling step; at ``D = 200`` two doubling steps.  A larger ``e`` adds
    a pass of additions over the ``2N+1`` scaled terms to the sweep, and
    widens its guard, to save only these short steps.
    """
    R = r + MODEL_EXTRA
    return math.ceil(
        (prec + GROWTH_BITS * MODEL_EXTRA + math.log2(math.comb(R + 1, r))) / (MODEL_EXTRA + 1)
    )


def solve_models(spec: VarietySpec, h: tuple, cut: int, r: int, ctx, D, bracket=DEFAULT_BRACKET,
                 max_newton=MAX_NEWTON):
    """Roots and Taylor models of ``log zeta`` for ``h`` and for its prefix ``h[:cut]``.

    Returns ``(models, iterations)``.  ``models`` holds ``(x, L)`` for ``h``
    and for ``h[:cut]``, ``cut < len(h)``: the root ``x`` and the Taylor
    coefficients ``L_0 .. L_r`` of ``log zeta`` there, fixed-point at
    ``w = hp.fixed_bits(ctx)``.  ``iterations`` counts the model Newton
    iterations of ``h``'s root.  Both come from one split sweep at a common
    start point (see the module docstring).
    """
    w = hp.fixed_bits(ctx)
    lo, hi = (math.floor(Fraction(end) * 2**w) for end in bracket)
    b = _start_bits(ctx.prec, r)
    R = r + MODEL_EXTRA
    low = h[:cut]
    x = _start_point(spec, low, (lo, hi), w, b)
    sweeps = series_taylor_split(h, cut, x, R, w)
    tolerance = (1 << w) // 10 ** (D + 5)
    models, newton = [], []
    for exponent, taylor in zip((h, low), sweeps):
        at, iterations = x, 0
        while True:
            L = log_zeta_taylor(spec, taylor, at, w)
            y, iterations = _model_root(spec, L, at, w, tolerance, iterations, max_newton, (lo, hi))
            if abs(y) <= 1 << (w - b):
                break
            at += y  # too far for the model: sweep again at its root
            taylor = series_taylor(exponent, at, R, w)
        models.append((at + y, series_taylor(L, y, r, w)))
        newton.append(iterations)
    return models, newton[0]


def _start_point(spec: VarietySpec, h: tuple, bracket, w: int, b: int) -> int:
    """A fixed-point start within about ``2^-b`` of the root of the exponent ``h``.

    Float bisection (:func:`_bracket`) and float Newton, then integer Newton
    steps that double the bits, each at a width of its bits plus 16 guard
    bits and on the prefix whose count reach matches them.
    """
    x = _bracket(spec, h, w, bracket)
    coarse = [_float(c, w) for c in h[: 2 * _reach(FLOAT_BITS, x, h) + 1]]
    for _ in range(8):
        value, slope = _float_residual(spec, coarse, x)
        x -= value / slope
        if not _float(bracket[0], w) <= x <= _float(bracket[1], w):
            raise StalledError(f"{spec.name}: Newton left the bracket at {x:.12g}")
        if abs(value / slope) < 2.0 ** -FLOAT_BITS:
            break
    X = math.floor(math.ldexp(x, 64)) << (w - 64)
    bits = FLOAT_BITS
    while bits < b:
        bits *= 2
        shift = max(0, w - bits - 16)
        prefix = [c >> shift for c in h[: 2 * _reach(bits, x, h) + 1]]
        part, width = X >> shift, w - shift
        model = log_zeta_taylor(spec, series_taylor(prefix, part, 1, width), part, width)
        X = (part - _newton_step(spec, model, part, 0, width)) << shift
    return X


def _reach(bits: int, x: float, h: tuple) -> int:
    """Count reach of the prefix of ``h`` that holds the root to about ``bits`` bits."""
    return min(math.ceil(bits / -math.log2(x)) + REACH_MARGIN, (len(h) - 1) // 2)


def _float(v: int, w: int) -> float:
    """The fixed-point ``v`` as the nearest float (exact division, no overflow for large ``w``)."""
    return v / (1 << w)


def _float_residual(spec: VarietySpec, coarse: list, x: float) -> tuple:
    """``log zeta(x) + 1`` and its slope in floats, from the float exponent ``coarse``."""
    value = slope = 0.0
    for c in reversed(coarse):
        slope = slope * x + value
        value = value * x + c
    a = spec.z_exponent
    return value + a * math.log(x) + math.log(spec.prefactor) + 1, slope + a / x


def _bracket(spec: VarietySpec, h: tuple, w: int, bracket) -> float:
    """Midpoint of a ``10**-3`` bracket of the root, bisected in floats on a short prefix of ``h``.

    Raises :class:`NoBracketError` when the residual has no sign change on the bracket.
    """
    coarse = [_float(c, w) for c in h[: 2 * BRACKET_REACH + 1]]

    def residual(x):
        return _float_residual(spec, coarse, x)[0]

    lo, hi = (_float(end, w) for end in bracket)
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0 or f_hi == 0:
        return lo if f_lo == 0 else hi
    if (f_lo < 0) == (f_hi < 0):
        raise NoBracketError(
            f"{spec.name}: no sign change of log(zeta) + 1 on [{lo:.6g}, {hi:.6g}]"
            f" (endpoint residuals {f_lo:.6g}, {f_hi:.6g})"
        )
    # bisect to ~3 digits; Newton converges quadratically from there
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2
        f_mid = residual(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _model_root(spec: VarietySpec, L: list, x: int, w: int, tolerance: int, done: int,
                max_newton: int, bracket) -> tuple:
    """Root ``y`` of the short model ``sum L_k y^k + 1`` by integer Newton from ``y = 0``.

    Returns ``y`` and the iteration count, which starts at ``done``; Newton
    stops at a step below ``tolerance``.
    """
    y, steps = 0, []
    for iteration in range(done + 1, max_newton + 1):
        step = _newton_step(spec, L, x, y, w)
        y -= step
        steps.append(abs(step))
        if abs(step) < tolerance:
            return y, iteration
        if not bracket[0] <= x + y <= bracket[1]:
            raise StalledError(f"{spec.name}: Newton left the bracket at {_float(x + y, w):.12g}")
    raise StalledError(
        f"{spec.name}: Newton not contracting after {max_newton} iterations; "
        f"last steps {[f'{_float(s, w):.3g}' for s in steps[-3:]]} vs tolerance "
        f"{_float(tolerance, w):.3g} (truncation order likely too small)"
    )


def _newton_step(spec: VarietySpec, L: list, x: int, y: int, w: int) -> int:
    """Newton step of ``sum L_k y^k + 1`` at ``y``; value and slope from one Horner pass."""
    value, slope = L[-1], 0
    for c in reversed(L[:-1]):
        slope = value + (slope * y >> w)
        value = c + (value * y >> w)
    if slope == 0:
        raise StalledError(f"{spec.name}: zero derivative at {_float(x + y, w):.12g}")
    return ((value + (1 << w)) << w) // slope

"""Dominant-singularity solver.

At the dominant singularity ``rho`` of a variety in this framework the tree
function reaches the value 1 and the perturbation factor satisfies
``zeta(rho) = 1/e`` (the characteristic point of ``C = z*exp(C)`` transported
through the functional equation).  That collapses the two-equation
characteristic system to a single root-finding problem in ``rho``, solved
in log form, ``log zeta(x) + 1 = 0``, on a split model of

    log zeta = log c + a log z + [sigma (1-z)/2 + sum_{i>=4} eps_i T(z^i)/i]
               + eps_2 T(z^2)/2 + eps_3 T(z^3)/3.

The bracket is ``H4``, a polynomial of degree ``4N`` exact from counts to
``N``; its truncation error at ``rho`` is about ``rho^(3N)``.  The two
leading terms are not summed from the counts, where they would converge
only like ``rho^N``.  At ``y0 = x^2`` and ``x^3``, deep inside the disc of
``T``, ``T~ = T - sigma (1-y)/2`` is the root ``u < 1`` of
``log u - u = log zeta(y0)``, where the Cayley map is a contraction, and
``log zeta(y0)`` comes from the exponent ``h`` of degree ``2N`` (all
``i >= 2``), accurate there to about ``rho^(3N)`` (Otter 1948; Flajolet and
Sedgewick, Analytic Combinatorics, VII.5).  Both exponents are fixed-point
integers (:func:`treeasym.varieties.numeric_exponent`).

Every solve takes the same steps (:func:`solve_models`):

1. A start point.  Bisection on Python floats over the prefix of ``h`` of
   count reach ``BRACKET_REACH`` to a ``10**-3`` bracket, float Newton on a
   short prefix to about ``FLOAT_BITS`` bits, then, when the bound of
   :func:`_start_bits` asks for more, integer Newton steps at doubling
   precision, each on the prefix whose count reach matches its bits.
2. Three split sweeps, the scaled Taylor shift to order
   ``R = r + MODEL_EXTRA`` (:func:`treeasym.series.series_taylor_split`):
   ``H4`` at that point ``x``, and ``h`` at ``x^2`` and at ``x^3``, each for
   the whole exponent and for its prefix of count reach ``N//2``.
3. From each triple the short Taylor model of ``log zeta`` at ``x``
   (:func:`_log_zeta_part`): integer Newton for ``T~(x^i)``, the ``O(R^2)``
   recurrence on the functional equation for the Taylor coefficients of
   ``T`` at ``x^i``, and their composition with ``(x+d)^i``.  A part whose
   sweep the check shares with the whole is built once.
4. Integer Newton on each short model to a ``10**-(D+5)`` step, then a
   Taylor shift of the model to its root in ``O(r^2)`` operations.  A model
   whose root lies further than ``2^-b`` from the sweep point is swept
   again there.

No step runs at the full working precision over more than ``R+1``
coefficients except the three sweeps.  :func:`solve_exponent` is the one
front end: it builds the exponents, solves at count reach ``N`` and at
``N//2`` from the same sweeps, and reports their agreement through
:func:`treeasym.hp.certified_fixed`.  :func:`solve_rho` returns its
:class:`RhoResult`; :func:`treeasym.expansions.expand_variety` reads the
models too.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

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

#: Bracketing interval, read at each solve; all three shipped varieties have
#: their singularity well inside it and their zeta is increasing across it.
DEFAULT_BRACKET = (Fraction(1, 20), Fraction(3, 5))

MIN_SERIES_ORDER = 50

MAX_NEWTON = 80

#: Float Newton steps towards the root of :func:`_cayley_root`; from
#: ``exp(c0)``, which is off by ``1 - exp(-T~)`` relative, six reach float
#: precision for ``T~ <= 0.6`` (hierarchy at ``rho^2``: 0.55).
CAYLEY_FLOAT_STEPS = 6

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
    model of count reach ``N``, summed over its sweeps; the float and
    precision-graded steps that place the start point, and the Newton steps
    for ``T~(x^2)`` and ``T~(x^3)``, are not counted.
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


def solve_rho(spec: VarietySpec, counts: CountSequence, N: int, D: int) -> RhoResult:
    """Solve ``zeta(rho) = exp(-1)`` to ``D`` target digits, certified at ``N//2``.

    ``counts`` must be ``spec``'s, cover indices up to ``N``, and ``N`` must
    be at least ``MIN_SERIES_ORDER``.  Raises :class:`NoBracketError` when
    no sign change exists on ``DEFAULT_BRACKET`` and :class:`StalledError`
    when Newton fails to reach the ``10**-(D+5)`` step tolerance within
    ``MAX_NEWTON`` iterations.
    """
    return solve_exponent(spec, counts, N, D, 0)[0]


def solve_exponent(spec: VarietySpec, counts: CountSequence, N: int, D: int, r: int) -> tuple:
    """``(RhoResult, exponents, models)``: the certified root, the exponents and the Taylor models.

    Checks the inputs as :func:`solve_rho` states, builds the fixed-point
    exponents ``(h, H4)`` of :func:`treeasym.varieties.numeric_exponent`
    at the working precision of ``D`` and runs :func:`solve_models` to
    order ``r``, with count reach ``N//2`` as the check; ``models`` is its
    ``[(x, L), (x_check, L_check)]``.
    """
    if counts.variety != spec.name:
        raise ValueError(f"count/variety mismatch: {counts.variety} vs {spec.name}")
    if N < MIN_SERIES_ORDER:
        raise ValueError(f"count reach N={N} too small, need N >= {MIN_SERIES_ORDER}")
    if D < hp.MIN_DIGITS:
        raise ValueError(f"target digits {D} too small, need >= {hp.MIN_DIGITS}")
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")
    ctx = hp.working_context(D)
    w = hp.fixed_bits(ctx)
    exponents = numeric_exponent(spec, counts, N, ctx)
    models, iterations = solve_models(spec, exponents, N // 2, r, ctx, D)
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
    return result, exponents, models


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
    a pass of additions over the scaled terms to each sweep, and widens its
    guard, to save only these short steps.
    """
    R = r + MODEL_EXTRA
    return math.ceil(
        (prec + GROWTH_BITS * MODEL_EXTRA + math.log2(math.comb(R + 1, r))) / (MODEL_EXTRA + 1)
    )


def solve_models(spec: VarietySpec, exponents: tuple, half: int, r: int, ctx, D):
    """Roots and Taylor models of ``log zeta`` at count reach ``N`` and at ``half = N//2``.

    ``exponents`` is ``(h, H4)`` of count reach ``N``
    (:func:`treeasym.varieties.numeric_exponent`).  Returns ``(models,
    iterations)``.  ``models`` holds ``(x, L)`` for reach ``N`` and for
    ``half``: the root ``x`` and the Taylor coefficients ``L_0 .. L_r`` of
    ``log zeta`` there, fixed-point at ``w = hp.fixed_bits(ctx)``.
    ``iterations`` counts the model Newton iterations of the first root.
    Both come from three split sweeps at a common start point (see the
    module docstring), bracketed by ``DEFAULT_BRACKET``; the check cuts
    ``H4`` at degree ``4 half`` and ``h`` at ``2 half``.
    """
    h, H4 = exponents
    w = hp.fixed_bits(ctx)
    lo, hi = (math.floor(Fraction(end) * 2**w) for end in DEFAULT_BRACKET)
    b = _start_bits(ctx.prec, r)
    R = r + MODEL_EXTRA
    parts = ((H4, 4 * half + 1), (h, 2 * half + 1), (h, 2 * half + 1))
    x = _start_point(spec, h[: 2 * half + 1], (lo, hi), w, b)
    sweeps = [series_taylor_split(c, cut, x**i >> (i - 1) * w, R, w)
              for i, (c, cut) in enumerate(parts, 1)]
    tolerance = (1 << w) // 10 ** (D + 5)
    # a sweep that the check shares with the whole gives its part of the model once
    part = lru_cache(maxsize=None)(lambda i, taylor, at: _log_zeta_part(spec, i, taylor, at, w))
    models, newton = [], []
    blocks = ([c for c, _ in parts], [c[:cut] for c, cut in parts])  # whole, check
    for taylors, block in zip(zip(*sweeps), blocks):
        at, iterations = x, 0
        while True:
            L = list(map(sum, zip(*(part(i, t, at) for i, t in enumerate(taylors, 1)))))
            y, iterations = _model_root(spec, L, at, w, tolerance, iterations, (lo, hi))
            if abs(y) <= 1 << (w - b):
                break
            at += y  # too far for the model: sweep again at its root
            taylors = [series_taylor(c, at**i >> (i - 1) * w, R, w)
                       for i, c in enumerate(block, 1)]
        models.append((at + y, series_taylor(L, y, r, w)))
        newton.append(iterations)
    return models, newton[0]


def _log_zeta_part(spec: VarietySpec, i: int, taylor: tuple, x: int, w: int) -> list:
    """Taylor coefficients at ``x`` of part ``i`` of ``log zeta``, from a sweep at ``x^i``.

    ``log zeta = [log c + a log z + H4] + eps_2 T(z^2)/2 + eps_3 T(z^3)/3``.
    Part 1, in brackets, is :func:`treeasym.varieties.log_zeta_taylor` on
    the sweep of ``H4`` at ``x``.  Parts 2 and 3 take the Taylor
    coefficients of ``T`` at ``y0 = x^i`` from the sweep of ``h`` there
    (:func:`_tree_taylor`), then those of ``T((x+d)^i)`` in ``d``
    (:func:`_compose_power`).  All fixed-point at ``w``, to the order of
    ``taylor``.
    """
    if i == 1:
        return log_zeta_taylor(spec, taylor, x, w)
    T = _tree_taylor(spec, taylor, x**i >> (i - 1) * w, w)
    eps = spec.eps(i)
    return [eps * c // i for c in _compose_power(T, x, i, w)]


def _tree_taylor(spec: VarietySpec, taylor: tuple, y0: int, w: int) -> list:
    """The Taylor coefficients of ``T`` at ``0 < y0 < rho`` from those of ``h``.

    ``T~ = y^a v`` and ``log T~ - T~ = log zeta = log c + a log y + h``
    give ``log v - y^a v = log c + h``; :func:`_cayley_root` solves it at
    ``y0`` for the root with ``T~ < 1``.  The derivative
    ``v' (1 - T~) = v (h' + a v)`` holds no
    ``1/y``, whose Taylor coefficients at a small ``y0`` grow like
    ``y0^-k``; it gives ``v_(k+1)`` from ``v_0 .. v_k`` by one division,
    ``O(R^2)`` products in all.  ``T = T~ + sigma (1 - y)/2``.  All
    fixed-point at ``w``, to the order of ``taylor``.
    """
    one, a, c = 1 << w, spec.z_exponent, spec.prefactor
    v = [_cayley_root(taylor[0] + hp.fixed_log((c.numerator << w) // c.denominator, w),
                      y0 if a else one, w)]
    u = [y0 * v[0] >> w if a else v[0]]  # T~ = y^a v
    dh = [k * g for k, g in enumerate(taylor) if k]  # h'
    dv = []  # v'
    for k in range(len(taylor) - 1):
        total = (sum(map(operator.mul, dv, reversed(u[1:])))
                 + sum(map(operator.mul, v, reversed(dh[: k + 1]))))
        if a:
            total += sum(map(operator.mul, v, reversed(v)))
        dv.append(total // (one - u[0]))
        v.append(dv[-1] // (k + 1))
        u.append((y0 * v[-1] >> w) + v[-2] if a else v[-1])
    u[0] += spec.shift_sign * (one - y0) >> 1
    if len(u) > 1:
        u[1] -= spec.shift_sign << (w - 1)
    return u


def _cayley_root(c0: int, s: int, w: int) -> int:
    """The root of ``log v - s v = c0`` with ``s v < 1``, by Newton from below.

    Fixed-point at ``w``.  The function is increasing and concave there, so
    Newton from below the root climbs to it without overshooting: float
    Newton from ``exp(c0)``, which lies below, then integer Newton from
    ``2^-40`` (relative) below the float root, each step doubling the bits.
    A step ``d`` leaves an error of at most ``d^2 / (2 v (1 - s v))``; the
    steps stop once that is below a quarter unit.
    """
    one = 1 << w
    value, slope = c0 / one, s / one
    v = math.exp(value)
    for _ in range(CAYLEY_FLOAT_STEPS):
        v -= (math.log(v) - slope * v - value) * v / (1 - slope * v)
    v = math.floor(math.ldexp(v, 64)) << (w - 64)
    v -= v >> 40
    for _ in range(w.bit_length()):
        u = s * v >> w
        step = (c0 + u - hp.fixed_log(v, w)) * v // (one - u)
        v += step
        if step * step << (w + 1) < v * (one - u):
            return v
    raise StalledError(f"Newton for T~ at {_float(s, w):.12g} not contracting after "
                       f"{w.bit_length()} iterations")


def _compose_power(T: list, x: int, i: int, w: int) -> list:
    """Taylor coefficients in ``d`` of ``T((x+d)^i)`` from those of ``T`` at ``x^i``.

    Horner's rule in ``p(d) = (x+d)^i - x^i``, of degree ``i`` with no
    constant term and top coefficient 1: each step multiplies by ``p`` and
    keeps the orders that still reach the result, ``O(i R)`` products run
    in C.  Fixed-point at ``w``.
    """
    *p, _ = (math.comb(i, k) * (x ** (i - k) << w) >> (i - k) * w for k in range(1, i + 1))
    acc = [T[-1]]
    for c in reversed(T[:-1]):
        total = map(operator.mul, acc, repeat(p[0]))
        for k in range(1, i - 1):
            total = map(operator.add, total, map(operator.mul, [0] * k + acc, repeat(p[k])))
        acc = [c, *map(operator.add, map(operator.rshift, total, repeat(w)), [0] * (i - 1) + acc)]
    return acc


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
                bracket) -> tuple:
    """Root ``y`` of the short model ``sum L_k y^k + 1`` by integer Newton from ``y = 0``.

    Returns ``y`` and the iteration count, which starts at ``done``; Newton
    stops at a step below ``tolerance``, and gives up after ``MAX_NEWTON`` in all.
    """
    y, steps = 0, []
    for iteration in range(done + 1, MAX_NEWTON + 1):
        step = _newton_step(spec, L, x, y, w)
        y -= step
        steps.append(abs(step))
        if abs(step) < tolerance:
            return y, iteration
        if not bracket[0] <= x + y <= bracket[1]:
            raise StalledError(f"{spec.name}: Newton left the bracket at {_float(x + y, w):.12g}")
    raise StalledError(
        f"{spec.name}: Newton not contracting after {MAX_NEWTON} iterations; "
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

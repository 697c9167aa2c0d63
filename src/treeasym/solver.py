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

Every solve takes the same steps (:func:`solve_exponent`, then
:func:`solve_models`):

0. The count reach.  Bisection on Python floats over the exponent of count
   reach ``BRACKET_REACH`` to a ``10**-3`` bracket; widened, it bounds
   ``rho`` from below and the sweep points from above, and with
   ``T_d <= rho_lo^-d`` gives the least reach ``n_read <= N`` past which
   the omitted tail of every sweep stays below a quarter unit
   (:func:`_visible_reach`).  The exponents and the counts stop there.
1. A start point.  From the bracket's midpoint, float Newton on a short
   prefix of ``h`` to about ``FLOAT_BITS`` bits, then, when the bound of
   :func:`_start_bits` asks for more, integer Newton steps at doubling
   precision, each on the prefix whose count reach matches its bits.
2. Three split sweeps, the scaled Taylor shift to order
   ``R = r + MODEL_EXTRA`` (:func:`treeasym.series.series_taylor_split`):
   ``H4`` at that point ``x``, and ``h`` at ``x^2`` and at ``x^3``, each for
   the whole exponent and for its prefix of count reach ``N//2``.  Each
   gives its coefficients in its own scaled variable: ``u = d/x`` at ``x``
   and ``s = y/x^i - 1 = (1 + u)^i - 1`` at ``x^i``.
3. From each triple the short Taylor model of ``log zeta`` at ``x`` in
   ``u`` (:func:`_log_zeta_part`): integer Newton for ``T~(x^i)``, the
   ``O(R^2)`` recurrence on the functional equation for the Taylor
   coefficients of ``T`` in ``s``, and their exact composition with the
   integer polynomial ``(1 + u)^i - 1``.  A part whose sweep the check
   shares with the whole is built once.
4. Integer Newton in ``u`` on each short model to a ``10**-(D+5)`` step in
   ``z``, then the model's Taylor shift to its root in ``O(R r)``
   operations, rescaled to ``d/rho``.  A model whose root lies further than
   ``2^-b`` from the sweep point is swept again there.

No step runs at the full working precision over more than ``R+1``
coefficients except the three sweeps.  :func:`solve_exponent` is the one
front end: it finds the count reach, builds the exponents, solves at count
reach ``N`` (read to ``n_read``) and at ``N//2`` from the same sweeps, and
reports the root and their agreement through :func:`treeasym.hp.read_certified`.
Each solve keeps its logarithms in a memo of its own, so the whole and the
check take each one once (:mod:`treeasym.hp`).
:func:`solve_rho` returns its :class:`RhoResult`;
:func:`treeasym.expansions.expand_variety` reads the models too.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat

from . import hp
from .counts import CountSequence
from .errors import NoBracketError, StalledError
from .records import Record
from .series import series_taylor, series_taylor_split
from .varieties import (VarietySpec, float_exponent, log_zeta_taylor, numeric_exponent,
                        tail_bound, tail_reach)

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

#: Count reach of the float exponent that the bracket phase bisects on; its
#: truncation error at ``rho`` (about ``rho^25``, below ``1e-9``) moves the
#: root far less than the ``10**-3`` bisection width.  With the crude bound
#: ``T_d <= 4^d`` the identity tail is still below ``1e-4`` there.
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

#: Guard bits per model order of the parts ``T(z^2)`` and ``T(z^3)``.  Their
#: Taylor coefficients in ``s`` shrink like ``(y0 / (rho - y0))^k``, and the
#: composition with ``(1 + u)^i - 1`` multiplies an error of one unit in
#: each by up to ``[u^k] 1/(2 - (1 + u)^i)``, which grows like
#: ``(2^(1/i) - 1)^-k``: 1.27 and 1.95 bits per order for ``i = 2, 3``.  So
#: the sweeps of ``h`` at ``x^2`` and ``x^3``, the point ``x^i`` and
#: :func:`_tree_taylor` run ``COMPOSE_BITS (R + 1)`` bits wider than ``w``.
#: Against the same integers 400 bits wider, the composed errors at 60
#: digits stay 8-9 bits below ``2^-w`` at ``R = 104`` and 31-58 bits below
#: at ``R = 503`` (``--order 499``, the count reach limit).
COMPOSE_BITS = 2

#: Bits per order by which the Taylor coefficients of ``log zeta`` at
#: ``rho`` grow: ``h`` converges for ``|z| < sqrt(rho)``, so its coefficients
#: grow like ``(sqrt(rho) - rho)^-j``, and that distance is 0.243, 0.233 and
#: 0.249 for polya, identity and hierarchy; the log terms ``a / (k x^k)`` grow
#: slower.  In the solver's variable ``u = d/x`` they grow by ``log2(rho)``
#: bits per order less, but :func:`_start_bits` compares two errors that
#: both carry that factor.
GROWTH_BITS = 2.11


class RhoResult(Record):
    """Solved singularity with provenance and certification metadata.

    ``n_used`` is the count reach ``N`` asked for and ``n_read <= n_used``
    the reach whose counts the exponents read (:func:`solve_exponent`).
    ``iterations`` counts the integer Newton iterations on the short Taylor
    model of count reach ``N``, summed over its sweeps; the float and
    precision-graded steps that place the start point, and the Newton steps
    for ``T~(x^2)`` and ``T~(x^3)``, are not counted.
    """

    variety: str
    rho: object
    certified_digits: int
    n_used: int
    n_read: int
    iterations: int
    digits: int       # target digits requested
    ctx: object

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError(f"rho out of range: {self.rho}")


def solve_rho(spec: VarietySpec, counts: CountSequence, N: int, D: int) -> RhoResult:
    """Solve ``zeta(rho) = exp(-1)`` to ``D`` target digits, certified at ``N//2``.

    ``counts`` must be ``spec``'s, of any reach (:func:`solve_exponent`
    continues them), and ``N`` at least ``MIN_SERIES_ORDER``.  Raises
    :class:`NoBracketError` unless ``log zeta + 1`` rises through 0 on
    ``DEFAULT_BRACKET`` and :class:`StalledError` when Newton fails to
    reach the ``10**-(D+5)`` step tolerance within ``MAX_NEWTON`` iterations.
    """
    return solve_exponent(spec, counts, N, D, 0)[0]


def solve_exponent(spec: VarietySpec, counts: CountSequence | None, N: int, D: int,
                   r: int) -> tuple:
    """``(RhoResult, counts, exponents, models)``: the certified root, what it read, the models.

    Checks ``N`` and ``D`` as :func:`solve_rho` states; ``counts`` may be
    None, and counts of another variety fail before any exponent is built.
    Bisects on the exponent prefix of count reach ``BRACKET_REACH``
    (:func:`_bracket`), bounds the root from it and takes the count reach
    ``n_read = min(N, visible reach)`` of :func:`_visible_reach`: by
    ``T_d <= rho_lo^-d`` (:func:`treeasym.varieties.tail_bound`) counts past
    it move no sweep by a quarter unit.  It extends ``counts`` to ``n_read``
    when they are shorter, builds the fixed-point exponents ``(h, H4)`` of
    :func:`treeasym.varieties.numeric_exponent` there at the working
    precision of ``D`` and runs :func:`solve_models` to order ``r`` with
    count reach ``N//2`` as the check, which reads the same exponents where
    ``N//2 >= n_read``.  ``models`` is ``[(x, L), (x_check, L_check)]``.
    """
    if N < MIN_SERIES_ORDER:
        raise ValueError(f"count reach N={N} too small, need N >= {MIN_SERIES_ORDER}")
    if D < hp.MIN_DIGITS:
        raise ValueError(f"target digits {D} too small, need >= {hp.MIN_DIGITS}")
    ctx = hp.working_context(D)
    w = hp.fixed_bits(ctx)
    if counts is None or counts.n_max < BRACKET_REACH:
        counts = spec.count_source(BRACKET_REACH, counts)
    coarse = float_exponent(spec, counts, BRACKET_REACH)
    bracket = _bracket(spec, coarse)
    n_read = _visible_reach(spec, coarse, bracket, r + MODEL_EXTRA, w, N)
    if counts.n_max < n_read:
        counts = spec.count_source(n_read, counts)
    exponents = numeric_exponent(spec, counts, n_read, ctx)
    models, iterations = solve_models(spec, exponents, N // 2, r, ctx, D, sum(bracket) / 2)
    (x, _), (x_check, _) = models
    rho, certified = hp.read_certified(x, x_check, w, D, ctx)
    result = RhoResult(
        variety=spec.name,
        rho=rho,
        certified_digits=certified,
        n_used=N,
        n_read=n_read,
        iterations=iterations,
        digits=D,
        ctx=ctx,
    )
    return result, counts, exponents, models


def _visible_reach(spec: VarietySpec, coarse: list, bracket: tuple, R: int, w: int,
                   N: int) -> int:
    """The least count reach ``n``, at most ``N``, past which no count moves a sweep by 1/4 unit.

    With ``T_d <= rho_lo^-d`` (:func:`_root_bounds`) the tails past ``n``
    must stay below a quarter unit in every order ``j <= R``: of ``H4`` at
    ``x``, below ``2^-(w+2)``, and of ``h`` at ``x^2``, below
    ``2^-(w+G+2)`` (:data:`COMPOSE_BITS`); ``h`` at ``x^3`` has the same
    coefficients at a smaller point.  For ``n >= R`` every tail degree is
    at least ``2R``, so order ``R`` bounds them all.  ``N`` when the root
    has no bounds.
    """
    bounds = _root_bounds(spec, coarse, bracket)
    if bounds is None:
        return N
    rho_lo, x_hi = bounds
    n = max(R, BRACKET_REACH)
    G = COMPOSE_BITS * (R + 1)
    for y, first, bits in ((x_hi**2, 2, w + G + 2), (x_hi, 4, w + 2)):
        n = tail_reach(y, rho_lo, first, R, bits, n, N)
    return n


def _root_bounds(spec: VarietySpec, coarse: list, bracket: tuple) -> tuple | None:
    """``(rho_lo, x_hi)``: the bisection bracket, widened to hold ``rho`` and the sweep points.

    ``coarse`` is the float exponent of count reach ``BRACKET_REACH``.
    Widened by its width on each side, the bracket holds the root ``rho`` of
    the whole exponent too when the residual of ``coarse`` at each end
    exceeds in size what the tail past that reach can add there, bounded by
    :func:`treeasym.varieties.tail_bound` on the crude growth
    ``T_d <= g^d`` (:meth:`VarietySpec.growth`); else None.  The sweep
    points, within ``2^-b`` of ``rho``, lie below the upper end.
    """
    lo, hi = bracket
    rho_lo, x_hi = 2 * lo - hi, 2 * hi - lo
    shift = 2 ** tail_bound(x_hi, 1 / spec.growth(), 2, BRACKET_REACH, 0)
    if _float_residual(spec, coarse, rho_lo)[0] < -shift and \
            _float_residual(spec, coarse, x_hi)[0] > shift:
        return rho_lo, x_hi
    return None


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
    ``(e + 1) b >= prec + g e + log2 C(R+1, r)``.  In the solver's
    variable ``u = d/x`` both errors of coefficient ``j`` carry the factor
    ``x^j``, and the rescaling to ``d/rho`` a common ``(1 + u)^j``, so the
    condition is the same.  With ``e = 3`` that is
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


def solve_models(spec: VarietySpec, exponents: tuple, half: int, r: int, ctx, D,
                 start: float):
    """Roots and Taylor models of ``log zeta`` at count reach ``N`` and at ``half = N//2``.

    ``exponents`` is ``(h, H4)`` of count reach ``N``
    (:func:`treeasym.varieties.numeric_exponent`), and ``start`` the
    midpoint of the bracket of :func:`_bracket` on its prefix, from which
    :func:`_start_point` reads the whole ``h``.  Returns ``(models, iterations)``.
    ``models`` holds ``(x, L)`` for reach ``N`` and for ``half``: the root
    ``x`` and the Taylor coefficients ``L_0 .. L_r`` of ``log zeta`` there
    in ``d/x`` (``L_j`` is ``x^j`` times the order-``j`` coefficient),
    fixed-point at ``w = hp.fixed_bits(ctx)``.
    ``iterations`` counts the model Newton iterations of the first root.
    Both come from three split sweeps at a common start point (see the
    module docstring); Newton must stay in ``DEFAULT_BRACKET``.  One helper
    forms the sweep points ``x^i``, floored at ``w + g``, for the first
    sweep and each re-sweep, and the memo of the model parts keys on them.
    The check cuts ``H4`` at degree ``4 half`` and ``h`` at ``2 half``, or
    reads them whole where they are shorter.  Every logarithm goes through
    one memo of :func:`treeasym.hp.fixed_log` keyed by argument and width,
    made here and dropped on return, so the whole and the check share them.
    """
    h, H4 = exponents
    w = hp.fixed_bits(ctx)
    lo, hi = (math.floor(Fraction(end) * 2**w) for end in DEFAULT_BRACKET)
    b = _start_bits(ctx.prec, r)
    R = r + MODEL_EXTRA
    G = COMPOSE_BITS * (R + 1)
    guards = (0, G, G)  # H4 at w, the parts T(z^2) and T(z^3) at w + G
    parts = ((H4, 4 * half + 1), (h, 2 * half + 1), (h, 2 * half + 1))

    def points(x):  # x^i floored at w + g, like the sweep's result; x itself for i = 1
        return [(x**i << g) >> (i - 1) * w for i, g in enumerate(guards, 1)]

    log = lru_cache(maxsize=None)(hp.fixed_log)
    x = _start_point(spec, h, start, w, b, log)
    sweeps = [series_taylor_split(c, cut, y, R, w, g)
              for (c, cut), y, g in zip(parts, points(x), guards)]
    tolerance = (1 << w) // 10 ** (D + 5)
    # a sweep that the check shares with the whole gives its part of the model once
    part = lru_cache(maxsize=None)(
        lambda i, taylor, y: _log_zeta_part(spec, i, taylor, y, w, G, log))
    models, newton = [], []
    blocks = ([c for c, _ in parts], [c[:cut] for c, cut in parts])  # whole, check
    for taylors, block in zip(zip(*sweeps), blocks):
        at, iterations = x, 0
        while True:
            L = list(map(sum, zip(*map(part, count(1), taylors, points(at)))))
            u, iterations = _model_root(spec, L, at, w, tolerance, iterations, (lo, hi))
            if abs(at * u) <= 1 << (2 * w - b):
                break
            at += at * u >> w  # too far for the model: sweep again at its root
            taylors = [series_taylor(c, y, R, w, g) for c, y, g in zip(block, points(at), guards)]
        models.append((at + (at * u >> w), _model_at_root(L, u, r, w)))
        newton.append(iterations)
    return models, newton[0]


def _model_at_root(L: list, u: int, r: int, w: int) -> list:
    """Coefficients ``0 .. r`` of the model ``sum L_k u^k`` at its root ``u``, in ``d/rho``.

    The Taylor shift by ``|u| < 2^-beta``, coefficient ``j`` the direct sum
    ``sum_m C(m, j) L_m u^(m-j)`` by Horner's rule; then coefficient ``j``
    times ``(1 + u)^j``, since ``d/x = (1 + u) d/rho`` for ``rho = x (1 + u)``.
    Fixed-point at ``w``.  With ``|L_m| < 2^B``, term ``m`` is below
    ``2^(j + B - (beta - 1)(m - j))`` units, so the sum stops after
    ``k = ceil((j + B + 2) / (beta - 1))`` orders: the terms it leaves out
    add up to less than half a unit.  At ``D = 40``, ``L = 8`` that is 3 or 4
    orders of the ``R - j + 1 = 4 .. 13``.
    """
    out, scale = [], 1 << w  # scale = (1 + u)^j
    beta, B = w - abs(u).bit_length(), max(abs(c) for c in L).bit_length()
    for j in range(r + 1):
        top = len(L) - 1 if beta < 2 else min(len(L) - 1, j - 1 - (-(j + B + 2) // (beta - 1)))
        acc = 0
        for m in range(top, j - 1, -1):
            acc = math.comb(m, j) * L[m] + (acc * u >> w)
        out.append(acc * scale >> w)
        scale += scale * u >> w
    return out


def _log_zeta_part(spec: VarietySpec, i: int, taylor: tuple, y: int, w: int, G: int,
                   log) -> list:
    """Scaled Taylor coefficients at ``x`` of part ``i`` of ``log zeta``, from a sweep at ``y``.

    ``log zeta = [log c + a log z + H4] + eps_2 T(z^2)/2 + eps_3 T(z^3)/3``.
    Part 1, in brackets, is :func:`treeasym.varieties.log_zeta_taylor` on
    the sweep of ``H4`` at ``y = x``.  Parts 2 and 3 take the Taylor
    coefficients of ``T`` in ``s = z/y - 1`` from the sweep of ``h`` at
    ``y``, ``x^i`` floored at ``w + G`` (:func:`_tree_taylor`), then those of
    ``T(x^i (1+u)^i)`` in ``u = d/x`` (:func:`_compose_power`).  Parts 2 and
    3 run at ``w + G`` (:data:`COMPOSE_BITS`): ``taylor`` is at that scale,
    and the composed coefficients are floored to ``w`` once.  The result is
    fixed-point at ``w``, to the order of ``taylor``.  ``log(v, w)`` gives the
    logarithms, :func:`treeasym.hp.fixed_log` or a memo of it.
    """
    if i == 1:
        return log_zeta_taylor(spec, taylor, y, w, log)
    T = _tree_taylor(spec, taylor, y, w + G, log)
    eps = spec.eps(i)
    return [eps * c // (i << G) for c in _compose_power(T, i)]


def _tree_taylor(spec: VarietySpec, taylor: tuple, y0: int, w: int, log) -> list:
    """Taylor coefficients of ``T`` in ``s = y/y0 - 1`` at ``0 < y0 < rho``, from those of ``h``.

    ``taylor`` is the sweep of ``h`` at ``y0``, its coefficients in ``s``.
    ``T~ = y^a v`` and ``log T~ - T~ = log zeta = log c + a log y + h``
    give ``log v - y^a v = log c + h``; :func:`_cayley_root` solves it at
    ``y0`` for the root with ``T~ < 1``.  With ``y = y0 (1 + s)`` the
    derivative in ``s`` is ``T~_s (1 - T~) = T~ (h_s + a/(1 + s))``, whose
    ``a/(1 + s)`` has the coefficients ``a (-1)^k``; it gives ``T~_(k+1)``
    from ``T~_0 .. T~_k`` by one division, ``O(R^2)`` products in all: the
    sum for order ``k``, ``sum_j u_j dp_(k-j) + sum_j du_j u_(k-j)``, is one
    product of two lists run in C, ``T~_0 .. T~_k, T~_s`` against ``dp`` and
    ``T~`` reversed, kept so from one order to the next; exact on the
    integers.
    ``T = T~ + sigma (1 - y)/2``.  All fixed-point at ``w``, to the order of
    ``taylor``; ``log(v, w)`` gives the logarithms (:func:`_cayley_root`).
    """
    one, a, c = 1 << w, spec.z_exponent, spec.prefactor
    c0 = taylor[0] + (log((c.numerator << w) // c.denominator, w) if c != 1 else 0)
    v = _cayley_root(c0, y0 if a else one, w, log)
    u = [y0 * v >> w if a else v]  # T~ = y^a v
    dp = [k * g + (-1) ** (k - 1) * (a << w) for k, g in enumerate(taylor) if k]  # h_s + a/(1+s)
    du, rdp, ru = [], [], []  # T~_s; dp_k .. dp_0; T~_k .. T~_1
    for k in range(len(taylor) - 1):
        rdp.insert(0, dp[k])
        total = sum(map(operator.mul, u + du, rdp + ru))
        du.append(total // (one - u[0]))
        u.append(du[-1] // (k + 1))
        ru.insert(0, u[-1])
    u[0] += spec.shift_sign * (one - y0) >> 1
    u[1] -= spec.shift_sign * y0 >> 1
    return u


def _cayley_root(c0: int, s: int, w: int, log) -> int:
    """The root of ``log v - s v = c0`` with ``s v < 1``, by Newton from below.

    Fixed-point at ``w``.  The function is increasing and concave there, so
    Newton from below the root climbs to it without overshooting: float
    Newton from ``exp(c0)``, which lies below, then integer Newton from
    ``v0``, ``2^-40`` (relative) below the float root, each step doubling
    the bits.  ``log(v, w)`` (:func:`treeasym.hp.fixed_log` or a memo of it)
    is taken once, at ``v0`` with 16 guard bits; each step reads
    ``log v = log v0 + log1p((v - v0)/v0)`` by :func:`treeasym.hp.fixed_log1p`
    at the same guard, ``|v - v0| < 2^-30 v0``.  The three errors of that
    sum are each below a unit of ``2^-(w+16)``, so floored to ``w`` it is
    within one unit, as ``log(v, w)`` would be.  A step ``d`` leaves an error
    of at most ``d^2 / (2 v (1 - s v))``; the steps stop once that is below a
    quarter unit.
    """
    one, g = 1 << w, w + 16
    value, slope = c0 / one, s / one
    v = math.exp(value)
    for _ in range(CAYLEY_FLOAT_STEPS):
        v -= (math.log(v) - slope * v - value) * v / (1 - slope * v)
    v = math.floor(math.ldexp(v, 64)) << (w - 64)
    v -= v >> 40
    v0, log0 = v, log(v << 16, g)
    for _ in range(w.bit_length()):
        u = s * v >> w
        log_v = log0 + hp.fixed_log1p(((v - v0) << g) // v0, g) >> 16
        step = (c0 + u - log_v) * v // (one - u)
        v += step
        if step * step << (w + 1) < v * (one - u):
            return v
    raise StalledError(f"Newton for T~ at {_float(s, w):.12g} not contracting after "
                       f"{w.bit_length()} iterations")


def _compose_power(T: list, i: int) -> list:
    """Coefficients in ``u`` of ``T(s)`` at ``s = (1+u)^i - 1``, from those of ``T`` in ``s``.

    Horner's rule in ``p(u) = (1+u)^i - 1 = sum_k C(i, k) u^k``, integer
    coefficients with no constant term and top coefficient 1: each step
    multiplies by ``p`` and keeps the orders that still reach the result,
    ``O(i R)`` products run in C, exact on the integers of ``T``.
    """
    acc = [T[-1]]
    for c in reversed(T[:-1]):
        total = map(operator.mul, acc, repeat(i))
        for k in range(2, i):
            total = map(operator.add, total, map(operator.mul, [0] * (k - 1) + acc,
                                                 repeat(math.comb(i, k))))
        acc = [c, *map(operator.add, total, [0] * (i - 1) + acc)]
    return acc


def _start_point(spec: VarietySpec, h: tuple, x: float, w: int, b: int, log) -> int:
    """A fixed-point start within about ``2^-b`` of the root of the whole exponent ``h``.

    From the float ``x`` of the bracket phase, float Newton within the
    floats of ``DEFAULT_BRACKET``, then integer Newton steps that double the
    bits, each at a width of its bits plus 16 guard bits and on the prefix
    whose count reach matches them.  ``log(v, w)`` gives the logarithms.
    """
    coarse = [_float(c, w) for c in h[: 2 * _reach(FLOAT_BITS, x, h) + 1]]
    lo, hi = map(float, DEFAULT_BRACKET)
    for _ in range(8):
        value, slope = _float_residual(spec, coarse, x)
        x -= value / slope
        if not lo <= x <= hi:
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
        model = log_zeta_taylor(spec, series_taylor(prefix, part, 1, width), part, width, log)
        X = (part - (part * _newton_step(spec, model, part, 0, width) >> width)) << shift
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


def _bracket(spec: VarietySpec, coarse: list) -> tuple:
    """A ``10**-3`` bracket ``(lo, hi)`` of the root, bisected in floats on ``coarse``.

    Starts from the floats of ``DEFAULT_BRACKET``, read at each call; the
    residual ``f`` must rise there, as ``zeta`` does on ``(0, rho]`` and as
    :func:`_root_bounds` and ``puiseux_coeffs`` need, so
    :class:`NoBracketError` unless ``f(lo) < 0 < f(hi)``.
    """
    def residual(x):
        return _float_residual(spec, coarse, x)[0]

    lo, hi = map(float, DEFAULT_BRACKET)
    f_lo, f_hi = residual(lo), residual(hi)
    if not f_lo < 0 < f_hi:
        raise NoBracketError(
            f"{spec.name}: no sign change of log(zeta) + 1 from - to + on [{lo:.6g}, {hi:.6g}]"
            f" (endpoint residuals {f_lo:.6g}, {f_hi:.6g})"
        )
    # bisect to ~3 digits; Newton converges quadratically from there
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _model_root(spec: VarietySpec, L: list, x: int, w: int, tolerance: int, done: int,
                bracket) -> tuple:
    """Root ``u`` of the short model ``sum L_k u^k + 1`` in ``u = d/x`` by integer Newton from 0.

    Returns ``u`` and the iteration count, which starts at ``done``; Newton
    stops at a step ``x du`` below ``tolerance``, and gives up after
    ``MAX_NEWTON`` in all.
    """
    u, steps = 0, []
    for iteration in range(done + 1, MAX_NEWTON + 1):
        step = _newton_step(spec, L, x, u, w)
        u -= step
        steps.append(abs(x * step >> w))
        if steps[-1] < tolerance:
            return u, iteration
        z = x + (x * u >> w)
        if not bracket[0] <= z <= bracket[1]:
            raise StalledError(f"{spec.name}: Newton left the bracket at {_float(z, w):.12g}")
    raise StalledError(
        f"{spec.name}: Newton not contracting after {MAX_NEWTON} iterations; "
        f"last steps {[f'{_float(s, w):.3g}' for s in steps[-3:]]} vs tolerance "
        f"{_float(tolerance, w):.3g} (truncation order likely too small)"
    )


def _newton_step(spec: VarietySpec, L: list, x: int, u: int, w: int) -> int:
    """Newton step of ``sum L_k u^k + 1`` at ``u``; value and slope from one Horner pass."""
    value, slope = L[-1], 0
    for c in reversed(L[:-1]):
        slope = value + (slope * u >> w)
        value = c + (value * u >> w)
    if slope == 0:
        raise StalledError(f"{spec.name}: zero derivative at {_float(x + (x * u >> w), w):.12g}")
    return ((value + (1 << w)) << w) // slope

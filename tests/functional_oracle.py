"""Counts-free oracle for ``rho``: every ``T(x^m)``, ``m >= 2``, from the functional equation.

Each variety's perturbation factor is

    zeta(x) = c x^a exp( sigma (1-x)/2 + sum_{i>=2} eps_i T(x^i)/i ),

and ``T~ = T - sigma (1-x)/2`` solves ``T~ = zeta exp(T~)``, so below the
singularity ``T~(y) = -W_0(-zeta(y))`` (Lambert W, principal branch;
Corless, Gonnet, Hare, Jeffrey and Knuth, Adv. Comput. Math. 1996).  For
``y = x^m`` with ``m >= 2``, ``zeta(y)`` needs ``T`` only at the higher
powers ``x^(m i)``, which lie closer to 0.  So the oracle starts at the
largest ``M`` with ``x^M`` above ``2^-(prec+10)`` (past it ``T(y) ~ y``
lies below the working precision and is dropped), solves ``T(x^m)`` for
``m = M`` down to 2, and sums ``log zeta(x)``; ``rho`` is its root with
``log zeta(rho) = -1``.

It reads no counts, no sweep and no arithmetic of ``treeasym``: the
constants ``c, a, sigma, eps_i`` are restated here and everything runs on
an mpmath context of its own.
"""

import mpmath

# c as (numerator, denominator), a, sigma, and whether eps_i = (-1)^(i-1) (else +1)
PARAMETERS = {
    "polya": ((1, 1), 1, 0, False),
    "identity": ((1, 1), 1, 0, True),
    "hierarchy": ((1, 2), 0, -1, False),
}

GUARD_DIGITS = 10


def log_zeta_plus_one(ctx, variety: str, x):
    """``log zeta(x) + 1`` with every ``T(x^m)``, ``m >= 2``, from the functional equation."""
    (p, q), a, sigma, alternating = PARAMETERS[variety]
    top = int((ctx.prec + 10) * ctx.ln2 / -ctx.log(x))  # x^top >= 2^-(prec+10)
    power = [ctx.one, x]
    while len(power) <= top:
        power.append(power[-1] * x)
    base, log_x, T = ctx.log(ctx.mpf(p) / q), ctx.log(x), {}

    def log_zeta(m):  # at x^m, from T at x^(m i) for m i <= top
        total = base + a * m * log_x + sigma * (1 - power[m]) / 2
        for i in range(2, top // m + 1):
            total += (-1 if alternating and i % 2 == 0 else 1) * T[m * i] / i
        return total

    for m in range(top, 1, -1):
        T[m] = -ctx.lambertw(-ctx.exp(log_zeta(m))) + sigma * (1 - power[m]) / 2
    return log_zeta(1) + 1


def rho(variety: str, digits: int) -> str:
    """``rho`` of ``variety`` to ``digits`` significant digits, by the secant method."""
    ctx = mpmath.MPContext()
    ctx.dps = digits + GUARD_DIGITS
    root = ctx.findroot(lambda x: log_zeta_plus_one(ctx, variety, x),
                        (ctx.mpf("0.3"), ctx.mpf("0.35")))
    return ctx.nstr(root, digits, strip_zeros=False)

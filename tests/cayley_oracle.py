"""Oracle for :func:`treeasym.solver._cayley_root`: Newton with one full logarithm per step.

The solver reads ``log v`` in each Newton step from the logarithm at the
integer start and a short ``log1p`` series.  This copy takes
:func:`treeasym.hp.fixed_log` of every iterate instead, from the same float
start, and stops by the same rule, so the two roots agree within a unit.
"""

import math

from treeasym import hp
from treeasym.solver import CAYLEY_FLOAT_STEPS


def cayley_root(c0: int, s: int, w: int) -> int:
    """The root of ``log v - s v = c0`` with ``s v < 1``, fixed-point at ``w``."""
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
    raise AssertionError("Newton for T~ not contracting")

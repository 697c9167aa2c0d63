"""Machine-speed calibration for the timed metrics.

On the 2-core shared virtual machine this benchmark was built on, the
same pure-Python op ran up to 40% faster or slower from one few-second
stretch to the next, because the host shares cores and caches with other
machines' work.  Longer
runs do not average this out.  So the benchmark runs a fixed reference
computation between ops and scales each op's time by how fast that
computation ran around it.

How much a stretch of contention slows code depends on the kind of code,
so each workload uses a kernel of its own kind: a frozen copy of the
seed's mpmath series exponential for the numeric workloads, and a frozen
copy of its big-integer divisor-sum recurrence for ``exact-counts``.  The
kernels live here, not in ``src/``, so no change to the program moves
them.  Over six ``rho-digits`` runs of three passes, the spread
(interquartile range over median) of ``run_s`` was 0.18 unscaled, 0.17
scaled by a loop over 1.3 MB of integers and 0.09 scaled by the series
kernel.
"""

from __future__ import annotations

import time

import mpmath

_CTX = mpmath.MPContext()
_CTX.dps = 60
_SERIES = [_CTX.mpf(1) / (k + 2) for k in range(121)]


def _series_exp() -> None:
    g, n = _SERIES, len(_SERIES) - 1
    out = [_CTX.exp(g[0])] + [None] * n
    for m in range(1, n + 1):
        acc = g[1] * out[m - 1]
        for k in range(2, m + 1):
            acc += k * g[k] * out[m - k]
        out[m] = acc / m


def _divisor_sum_counts(n_max: int = 500) -> None:
    T, s = [0] * (n_max + 1), [0] * (n_max + 1)
    T[1] = 1
    for i in range(1, n_max + 1):
        if i > 1:
            T[i] = sum(s[j] * T[i - j] for j in range(1, i)) // (i - 1)
        for j in range(i, n_max + 1, i):
            s[j] += i * T[i]


#: kernel name -> (function, its time at the reference speed in seconds)
KERNELS = {
    "series": (_series_exp, 0.040),
    "counts": (_divisor_sum_counts, 0.040),
}


class Calibration:
    """Times one kernel; :meth:`slowdown` compares two timings with the reference."""

    def __init__(self, kernel: str):
        self._run, self._reference_s = KERNELS[kernel]

    def measure(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def slowdown(self, before: float, after: float) -> float:
        """How much slower than the reference the machine ran between two timings."""
        return (before + after) / 2 / self._reference_s

"""The paper's composition-sum form of the ``tau`` weights, kept as a test oracle.

``tau_l = sum_{r=1}^{l+1} Q_r R_{l+1-r}``, where ``R_l`` sums over
compositions built from :func:`r_inner` and the linear forms ``Q_r`` sum
over compositions of ``r``.  The cost grows exponentially in ``l``; the
library computes the same forms from the Gamma-ratio expansion
(:func:`treeasym.kernels.tau_symbolic`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every ordered tuple of ``parts`` positive integers summing to ``total``.

    There are ``binom(total-1, parts-1)`` of them.
    """
    if total < 1 or parts < 1:
        raise ValueError("total and parts must be positive")
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def r_inner(k: int) -> Fraction:
    """Inner double sum of the ``R_l`` weights.

    ``sum_{s=0}^{2k} 1/(s+1) sum_{j=0}^{s} (-1)^j binom(s,j) j^(2k)`` with the
    convention ``0**0 == 1`` (Python's native one), so the ``s = 0`` term is
    well-defined and vanishes for ``k >= 1``.
    """
    if k < 1:
        raise ValueError(f"index must be positive, got {k}")
    acc = Fraction(0)
    for s in range(0, 2 * k + 1):
        inner = sum((-1) ** j * math.comb(s, j) * j ** (2 * k) for j in range(s + 1))
        acc += Fraction(inner, s + 1)
    return acc


@lru_cache(maxsize=None)
def _r_ell(ell: int) -> Fraction:
    if ell == 0:
        return Fraction(1)
    acc = Fraction(0)
    for r in range(1, ell + 1):
        if (ell - r) % 2 != 0:
            continue
        ksum = (ell + r) // 2
        if ksum < r:
            continue
        for ks in compositions(ksum, r):
            prod = Fraction(1)
            prefix = 0  # running value of 2k_1 + ... + 2k_{i-1}
            for i, k_i in enumerate(ks, start=1):
                numer = (Fraction(1, 4**k_i) - 1) * r_inner(k_i)
                prod *= numer / ((ell - prefix + i - 1) * k_i)
                prefix += 2 * k_i
            acc += prod
    return acc


def r_seq(ell_max: int) -> list[Fraction]:
    """The universal weights ``R_0 .. R_{ell_max}`` (``R_0 = 1``)."""
    if ell_max < 0:
        raise ValueError(f"l_max must be non-negative, got {ell_max}")
    return [_r_ell(ell) for ell in range(ell_max + 1)]


@lru_cache(maxsize=None)
def _q_weight(j: int, s: int) -> Fraction:
    """``sum over compositions (l_0..l_j) of s of prod_i (i + 1/2)^(l_i)``.

    Memoized recursion over the last part; identical to enumerating the
    compositions explicitly, which the tests do for small arguments.
    """
    base = Fraction(2 * j + 1, 2)
    if j == 0:
        return base**s if s >= 1 else Fraction(0)
    acc = Fraction(0)
    power = Fraction(1)
    for part in range(1, s - j + 1):
        power *= base
        acc += _q_weight(j - 1, s - part) * power
    return acc


@lru_cache(maxsize=None)
def _q_poly(r: int) -> dict[int, Fraction]:
    return _nonzero({2 * j + 1: Fraction((-1) ** (j + 1)) * _q_weight(j, r) for j in range(r)})


def _nonzero(form: dict) -> dict[int, Fraction]:
    """A linear form ``{j: c_j}`` without its zero terms."""
    return {j: c for j, c in form.items() if c != 0}


def q_symbolic(r_max: int) -> list[dict[int, Fraction]]:
    """The linear forms ``Q_1 .. Q_{r_max}`` in the odd symbols ``t_1, t_3, ...``

    ``Q_r = sum_{j=0}^{r-1} (-1)^(j+1) t_{2j+1} *
            sum over compositions (l_0..l_j) of r of prod_i (i + 1/2)^(l_i)``.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be positive, got {r_max}")
    return [_q_poly(r) for r in range(1, r_max + 1)]


def tau_qr(ell: int) -> dict[int, Fraction]:
    """``tau_l = sum_{r=1}^{l+1} Q_r R_{l+1-r}`` as a linear form."""
    if ell < 0:
        raise ValueError(f"index must be non-negative, got {ell}")
    out = {}
    for r in range(1, ell + 2):
        weight = _r_ell(ell + 1 - r)
        for idx, c in _q_poly(r).items():
            out[idx] = out.get(idx, Fraction(0)) + c * weight
    return _nonzero(out)

"""The per-``(j, m)`` Gamma-ratio form of the ``tau`` weights, kept as a test reference.

``tau_l = sum_{j=0}^{l} t_{2j+1} w_j c_{l-j}(j + 1/2)`` with
``w_j = sqrt(pi) / Gamma(-j-1/2)`` and ``c_m(a)`` the ``n^-m`` coefficient of
``Gamma(n-a) n^(a+1) / Gamma(n+1)``, each ``c_m(a)`` the exponential of the
Bernoulli-polynomial series of the log of that ratio (Tricomi & Erdelyi,
Pacific J. Math. 1951; Flajolet & Sedgewick, *Analytic Combinatorics*,
Thm VI.1).  It keeps one table entry per ``(j, m)`` and costs ``O(L^3)``
operations for ``tau_0 .. tau_L``; the library derives each form from the
one before it (:func:`treeasym.kernels.tau_symbolic`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from treeasym.kernels import _bernoulli, _dot


@lru_cache(maxsize=None)
def log_gamma_ratio(j: int, k: int) -> Fraction:
    """``k s_k`` at ``a = j + 1/2``, for the series ``log(Gamma(n-a) n^(a+1) / Gamma(n+1))``.

    Its ``n^-k`` coefficient is
    ``s_k = (-1)^(k+1) (B_{k+1}(-a) - B_{k+1}(1)) / (k (k+1))`` for ``k >= 1``.
    ``B_n(x - 1) = B_n(x) - n (x - 1)^(n-1)`` steps ``a`` by one, so
    ``k s_k(j) = k s_k(j-1) + a^k``, and at ``a = 1/2``
    ``B_n(-1/2) = (2^(1-n) - 1) B_n - n (-1/2)^(n-1)`` gives
    ``k s_k(0) = (-1)^(k+1) (1 - 2^(k+1)) B_{k+1} / ((k+1) 2^k) + 2^-k``.
    """
    if j:
        return log_gamma_ratio(j - 1, k) + Fraction((2 * j + 1) ** k, 1 << k)
    return ((-1) ** (k + 1) * (1 - (2 << k)) * _bernoulli(k + 1) / (k + 1) + 1) / (1 << k)


@lru_cache(maxsize=None)
def gamma_ratio(j: int, m: int) -> Fraction:
    """``c_m(j + 1/2)``, through ``m c_m = sum_{k=1}^{m} k s_k c_{m-k}``."""
    if m == 0:
        return Fraction(1)
    weighted = [log_gamma_ratio(j, m - i) for i in range(m)]  # k s_k, k = m - i
    return _dot(weighted, [gamma_ratio(j, i) for i in range(m)]) / m


def tau_gamma(ell: int) -> dict[int, Fraction]:
    """``tau_l`` as ``{2j+1: w_j c_{l-j}(j + 1/2)}``, in ascending ``j``."""
    coeffs = {}
    weight = Fraction(-1, 2)  # w_0 = sqrt(pi) / Gamma(-1/2)
    for j in range(ell + 1):
        coeffs[2 * j + 1] = weight * gamma_ratio(j, ell - j)
        weight *= Fraction(-2 * j - 3, 2)  # Gamma(x) = Gamma(x+1) / x
    return coeffs

"""Exact rational building blocks for the expansion machinery.

Every value in this module is an exact ``fractions.Fraction`` and does
not depend on the tree variety: the paper's signed weights ``B(l)`` of
the square-root singular expansion of the tree function
``C(z) = z*exp(C(z))`` (the pipeline does not read them) and the linear forms
``tau_l`` that convert singular-expansion coefficients into asymptotic ones.

``B(l) = l! mu_l`` comes from the branch-point coefficients ``mu_l`` of
Lambert's ``W`` (``C(z) = -W(-z)``), by the ``O(l^2)`` rational recurrence
of Corless, Gonnet, Hare, Jeffrey & Knuth, *On the Lambert W function*
(Adv. Comput. Math. 1996, eq. 4.23).

The ``tau`` weights come from the transfer of each odd singular term,
``[z^n](1-z)^(k/2) = Gamma(n-k/2) / (Gamma(-k/2) Gamma(n+1))``, and from the
Bernoulli-polynomial series of ``log(Gamma(n+a)/Gamma(n+b))`` (Tricomi &
Erdelyi, *The asymptotic expansion of a ratio of gamma functions*, Pacific
J. Math. 1951; Flajolet & Sedgewick, *Analytic Combinatorics*, Thm VI.1):
``tau_0 .. tau_L`` cost ``O(L^3)`` integer and ``O(L^2)`` ``Fraction``
operations, because the inner sums of both recurrences run on integers over
a common denominator (:func:`_dot`).  Values are cached
per index and shared across varieties; the caches are write-once-per-key
and safe under concurrent readers.  A form is a plain ``{j: c_j}`` dict
over the odd indices ``j``; :func:`treeasym.expansions.tau_coeffs` applies
it to fixed-point ``t`` as ``sum_j floor(c_j t_j)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _dot(xs, ys) -> Fraction:
    """``sum_i x_i y_i`` of two sequences of ints or ``Fraction``s.

    The sum runs on integers over the common denominator of each sequence,
    so it builds one ``Fraction`` (one gcd) instead of two per term.
    """
    dx = math.lcm(*(x.denominator for x in xs))
    dy = math.lcm(*(y.denominator for y in ys))
    total = sum(
        x.numerator * (dx // x.denominator) * y.numerator * (dy // y.denominator)
        for x, y in zip(xs, ys)
    )
    return Fraction(total, dx * dy)


@lru_cache(maxsize=None)
def _lambert_mu(k: int) -> Fraction:
    """Coefficient ``mu_k`` of ``W(x) = sum_k mu_k p^k``, ``p = sqrt(2(e x + 1))``, at ``x = -1/e``.

    Corless, Gonnet, Hare, Jeffrey & Knuth, *On the Lambert W function*
    (Adv. Comput. Math. 1996, eq. 4.23): ``mu_0 = -1``, ``mu_1 = 1`` and

        mu_k = (k-1)/(k+1) (mu_(k-2)/2 + alpha_(k-2)/4) - alpha_k/2 - mu_(k-1)/(k+1)

    with ``alpha_0 = 2``, ``alpha_1 = -1``, ``alpha_k = sum_{j=2}^{k-1} mu_j mu_(k+1-j)``.
    """
    if k < 2:
        return Fraction(2 * k - 1)
    mu = [_lambert_mu(j) for j in range(k)]  # ascending, so the recursion stays shallow

    def alpha(i):
        if i < 2:
            return Fraction((2, -1)[i])
        return _dot(mu[2:i], mu[i - 1 : 1 : -1])

    return (
        Fraction(k - 1, k + 1) * (mu[k - 2] / 2 + alpha(k - 2) / 4)
        - alpha(k) / 2
        - mu[k - 1] / (k + 1)
    )


@lru_cache(maxsize=None)
def b_seq(ell: int) -> Fraction:
    """Signed weight ``B(l)`` of the singular expansion: ``C = -sum_l B(l)/l! (2(1 - e z))^(l/2)``.

    The tree function is ``C(z) = -W(-z)``, so ``B(l) = l! mu_l`` with
    ``mu_l`` the branch-point coefficients of Lambert's ``W`` from the
    ``O(l^2)`` rational recurrence of Corless et al. (1996, eq. 4.23).
    ``B(1) = 1``, ``B(2) = -2/3``, ``B(3) = 11/12``.
    """
    if ell < 1:
        raise ValueError(f"index must be positive, got {ell}")
    return math.factorial(ell) * _lambert_mu(ell)


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Bernoulli number ``B_m`` (``B_1 = -1/2``), from ``sum_{i<=m} binom(m+1, i) B_i = 0``."""
    if m == 0:
        return Fraction(1)
    # ascending calls find every smaller index cached, so the recursion stays shallow
    binomials = [math.comb(m + 1, i) for i in range(m)]
    return -_dot(binomials, [_bernoulli(i) for i in range(m)]) / (m + 1)


@lru_cache(maxsize=None)
def _log_gamma_ratio(j: int, k: int) -> Fraction:
    """``k s_k`` at ``a = j + 1/2``, for the series ``log(Gamma(n-a) n^(a+1) / Gamma(n+1))``.

    Its ``n^-k`` coefficient is
    ``s_k = (-1)^(k+1) (B_{k+1}(-a) - B_{k+1}(1)) / (k (k+1))`` for ``k >= 1``,
    where ``B_{k+1}(1) = B_{k+1}`` cancels the constant term of ``B_{k+1}(-a)``.
    No Bernoulli polynomial is evaluated: ``B_n(x - 1) = B_n(x) - n (x - 1)^(n-1)``
    steps ``a`` by one, so ``k s_k(j) = k s_k(j-1) + a^k``, and at ``a = 1/2``
    ``B_n(-1/2) = (2^(1-n) - 1) B_n - n (-1/2)^(n-1)`` gives
    ``k s_k(0) = (-1)^(k+1) (1 - 2^(k+1)) B_{k+1} / ((k+1) 2^k) + 2^-k``.
    """
    if j:
        return _log_gamma_ratio(j - 1, k) + Fraction((2 * j + 1) ** k, 1 << k)
    return ((-1) ** (k + 1) * (1 - (2 << k)) * _bernoulli(k + 1) / (k + 1) + 1) / (1 << k)


@lru_cache(maxsize=None)
def _gamma_ratio(j: int, m: int) -> Fraction:
    """``c_m``: the ``n^-m`` coefficient of ``Gamma(n-a) n^(a+1) / Gamma(n+1)`` at ``a = j + 1/2``.

    The exponential of the series ``s_k`` of :func:`_log_gamma_ratio`,
    through ``m c_m = sum_{k=1}^{m} k s_k c_{m-k}``.
    """
    if m == 0:
        return Fraction(1)
    weighted = [_log_gamma_ratio(j, m - i) for i in range(m)]  # k s_k, k = m - i
    return _dot(weighted, [_gamma_ratio(j, i) for i in range(m)]) / m


@lru_cache(maxsize=None)
def tau_symbolic(ell: int) -> dict[int, Fraction]:
    """Asymptotic coefficient ``tau_l`` as a linear form ``{j: c_j}`` in ``t_1, t_3, ..., t_{2l+1}``.

    ``tau_l = sum_{j=0}^{l} t_{2j+1} w_j c_{l-j}(j + 1/2)``: each odd term
    ``t_k (1 - z/rho)^(k/2)`` contributes ``rho^-n Gamma(n-k/2) / (Gamma(-k/2) Gamma(n+1))``
    to ``T_n``, so ``w_j = sqrt(pi) / Gamma(-j-1/2)`` and ``c_m(a)`` is the
    ``n^-m`` coefficient of ``Gamma(n-a) n^(a+1) / Gamma(n+1)``.  The log of
    that Gamma ratio has a Bernoulli-polynomial series (Tricomi & Erdelyi,
    Pacific J. Math. 1951; Flajolet & Sedgewick, Analytic Combinatorics,
    Thm VI.1), so every weight is an exact ``Fraction`` in polynomial time.
    The cached dict is shared by every caller and must not be modified.
    """
    if ell < 0:
        raise ValueError(f"index must be non-negative, got {ell}")
    coeffs = {}
    weight = Fraction(-1, 2)  # w_0 = sqrt(pi) / Gamma(-1/2)
    for j in range(ell + 1):
        coeffs[2 * j + 1] = weight * _gamma_ratio(j, ell - j)
        weight *= Fraction(-2 * j - 3, 2)  # Gamma(x) = Gamma(x+1) / x
    return coeffs

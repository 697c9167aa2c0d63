"""Exact rational building blocks for the expansion machinery.

Everything in this module is computed in ``fractions.Fraction`` arithmetic
and is independent of the tree variety: the signed weight sequence ``B(l)``
driving the square-root singular expansion of the tree function
``C(z) = z*exp(C(z))``, its explicit coefficients, and the linear forms
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
``tau_0 .. tau_L`` cost ``O(L^3)`` rational operations.  Values are cached
per index and shared across varieties; the caches are write-once-per-key
and safe under concurrent readers.  A form is instantiated in fixed point:
``sum_j floor(c_j floor(t_j 2^w))`` over the exact ``c_j``
(:meth:`SymbolicTauPolynomial.evaluate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import hp


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
        return sum((mu[j] * mu[i + 1 - j] for j in range(2, i)), Fraction(0))

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


@dataclass(frozen=True)
class CayleyCoefficient:
    """Coefficient of ``(1 - e*z)^(n/2)``, as ``rational_part * sqrt(2)^sqrt2_power``."""

    n: int
    rational_part: Fraction
    sqrt2_power: int

    def __post_init__(self):
        if self.sqrt2_power != self.n % 2:
            raise ValueError("odd half-integer powers carry exactly one sqrt(2) factor")

    def to_real(self, ctx):
        value = hp.convert(self.rational_part, ctx)
        if self.sqrt2_power:
            value *= ctx.sqrt(2)
        return value


def cayley_puiseux(n_max: int) -> list[CayleyCoefficient]:
    """Square-root expansion coefficients of the tree function at ``z = 1/e``.

    Index 0 gives 1, index 1 gives ``-sqrt(2)``, and index ``n >= 2`` gives
    ``-B(n) * 2^(n/2) / n!`` split into a rational part times ``sqrt(2)^(n mod 2)``.
    """
    out = []
    for n in range(n_max + 1):
        if n == 0:
            out.append(CayleyCoefficient(0, Fraction(1), 0))
        elif n == 1:
            out.append(CayleyCoefficient(1, Fraction(-1), 1))
        else:
            rat = -b_seq(n) * Fraction(2 ** (n // 2), math.factorial(n))
            out.append(CayleyCoefficient(n, rat, n % 2))
    return out


@dataclass
class SymbolicTauPolynomial:
    """Linear form ``sum_j c_j t_j`` over the odd-index expansion symbols."""

    coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for idx in self.coeffs:
            if idx % 2 == 0 or idx < 1:
                raise ValueError(f"only odd positive symbol indices allowed, got t_{idx}")
        self.coeffs = {i: Fraction(c) for i, c in self.coeffs.items() if c != 0}

    def evaluate(self, t_values: Sequence, ctx):
        """Instantiate the form at numeric values, indexed as ``t_values[j]``.

        A fixed-point sum ``sum_j floor(c_j floor(t_j 2^w)) 2^-w`` with
        ``w = hp.fixed_bits(ctx)``, rounded to ``ctx`` once at the end.
        """
        w = hp.fixed_bits(ctx)
        acc = sum(
            c.numerator * hp.to_fixed(t_values[idx], w, ctx) // c.denominator
            for idx, c in self.coeffs.items()
        )
        return hp.from_fixed(acc, w, ctx)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymbolicTauPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, Mapping):
            return self.coeffs == {i: Fraction(c) for i, c in other.items() if c != 0}
        return NotImplemented


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Bernoulli number ``B_m`` (``B_1 = -1/2``), from ``sum_{i<=m} binom(m+1, i) B_i = 0``."""
    if m == 0:
        return Fraction(1)
    # ascending calls find every smaller index cached, so the recursion stays shallow
    return -sum(math.comb(m + 1, i) * _bernoulli(i) for i in range(m)) / (m + 1)


@lru_cache(maxsize=None)
def _log_gamma_ratio(j: int, k: int) -> Fraction:
    """``n^-k`` coefficient of ``log(Gamma(n-a) n^(a+1) / Gamma(n+1))`` at ``a = j + 1/2``.

    That is ``(-1)^(k+1) (B_{k+1}(-a) - B_{k+1}(1)) / (k (k+1))`` for ``k >= 1``,
    where ``B_{k+1}(1) = B_{k+1}`` cancels the constant term of ``B_{k+1}(-a)``.
    """
    x = Fraction(-2 * j - 1, 2)
    poly = sum(math.comb(k + 1, i) * _bernoulli(i) * x ** (k + 1 - i) for i in range(k + 1))
    return (-1) ** (k + 1) * poly / (k * (k + 1))


@lru_cache(maxsize=None)
def _gamma_ratio(j: int, m: int) -> Fraction:
    """``c_m``: the ``n^-m`` coefficient of ``Gamma(n-a) n^(a+1) / Gamma(n+1)`` at ``a = j + 1/2``.

    The exponential of the :func:`_log_gamma_ratio` series ``s_k``, through
    ``m c_m = sum_{k=1}^{m} k s_k c_{m-k}``.
    """
    if m == 0:
        return Fraction(1)
    return sum((m - i) * _log_gamma_ratio(j, m - i) * _gamma_ratio(j, i) for i in range(m)) / m


@lru_cache(maxsize=None)
def tau_symbolic(ell: int) -> SymbolicTauPolynomial:
    """Asymptotic coefficient ``tau_l`` as a linear form in ``t_1, t_3, ..., t_{2l+1}``.

    ``tau_l = sum_{j=0}^{l} t_{2j+1} w_j c_{l-j}(j + 1/2)``: each odd term
    ``t_k (1 - z/rho)^(k/2)`` contributes ``rho^-n Gamma(n-k/2) / (Gamma(-k/2) Gamma(n+1))``
    to ``T_n``, so ``w_j = sqrt(pi) / Gamma(-j-1/2)`` and ``c_m(a)`` is the
    ``n^-m`` coefficient of ``Gamma(n-a) n^(a+1) / Gamma(n+1)``.  The log of
    that Gamma ratio has a Bernoulli-polynomial series (Tricomi & Erdelyi,
    Pacific J. Math. 1951; Flajolet & Sedgewick, Analytic Combinatorics,
    Thm VI.1), so every weight is an exact ``Fraction`` in polynomial time.
    """
    if ell < 0:
        raise ValueError(f"index must be non-negative, got {ell}")
    coeffs = {}
    weight = Fraction(-1, 2)  # w_0 = sqrt(pi) / Gamma(-1/2)
    for j in range(ell + 1):
        coeffs[2 * j + 1] = weight * _gamma_ratio(j, ell - j)
        weight *= Fraction(-2 * j - 3, 2)  # Gamma(x) = Gamma(x+1) / x
    return SymbolicTauPolynomial(coeffs)

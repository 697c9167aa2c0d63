"""Exact rational building blocks for the expansion machinery.

Everything in this module is computed in ``fractions.Fraction`` arithmetic
and is independent of the tree variety: partial Bell polynomials, the signed
weight sequence ``B(l)`` driving the square-root singular expansion of the
tree function ``C(z) = z*exp(C(z))``, its explicit coefficients, generalized
binomials, and the linear forms ``tau_l`` that convert singular-expansion
coefficients into asymptotic ones.

The ``tau`` weights come from the transfer of each odd singular term,
``[z^n](1-z)^(k/2) = Gamma(n-k/2) / (Gamma(-k/2) Gamma(n+1))``, and from the
Bernoulli-polynomial series of ``log(Gamma(n+a)/Gamma(n+b))`` (Tricomi &
Erdelyi, *The asymptotic expansion of a ratio of gamma functions*, Pacific
J. Math. 1951; Flajolet & Sedgewick, *Analytic Combinatorics*, Thm VI.1):
``tau_0 .. tau_L`` cost ``O(L^3)`` rational operations.  Values are cached
per index and shared across varieties; the caches are write-once-per-key
and safe under concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import hp


def bell_partial(n: int, k: int, xs: Sequence[Fraction]) -> Fraction:
    """Partial exponential Bell polynomial ``B_{n,k}(x_1..x_{n-k+1})``.

    Computed through the recurrence
    ``B_{n,k} = sum_i binom(n-1, i-1) x_i B_{n-i,k-1}``
    rather than by enumerating set partitions.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if len(xs) < n - k + 1:
        raise ValueError(f"need {n - k + 1} arguments, got {len(xs)}")
    xs = tuple(Fraction(x) for x in xs)
    # table[m][j] = B_{m,j}; only entries with m - j <= n - k are reachable
    # from B_{n,k} through the recurrence, and only those index into xs
    table = [[Fraction(0)] * (k + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for m in range(1, n + 1):
        for j in range(1, min(m, k) + 1):
            if m - j > n - k:
                continue
            acc = Fraction(0)
            for i in range(1, m - j + 2):
                acc += math.comb(m - 1, i - 1) * xs[i - 1] * table[m - i][j - 1]
            table[m][j] = acc
    return table[n][k]


@lru_cache(maxsize=None)
def _bell_unit(n: int, k: int) -> Fraction:
    """``B_{n,k}`` at the fixed argument sequence ``x_i = 1/(i+2)``."""
    if n == 0 and k == 0:
        return Fraction(1)
    if n == 0 or k == 0:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(1, n - k + 2):
        acc += math.comb(n - 1, i - 1) * Fraction(1, i + 2) * _bell_unit(n - i, k - 1)
    return acc


@lru_cache(maxsize=None)
def b_seq(ell: int) -> Fraction:
    """Signed Bell-polynomial weight ``B(l)`` of the singular expansion.

    ``B(1) = 1`` and for ``l > 1``

        B(l) = sum_{k=1}^{l-1} (-1)^k B_{l-1,k}(1/3,...,1/(l-k+2))
                               * prod_{i=0}^{k-1} (l + 2i)

    evaluated in nested (Ruffini-Horner) form: the products over ``i`` share
    prefixes, so the alternating sum collapses to ``-l * H_1`` with
    ``H_k = a_k - (l + 2k) H_{k+1}`` and ``a_k = B_{l-1,k}``.
    """
    if ell < 1:
        raise ValueError(f"index must be positive, got {ell}")
    if ell == 1:
        return Fraction(1)
    m = ell - 1
    horner = _bell_unit(m, m)
    for k in range(m - 1, 0, -1):
        horner = _bell_unit(m, k) - (ell + 2 * k) * horner
    return -ell * horner


def b_seq_direct(ell: int) -> Fraction:
    """Unfactored evaluation of ``B(l)``; cross-checks :func:`b_seq`."""
    if ell < 1:
        raise ValueError(f"index must be positive, got {ell}")
    if ell == 1:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(1, ell):
        prod = Fraction(1)
        for i in range(k):
            prod *= ell + 2 * i
        acc += (-1) ** k * _bell_unit(ell - 1, k) * prod
    return acc


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


def gen_binom(a, r: int) -> Fraction:
    """Generalized binomial ``binom(a, r) = prod_{j<r} (a - j) / r!``."""
    if r < 0:
        raise ValueError(f"lower index must be non-negative, got {r}")
    a = Fraction(a)
    prod = Fraction(1)
    for j in range(r):
        prod *= a - j
    return prod / math.factorial(r)


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
        """Instantiate the form at numeric values, indexed as ``t_values[j]``."""
        acc = ctx.mpf(0)
        for idx, c in self.coeffs.items():
            acc += hp.convert(c, ctx) * hp.convert(t_values[idx], ctx)
        return acc

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

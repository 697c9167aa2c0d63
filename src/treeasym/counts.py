"""Exact counting sequences for the three tree varieties.

Each variety is counted by a quadratic-time recurrence driven by divisor
sums ``s(j) = sum_{m | j} m T_m`` that are maintained incrementally (when
``T_i`` becomes known, ``i*T_i`` is added to every ``s`` entry at a multiple
of ``i``), which is the interchanged-summation form of the published
recurrences:

* rooted unlabelled non-plane ("Polya") trees, A000081:
  ``(n-1) T_n = sum_j s(j) T_{n-j}``;
* rooted identity trees (only the trivial root automorphism), A004111:
  same with the signed divisor sum ``s(j) = sum_{m | j} (-1)^(j/m+1) m T_m``;
* hierarchies (no unary nodes, size = number of leaves), A000669:
  ``n T_n = s(n)|_{m<n} + 2 sum_j s(j) T_{n-j} - s(n-1)``,
  where the final term collects the paired -1/2 corrections the inner sum
  picks up whenever ``T_1`` is hit.

All divisions must be exact; every sequence value is an arbitrary-size
non-negative integer, and each recurrence raises :class:`ArithmeticError`
when a division leaves a remainder.

Independent product/fixpoint forms of the same sequences are provided in
:func:`product_form_oracle` for cross-validation; they extract coefficients
degree by degree from

* ``T(z) = z * prod (1 - z^n)^(-T_n)`` (Polya trees),
* ``T(z) = z * prod (1 + z^n)^(T_n)`` (identity trees),
* ``2T = z - 1 + exp(sum_i T(z^i)/i)`` solved degree by degree (hierarchies).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

#: Largest index the (cubic-ish) oracle path accepts by default.
DEFAULT_ORACLE_BOUND = 200

VARIETY_NAMES = ("polya", "identity", "hierarchy")


@dataclass(frozen=True)
class CountSequence:
    """Counts ``values[0..n_max]`` of one variety; values are exact ints."""

    variety: str
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def polya_counts(n_max: int) -> CountSequence:
    """Rooted unlabelled non-plane trees by node count (0, 1, 1, 2, 4, 9, ...)."""
    return CountSequence("polya", _divisor_sum_recurrence(n_max, signed=False))


def identity_counts(n_max: int) -> CountSequence:
    """Rooted identity trees by node count (0, 1, 1, 1, 2, 3, 6, ...)."""
    return CountSequence("identity", _divisor_sum_recurrence(n_max, signed=True))


def _divisor_sum_recurrence(n_max: int, signed: bool) -> list[int]:
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    T = [0] * (n_max + 1)
    s = [0] * (n_max + 1)

    def publish(i: int) -> None:
        v = i * T[i]
        if signed:
            for m, j in enumerate(range(i, n_max + 1, i), start=1):
                s[j] += v if m % 2 == 1 else -v
        else:
            for j in range(i, n_max + 1, i):
                s[j] += v

    if n_max >= 1:
        T[1] = 1
        publish(1)
    rev = deque()  # T[n-1], ..., T[1]
    for n in range(2, n_max + 1):
        rev.appendleft(T[n - 1])
        total = sum(map(operator.mul, s[1:n], rev))
        T[n] = _divide_exactly(total, n - 1, n)
        publish(n)
    return T


def _divide_exactly(total: int, divisor: int, n: int) -> int:
    q, rem = divmod(total, divisor)
    if rem:
        raise ArithmeticError(f"inexact division at n={n}: {total} / {divisor}")
    return q


def hierarchy_counts(n_max: int) -> CountSequence:
    """Hierarchies by leaf count (0, 1, 1, 2, 5, 12, 33, ...).

    Size is the number of leaves.  The -1/2 correction attached to each
    inner-sum term with ``T_1`` pairs up across the doubled sum, so the
    result is integral; this is checked rather than assumed.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    T = [0] * (n_max + 1)
    s = [0] * (n_max + 1)

    def publish(i: int) -> None:
        v = i * T[i]
        for j in range(i, n_max + 1, i):
            s[j] += v

    if n_max >= 1:
        T[1] = 1
        publish(1)
    rev = deque()  # T[n-1], ..., T[1]
    for n in range(2, n_max + 1):
        rev.appendleft(T[n - 1])
        # s[n] currently holds sum_{m | n, m != n} m T_m since T_n is unset
        conv = sum(map(operator.mul, s[1:n], rev))
        T[n] = _divide_exactly(s[n] + 2 * conv - s[n - 1], n, n)
        publish(n)
    return CountSequence("hierarchy", T)


_RECURRENCES = {
    "polya": polya_counts,
    "identity": identity_counts,
    "hierarchy": hierarchy_counts,
}


def counts_for(variety: str, n_max: int) -> CountSequence:
    """Dispatch to the recurrence for ``variety`` (see ``VARIETY_NAMES``)."""
    try:
        return _RECURRENCES[variety](n_max)
    except KeyError:
        raise ValueError(f"unknown variety {variety!r}; expected one of {VARIETY_NAMES}")


def product_form_oracle(
    variety: str, n_max: int, *, bound: int = DEFAULT_ORACLE_BOUND
) -> CountSequence:
    """Recompute a counting sequence from its product/fixpoint definition.

    This path exists for cross-validation of the recurrences and is slower;
    ``n_max`` beyond ``bound`` is rejected.
    """
    if n_max > bound:
        raise ValueError(f"oracle bound exceeded: n_max={n_max} > bound={bound}")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    if variety == "polya":
        values = _product_extraction(n_max, negative_exponent=True)
    elif variety == "identity":
        values = _product_extraction(n_max, negative_exponent=False)
    elif variety == "hierarchy":
        values = _hierarchy_fixpoint(n_max)
    else:
        raise ValueError(f"unknown variety {variety!r}; expected one of {VARIETY_NAMES}")
    return CountSequence(variety, values)


def _product_extraction(n_max: int, negative_exponent: bool) -> list[int]:
    """Degree-by-degree coefficient extraction from ``z * prod (1 -+ z^n)^(+-T_n)``.

    ``T_n`` is the degree ``n-1`` coefficient of the partial product over
    factors with index below ``n``; factors of index ``>= n`` cannot touch it.
    """
    T = [0] * (n_max + 1)
    if n_max < 1:
        return T
    A = [0] * n_max  # partial product, degrees 0 .. n_max-1
    A[0] = 1
    for n in range(1, n_max + 1):
        T[n] = A[n - 1]
        if n == n_max or T[n] == 0:
            continue
        # multiply A by the degree-n factor expanded binomially
        factor = []
        j = 0
        while n * j <= n_max - 1:
            if negative_exponent:
                factor.append(math.comb(T[n] + j - 1, j))
            else:
                factor.append(math.comb(T[n], j))
            j += 1
        for d in range(n_max - 1, -1, -1):
            acc = A[d]
            for j in range(1, len(factor)):
                if n * j > d:
                    break
                acc += factor[j] * A[d - n * j]
            A[d] = acc
    return T


def _hierarchy_fixpoint(n_max: int) -> list[int]:
    """Solve ``2T = z - 1 + exp(S)`` with ``S = sum_i T(z^i)/i`` degree by degree.

    Writing ``E = exp(S)`` and splitting the top term out of the exponential
    recurrence gives, with everything below degree ``d`` known::

        U_d = (1/d) sum_{k<d} k S_k E_{d-k}
        V_d = sum_{i | d, i >= 2} T_{d/i} / i
        T_d = [d == 1] + U_d + V_d,   S_d = T_d + V_d,   E_d = U_d + S_d

    All intermediates have denominators dividing ``d``; ``T_d`` must be an
    integer, which is checked.
    """
    T = [0] * (n_max + 1)
    S = [Fraction(0)] * (n_max + 1)
    E = [Fraction(0)] * (n_max + 1)
    E[0] = Fraction(1)
    for d in range(1, n_max + 1):
        U = sum((k * S[k] * E[d - k] for k in range(1, d)), Fraction(0)) / d
        V = sum(
            (Fraction(T[d // i], i) for i in range(2, d + 1) if d % i == 0),
            Fraction(0),
        )
        value = (1 if d == 1 else 0) + U + V
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral hierarchy coefficient at {d}: {value}")
        T[d] = int(value)
        S[d] = T[d] + V
        E[d] = U + S[d]
    return T

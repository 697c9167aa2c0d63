"""Variety models: each tree family's perturbation factor as data.

Every variety handled here has a generating function ``T(z)`` satisfying
``T = zeta(z) * exp(T)`` (after an affine change of series for hierarchies),
with ``zeta`` analytic beyond the dominant singularity of ``T``.  The factor
is encoded as

    zeta(z) = c * z^a * exp( sigma*(1-z)/2 + sum_{i>=2} eps_i * T(z^i)/i )

with per-variety constants:

=========== ===== === ====== ============== ===============
variety      c     a  sigma   eps_i          post-transform
=========== ===== === ====== ============== ===============
polya        1     1   0      +1             none
identity     1     1   0      (-1)^(i-1)     none
hierarchy    1/2   0  -1      +1             affine (below)
=========== ===== === ====== ============== ===============

For hierarchies the functional equation ``2T = z - 1 + exp(sum T(z^i)/i)``
is brought into the standard shape through ``T~ = T + (1-z)/2``; expanding
``1 - z = (1-rho) + rho*(1 - z/rho)`` shows that only the first and third
singular-expansion coefficients move when translating back:
``t_0 = 1 - (1-rho)/2`` and ``t_2 -= rho/2``.  Note the sign of the shift
inside the exponential: substituting ``T~`` into the functional equation
forces ``sigma = -1`` (exp of ``-(1-z)/2``); the opposite sign does not
admit a solution of ``zeta(rho) = 1/e`` at all, which
:func:`hierarchy_spec_flipped_shift` exists to demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import hp
from .counts import CountSequence, hierarchy_counts, identity_counts, polya_counts
from .series import (
    PowerSeries,
    series_eval_deriv_tail,
    series_exp,
    series_scale,
    series_shift,
)


@dataclass(frozen=True)
class VarietySpec:
    """Data defining one variety's perturbation factor ``zeta``."""

    name: str
    prefactor: Fraction           # c
    z_exponent: int               # a, 0 or 1
    shift_sign: int               # sigma in {-1, 0}
    alternating_signs: bool       # eps_i = (-1)^(i-1) if True else +1
    post_transform: bool          # hierarchy-style affine correction of t_0, t_2
    count_source: Callable[[int], CountSequence]

    def eps(self, i: int) -> int:
        if self.alternating_signs:
            return 1 if i % 2 == 1 else -1
        return 1


POLYA = VarietySpec(
    name="polya",
    prefactor=Fraction(1),
    z_exponent=1,
    shift_sign=0,
    alternating_signs=False,
    post_transform=False,
    count_source=polya_counts,
)

IDENTITY = VarietySpec(
    name="identity",
    prefactor=Fraction(1),
    z_exponent=1,
    shift_sign=0,
    alternating_signs=True,
    post_transform=False,
    count_source=identity_counts,
)

HIERARCHY = VarietySpec(
    name="hierarchy",
    prefactor=Fraction(1, 2),
    z_exponent=0,
    shift_sign=-1,
    alternating_signs=False,
    post_transform=True,
    count_source=hierarchy_counts,
)

VARIETIES: dict[str, VarietySpec] = {s.name: s for s in (POLYA, IDENTITY, HIERARCHY)}


def get_variety(name: str) -> VarietySpec:
    try:
        return VARIETIES[name]
    except KeyError:
        raise ValueError(f"unknown variety {name!r}; expected one of {sorted(VARIETIES)}")


def hierarchy_spec_flipped_shift() -> VarietySpec:
    """Debug variant with the shift sign inside the exponential flipped.

    Kept for comparison: with ``sigma = +1`` the factor never crosses
    ``1/e`` on the bracketing interval, so the singularity solver reports
    a bracketing failure instead of a root.
    """
    return VarietySpec(
        name="hierarchy-flipped-shift",
        prefactor=Fraction(1, 2),
        z_exponent=0,
        shift_sign=+1,
        alternating_signs=False,
        post_transform=True,
        count_source=hierarchy_counts,
    )


def zeta_exponent(spec: VarietySpec, counts: CountSequence, N: int) -> PowerSeries:
    """Exact series of ``sigma*(1-z)/2 + sum_{i>=2} eps_i T(z^i)/i`` to order ``N``."""
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")
    g = [Fraction(0)] * (N + 1)
    if spec.shift_sign:
        g[0] += Fraction(spec.shift_sign, 2)
        if N >= 1:
            g[1] -= Fraction(spec.shift_sign, 2)
    for i in range(2, N + 1):
        e = spec.eps(i)
        for n in range(1, N // i + 1):
            g[i * n] += Fraction(e * counts[n], i)
    return PowerSeries(tuple(g))


def zeta_series(spec: VarietySpec, counts: CountSequence, N: int, ctx) -> PowerSeries:
    """Numeric series of ``zeta`` to order ``N`` at the context's precision.

    The exponent is assembled exactly and converted to ``ctx`` only at the
    exponential step; the prefactor ``c * z^a`` is applied afterwards.
    """
    g = zeta_exponent(spec, counts, N)
    expo = series_exp(g, ctx)
    out = series_scale(expo, hp.convert(spec.prefactor, ctx))
    return series_shift(out, spec.z_exponent)


def zeta_derivatives(
    spec: VarietySpec, counts: CountSequence, x, r_max: int, N: int, ctx
) -> tuple:
    """Term-wise derivatives ``zeta^(0)(x) .. zeta^(r_max)(x)`` of the order-``N`` series."""
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    zeta = zeta_series(spec, counts, N, ctx)
    return tuple(series_eval_deriv_tail(zeta, x, r, ctx)[0] for r in range(r_max + 1))


def functional_residual_exact(spec: VarietySpec, counts: CountSequence, N: int) -> PowerSeries:
    """Exact residual ``zeta * exp(T~) - T~`` as a rational series.

    ``T~`` is the shifted series ``T - sigma*(1-z)/2`` (equal to ``T`` when
    ``sigma = 0``).  The exponentials are combined before expanding, which
    keeps every coefficient rational; by construction the constant term of
    the combined exponent vanishes.  The residual must be zero through order
    ``N - 2`` when the counts satisfy the variety's functional equation.
    """
    if counts.n_max < N:
        raise ValueError(f"counts cover n <= {counts.n_max}, need {N}")
    t_shift = [Fraction(counts[n]) for n in range(N + 1)]
    if spec.shift_sign:
        t_shift[0] -= Fraction(spec.shift_sign, 2)
        if N >= 1:
            t_shift[1] += Fraction(spec.shift_sign, 2)
    t_tilde = PowerSeries(tuple(t_shift))
    g = zeta_exponent(spec, counts, N)
    combined = PowerSeries(tuple(a + b for a, b in zip(g.coeffs, t_tilde.coeffs)))
    expo = series_exp(combined)  # exact: the constant terms cancel
    prod = series_shift(series_scale(expo, spec.prefactor), spec.z_exponent)
    return PowerSeries(tuple(p - t for p, t in zip(prod.coeffs, t_tilde.coeffs)))

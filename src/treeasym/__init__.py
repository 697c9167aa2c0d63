"""Exact counts, dominant singularities and full singular/asymptotic
expansions for tree varieties whose generating function satisfies
``T(z) = zeta(z) * exp(T(z))``.

Shipped varieties: rooted unlabelled non-plane trees ("polya", A000081),
rooted identity trees ("identity", A004111) and hierarchies ("hierarchy",
A000669, sized by leaf count).
"""

from .counts import (
    VARIETIES,
    VARIETY_NAMES,
    CountSequence,
    VarietySpec,
    counts_for,
    get_variety,
    product_form_oracle,
)
from .expansions import (
    AsymptoticExpansion,
    ErrorTable,
    PuiseuxExpansion,
    VarietyExpansion,
    error_table,
    estimate_count,
    expand_variety,
    puiseux_coeffs,
    tau_coeffs,
)
from .kernels import b_seq, tau_symbolic
from .series import (
    PowerSeries,
    TruncationWarning,
    series_eval_deriv,
    series_exp,
    series_mul,
    series_substitute_power,
)
from .solver import NoBracketError, RhoResult, SolverError, StalledError, solve_rho
from .varieties import zeta_derivatives, zeta_series

__version__ = "0.1.0"

__all__ = [
    "AsymptoticExpansion",
    "CountSequence",
    "ErrorTable",
    "NoBracketError",
    "PowerSeries",
    "PuiseuxExpansion",
    "RhoResult",
    "SolverError",
    "StalledError",
    "TruncationWarning",
    "VARIETIES",
    "VARIETY_NAMES",
    "VarietyExpansion",
    "VarietySpec",
    "b_seq",
    "counts_for",
    "error_table",
    "estimate_count",
    "expand_variety",
    "get_variety",
    "product_form_oracle",
    "puiseux_coeffs",
    "series_eval_deriv",
    "series_exp",
    "series_mul",
    "series_substitute_power",
    "solve_rho",
    "tau_coeffs",
    "tau_symbolic",
    "zeta_derivatives",
    "zeta_series",
]

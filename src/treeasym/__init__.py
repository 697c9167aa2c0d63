"""Exact counts, dominant singularities and full singular/asymptotic
expansions for tree varieties whose generating function satisfies
``T(z) = zeta(z) * exp(T(z))``.

Shipped varieties: rooted unlabelled non-plane trees ("polya", A000081),
rooted identity trees ("identity", A004111) and hierarchies ("hierarchy",
A000669, sized by leaf count).
"""

from importlib import import_module

#: Module of each public name; the names load on first access (PEP 562), so
#: ``import treeasym`` itself loads no submodule and mpmath only comes in
#: with the expansion pipeline.
_EXPORTS = {
    **dict.fromkeys(("VARIETIES", "VARIETY_NAMES", "CountSequence", "VarietySpec",
                     "counts_for", "get_variety", "product_form_oracle"), "counts"),
    **dict.fromkeys(("AsymptoticExpansion", "ErrorTable", "PuiseuxExpansion",
                     "VarietyExpansion", "error_table", "estimate_count", "expand_variety",
                     "puiseux_coeffs", "tau_coeffs"), "expansions"),
    **dict.fromkeys(("NoBracketError", "SolverError", "StalledError", "TruncationWarning"),
                    "errors"),
    **dict.fromkeys(("b_seq", "tau_symbolic"), "kernels"),
    **dict.fromkeys(("PowerSeries", "series_exp"), "series"),
    **dict.fromkeys(("RhoResult", "solve_rho"), "solver"),
    **dict.fromkeys(("zeta_derivatives", "zeta_series"), "varieties"),
}
_SUBMODULES = frozenset(("cli", "counts", "errors", "expansions", "hp", "kernels", "oeis",
                         "records", "series", "solver", "varieties"))

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

"""Output checker shared by all workloads.

Reference data comes from ``tests/reference_values.py`` (50-digit ``rho``,
19-digit ``t_0..t_18`` and ``tau_0..tau_18``, sequence prefixes and the
hierarchy error grid) and from the bundled OEIS b-files, which the checker
parses itself so that it does not depend on the code under test.

A numeric value passes when it agrees with its reference to at least the
digits it certifies, capped by what the reference can confirm: 49 digits
for the 50-digit ``rho`` (rounded in its last place), and for the 19-digit
``t`` and ``tau`` tables the 12 and 10 digits the repository's acceptance
tests hold them to; those tables agree with 40-digit results to only 13 to
17 digits.  Agreement is computed here, independently of ``treeasym.hp``.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field

import mpmath

MP = mpmath.MPContext()
MP.dps = 120

RHO_DIGITS_CAP = 50   # length of the RHO_50 references
TAU_DIGITS_CAP = 19   # length of the TAU_TABLE references
CONFIRMABLE = {"rho": 49, "t": 12, "tau": 10}
GRID_TOLERANCE = 0.05
#: (size, order) cells whose printed value is the precision floor of the
#: published coefficients; a recomputed error must be at most the printed one
PRECISION_FLOOR = {(500, 8)}
DIGIT_KEYS = ("rho_cert_digits", "rho_true_digits", "tau0_cert_digits", "tau_true_digits")


@dataclass
class Verdict:
    """Failures of one op, and the digit metrics of its numeric outputs."""

    failures: list[str] = field(default_factory=list)
    digits: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def load_references(path):
    spec = importlib.util.spec_from_file_location("bench_reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_b_file(text: str) -> dict[int, int]:
    values = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 2 and not line.lstrip().startswith("#"):
            values[int(fields[0])] = int(fields[1])
    return values


def agreement(value, reference) -> int:
    """Leading decimal digits on which ``value`` and ``reference`` agree (max 120)."""
    a, b = MP.mpf(value), MP.mpf(reference)
    if a == b:
        return MP.dps
    rel = abs(a - b) / max(abs(a), abs(b))
    return max(0, min(MP.dps, int(MP.floor(-MP.log10(rel)))))


class Checker:
    def __init__(self, refs, b_files: dict[str, dict[int, int]]):
        self.refs = refs
        self.b_files = b_files  # variety -> {index: value}

    def value(self, verdict: Verdict, label: str, value, certified: int, reference: str,
              confirmable: int) -> int:
        """Check one value against its reference within its certified digits."""
        got = agreement(value, reference)
        need = min(certified, confirmable)
        if got < need:
            verdict.failures.append(
                f"{label}: certifies {certified} digits but agrees with the reference "
                f"to {got} ({MP.nstr(MP.mpf(value), 25)} vs {reference})"
            )
        return got

    def expansion(self, variety: str, rho, t, tau) -> Verdict:
        """``rho`` is ``(value, certified)``; ``t`` and ``tau`` are lists of such pairs."""
        verdict = Verdict()
        rho_true = self.value(verdict, f"{variety} rho", *rho, self.refs.RHO_50[variety],
                              CONFIRMABLE["rho"])
        for n, (value, cert) in enumerate(t[: len(self.refs.T_TABLE[variety])]):
            self.value(verdict, f"{variety} t_{n}", value, cert, self.refs.T_TABLE[variety][n],
                       CONFIRMABLE["t"])
        tau_true = []
        for n, (value, cert) in enumerate(tau[: len(self.refs.TAU_TABLE[variety])]):
            ref = self.refs.TAU_TABLE[variety][n]
            tau_true.append(self.value(verdict, f"{variety} tau_{n}", value, cert, ref,
                                       CONFIRMABLE["tau"]))
        verdict.digits = {
            "rho_cert_digits": rho[1],
            "rho_true_digits": min(rho_true, RHO_DIGITS_CAP),
            "tau0_cert_digits": tau[0][1],
            "tau_true_digits": min(tau_true + [TAU_DIGITS_CAP]),
        }
        return verdict

    def library_expansion(self, result) -> Verdict:
        """Check a ``VarietyExpansion`` returned by ``expand_variety``."""
        r, p, a = result.rho_result, result.puiseux, result.asym
        return self.expansion(
            r.variety,
            (r.rho, r.certified_digits),
            list(zip(p.t, p.certified_digits)),
            list(zip(a.tau, a.certified_digits)),
        )

    def error_grid(self, verdict: Verdict, label: str, relative_errors: dict) -> None:
        """Compare ``{(size, order): relative_error}`` with the printed hierarchy grid.

        Same rule as the repository's acceptance test: within 5%, except the
        precision-floor cell, which must be at least as small as printed.
        """
        for order, row in self.refs.ERROR_GRID.items():
            for size, reference in zip(self.refs.ERROR_GRID_SIZES, row):
                if (size, order) not in relative_errors:
                    continue
                ours, printed = MP.mpf(relative_errors[(size, order)]), MP.mpf(reference)
                if (size, order) in PRECISION_FLOOR:
                    bad = ours > printed
                else:
                    bad = abs(ours - printed) > GRID_TOLERANCE * printed
                if bad:
                    verdict.failures.append(
                        f"{label}: relative error at n={size}, order {order} is "
                        f"{MP.nstr(ours, 6)}, printed {reference}"
                    )
        for key, value in relative_errors.items():
            if not 0 <= MP.mpf(value) < 1:
                verdict.failures.append(f"{label}: relative error {value} at {key} outside [0, 1)")

    def counts(self, verdict: Verdict, label: str, variety: str, values) -> None:
        """Exact comparison with the listed prefix and the b-file."""
        prefix = self.refs.PREFIXES[variety]
        if list(values[: len(prefix)]) != prefix[: len(values)]:
            verdict.failures.append(f"{label}: prefix differs from the listed values")
        b_file = self.b_files[variety]
        wrong = [n for n, v in enumerate(values) if n in b_file and b_file[n] != v]
        if wrong:
            verdict.failures.append(f"{label}: {len(wrong)} counts differ from the b-file, first n={wrong[0]}")

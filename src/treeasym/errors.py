"""Exception and warning classes shared by the pipeline and the CLI.

This module imports nothing, so the CLI can map solver failures to exit
code 3 and truncation warnings to ``warning:`` lines without loading the
expansion pipeline or mpmath.  ``solver`` re-exports the solver errors and
``series`` re-exports :class:`TruncationWarning` under their usual names.
"""


class SolverError(RuntimeError):
    """Base class for singularity-solver failures."""


class NoBracketError(SolverError):
    """The target value is not crossed on the bracketing interval."""


class StalledError(SolverError):
    """Newton iteration failed to contract to the requested tolerance."""


class TruncationWarning(UserWarning):
    """The count reach proves fewer digits than requested (``RhoResult.truncation_digits``)."""

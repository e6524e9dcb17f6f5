"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DomainError and ConfigurationError -> 1,
ResolutionError -> 2, usage problems -> 64.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """Inconsistent configuration (mismatched path length, bad grid, ...)."""


class IncompleteSpectrumError(ConfigurationError):
    """A spectrum does not reach far enough for the requested quantity."""


class ResolutionError(RuntimeError):
    """A computation failed its internal convergence or resolution gate."""


class UnderflowDiagnostic(ResolutionError):
    """Every Monte-Carlo term rounded to zero; enable importance sampling."""

"""Exception hierarchy shared across the package."""


class TailDepError(Exception):
    """Base class for all taildep errors."""


class ParameterError(TailDepError, ValueError):
    """A parameter is outside its admissible range (theta, p, grid size, ...)."""


class DomainError(TailDepError, ValueError):
    """An evaluation point is outside the function's domain."""


class DataError(TailDepError, ValueError):
    """Input data is malformed or insufficient (CSV panels, sample arrays)."""


class ConfigError(TailDepError, ValueError):
    """An estimator/pipeline configuration is inconsistent with the data."""


class InfeasibleError(TailDepError, ValueError):
    """A constraint system admits no solution (incompatible pins)."""


class SolverError(TailDepError, RuntimeError):
    """No certified answer: the avg_td curve misses its dual bound, the simplex
    stopped (iteration limit, singular pivot), or a curve failed validation."""

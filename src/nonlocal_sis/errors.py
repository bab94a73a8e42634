"""Exception types shared across the package.

Solver failures carry diagnostics (residual, iteration count) so callers
can embed them in reports instead of losing them in tracebacks.
"""

from __future__ import annotations

__all__ = [
    "NonlocalSISError", "InvalidArgumentError", "InvalidCoefficientError",
    "InvalidStateError", "InvalidConfigError", "InvalidWindowError",
    "InvalidBracketError", "PreconditionError", "SolverFailure",
    "SolverInconsistency", "NoEndemicState", "NoPositiveState",
    "UniquenessViolation", "IntegrationFailure", "ConfigError",
]


class NonlocalSISError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(NonlocalSISError, ValueError):
    """Malformed input: bad sizes, empty grids, inconsistent shapes."""


class InvalidCoefficientError(NonlocalSISError, ValueError):
    """Coefficient field violates strict positivity."""


class InvalidStateError(NonlocalSISError, ValueError):
    """Population state contains negative components."""


class InvalidConfigError(NonlocalSISError, ValueError):
    """Integrator or experiment configuration violates its constraints."""


class InvalidWindowError(NonlocalSISError, ValueError):
    """Rate-fitting window contains nonpositive values or lies outside the data."""


class InvalidBracketError(NonlocalSISError, ValueError):
    """The growth rate has no root on (0, inf): no critical rate exists."""


class PreconditionError(NonlocalSISError):
    """A documented precondition of an operation does not hold."""


class _Diagnosed(NonlocalSISError):
    """An error with the solve's diagnostics.

    Attributes
    ----------
    residual : float or None
        Residual reached (for a failure, the best one before giving up).
    iterations : int or None
        Iterations spent.
    """

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SolverFailure(_Diagnosed):
    """Solver did not reach its target accuracy."""


class SolverInconsistency(_Diagnosed):
    """Two independent solution routes disagree beyond tolerance."""


class NoEndemicState(NonlocalSISError):
    """Endemic equilibrium requested but the growth rate is not positive."""


class NoPositiveState(NonlocalSISError):
    """Logistic stationary problem has no positive solution."""


class UniquenessViolation(SolverInconsistency):
    """Monotone iteration limits from below and above disagree."""


class IntegrationFailure(_Diagnosed):
    """Time integration produced NaN/overflow or a meaningfully negative state;
    ``residual`` is the dip (None if non-finite), ``iterations`` the step."""


class ConfigError(NonlocalSISError, ValueError):
    """Experiment configuration is malformed or semantically invalid.

    ``line`` is set for parse errors, ``key`` for semantic errors.
    """

    def __init__(self, message: str, line: int | None = None,
                 key: str | None = None):
        super().__init__(message)
        self.line = line
        self.key = key

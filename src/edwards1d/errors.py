"""Exception taxonomy shared by every module.

Validation of caller input raises ValueError subclasses; failures of the
numerics themselves raise RuntimeError subclasses so callers can tell a bad
argument from a computation that gave up.
"""


class EdwardsError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(EdwardsError, ValueError):
    """Input outside the mathematical domain of the operation."""


class RangeError(EdwardsError, ValueError):
    """Input outside the documented numerical range of the implementation."""


class SolverError(EdwardsError, RuntimeError):
    """Iterative solver failed to bracket or converge; message carries state."""


class NumericError(EdwardsError, RuntimeError):
    """Numerical scheme failed (non-finite state, failed identity or root check)."""


class AccuracyError(NumericError):
    """Requested evaluation cannot meet its accuracy contract.

    Carries the achieved bound in ``bound`` when known.
    """

    def __init__(self, message: str, bound: float | None = None):
        super().__init__(message)
        self.bound = bound

    def __reduce__(self):
        # pickling keeps only args by default, which would drop bound on
        # the way back from a pool worker
        return type(self), (self.args[0], self.bound)


class HorizonError(EdwardsError, RuntimeError):
    """Too many Monte Carlo paths still alive at the simulation horizon."""


class DegeneracyError(EdwardsError, RuntimeError):
    """Importance weights have degenerated (effective sample size too small)."""


class ConditioningError(EdwardsError, RuntimeError):
    """Rejection-based conditioning accepted too few paths to be usable."""

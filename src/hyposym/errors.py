"""Exception types shared across the package.

The CLI maps these onto exit codes, so the distinction matters: user/input
problems (DomainError, CapabilityError) are usage errors and exit 1, while
NumericError and ConsistencyError signal that a computation could not be
trusted and exit 3.
"""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class CapabilityError(DomainError):
    """Request exceeds a hard implementation cap (e.g. matrix size m > 6)."""


class NumericError(RuntimeError):
    """A numerical kernel failed (non-convergence, non-finite state)."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""

"""Exception hierarchy shared across the package, and the integer rule
that its argument checks share.

The CLI maps these onto process exit codes: InvalidArgumentError -> 1,
DataError and its subclasses BoundaryError and DegenerateInputError -> 2,
NumericalError -> 3.  Verification failures raise nothing: ``locpacf
verify`` returns 4 itself.
"""

import numbers

__all__ = [
    "LocpacfError",
    "InvalidArgumentError",
    "DataError",
    "BoundaryError",
    "DegenerateInputError",
    "NumericalError",
]


class LocpacfError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(LocpacfError, ValueError):
    """An argument violates a documented precondition."""


class DataError(LocpacfError):
    """Input data cannot be used (parse failure, NaN/inf, too short)."""


class BoundaryError(DataError):
    """A window exceeds the series bounds under the strict policy."""


class DegenerateInputError(DataError):
    """Input has no usable variation (e.g. zero sample variance)."""


class NumericalError(LocpacfError):
    """A linear system stayed unusable after maximum regularization."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


def _is_int(value) -> bool:
    """A Python or numpy integer (each a ``numbers.Integral``); a bool is not
    one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

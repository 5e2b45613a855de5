"""Exception hierarchy shared across the package, and the integer rule,
integer check and length ceiling that its argument checks share.

The CLI maps these onto process exit codes: InvalidArgumentError -> 1,
DataError and its subclasses BoundaryError and DegenerateInputError -> 2,
NumericalError -> 3.  Verification failures raise nothing: ``locpacf
verify`` returns 4 itself.
"""

import math
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
    """A linear system stayed unusable after maximum regularization.

    No library function raises it: the estimators drop such a point and
    report it.  The CLI keeps exit code 3 for it.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


# The longest series, segment or smoothing span any check accepts: far
# above any host's memory and far below numpy's index limit (2**63 - 1), so
# a length beyond any array is refused with its value instead of failing
# inside numpy.
MAX_LENGTH = 2**48


def _is_int(value) -> bool:
    """A Python or numpy integer (each a ``numbers.Integral``); a bool is not
    one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _holds_bool(values) -> bool:
    """Whether a list or tuple holds a bool, Python's or numpy's, at any
    depth: the dtype of its array does not show one ([1, True] is int64)."""
    return isinstance(values, (list, tuple)) and any(
        isinstance(v, bool) or getattr(v, "dtype", None) == bool or _holds_bool(v)
        for v in values
    )


def _check_int(
    value, what: str, low: float = -math.inf, high: float = math.inf, rule: str = ""
) -> int:
    """value as an int if it is an integer (``_is_int``) in [low, high];
    otherwise the error reads "{what} must be an integer" or "{what} {rule}",
    the rule "must be >= low" by default."""
    if not _is_int(value):
        raise InvalidArgumentError(f"{what} must be an integer")
    if not low <= value <= high:
        raise InvalidArgumentError(f"{what} {rule or f'must be >= {low}'}")
    return int(value)

"""The TimeSeries container used throughout the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["TimeSeries", "as_series"]

MIN_LENGTH = 8

# Points per chunk of the package's streaming loops: the windowed
# estimator takes its windows, and the long-CSV writer its points and the
# series writer its values, this many at a time, so their memory is
# bounded by the chunk rather than by the length of the series.
_CHUNK_POINTS = 2048


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued sequence observed at t = 0..T-1.

    Rescaled time maps each index t to z = t/T.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise DataError(f"series must be one-dimensional, got shape {vals.shape}")
        if len(vals) < 1:
            raise DataError("series is empty")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DataError(f"non-finite value at index {bad}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def T(self) -> int:
        return len(self.values)

    def require_length(self, minimum: int = MIN_LENGTH) -> "TimeSeries":
        if self.T < minimum:
            raise DataError(f"series too short for estimation: T={self.T} < {minimum}")
        return self


def as_series(x) -> TimeSeries:
    """Coerce an array-like or TimeSeries into a TimeSeries."""
    if isinstance(x, TimeSeries):
        return x
    return TimeSeries(np.asarray(x, dtype=float))

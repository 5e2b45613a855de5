"""Taper kernels, and the one routine that sums weighted windows.

Two kernels are supported: the rectangular kernel h(x) = 1 and the
Epanechnikov kernel h(x) = (3/4)(1 - (2x - 1)^2), both on [0, 1] and
symmetric about 1/2.  Callers evaluate ``h`` at the points they keep;
the tapered periodogram forms its normalizer H from those values.

``_window_sums`` is the package's one moving sum, in the bits of
``np.correlate``: the windowed estimator's sums and the running mean of
the wavelet periodogram are both its weighted sums of sliding windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError

__all__ = ["TaperKernel", "RECTANGULAR", "EPANECHNIKOV", "get_kernel"]


def _rect(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)


def _epanechnikov(x):
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    return np.where(inside, 0.75 * (1.0 - (2.0 * x - 1.0) ** 2), 0.0)


@dataclass(frozen=True)
class TaperKernel:
    """A named nonnegative taper h on [0, 1]."""

    kind: str
    h: Callable[[np.ndarray], np.ndarray] = field(repr=False)


RECTANGULAR = TaperKernel("rectangular", _rect)
EPANECHNIKOV = TaperKernel("epanechnikov", _epanechnikov)

_BY_NAME = {k.kind: k for k in (RECTANGULAR, EPANECHNIKOV)}


def get_kernel(name: str | TaperKernel) -> TaperKernel:
    if isinstance(name, TaperKernel):
        return name
    try:
        return _BY_NAME[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown kernel {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


# numpy's correlate sums kernels of at most this many taps in an unrolled
# left-to-right loop instead of the BLAS dot it uses for longer ones
_SMALL_KERNEL = 11


def _window_sums(rows, weights, start: int, stop: int, step: int = 1) -> np.ndarray:
    """sums[..., j] = sum_k rows[..., start + j*step + k] * weights[..., k].

    ``rows`` may have any leading axes, and ``weights`` (the last axis the
    window) broadcasts against them.  Only the windows starting at start,
    start + step, ... below stop are summed, each in the bits of
    ``np.correlate(row, w, "valid")`` at its start: vecdot calls the BLAS
    dot that correlate calls per entry, and short kernels repeat
    correlate's unrolled sum.  The windows are a read-only view of
    ``rows``, never a copy.
    """
    L = weights.shape[-1]
    windows = sliding_window_view(rows, L, axis=-1)[..., start:stop:step, :]
    if L > _SMALL_KERNEL:
        # each weight row copied to a 64-byte boundary: OpenBLAS's dot ran 25%
        # faster there (L=4096, x86-64) than on a row that the heap offsets
        buf = np.empty(weights.shape[:-1] + (1, (L + 7) // 8 * 8 + 8))
        i = -buf.ctypes.data % 64 // 8
        buf[..., i : i + L] = weights[..., None, :]
        return np.vecdot(windows, buf[..., i : i + L])
    weights = weights[..., None, :]  # one weight row for every window
    sums = np.zeros(np.broadcast_shapes(windows.shape[:-1], weights.shape[:-1]))
    for k in range(L):
        sums += windows[..., k] * weights[..., k]
    return sums

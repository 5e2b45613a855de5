"""Taper kernels used to weight windows of observations.

Two kernels are supported: the rectangular kernel h(x) = 1 and the
Epanechnikov kernel h(x) = (3/4)(1 - (2x - 1)^2), both on [0, 1] and
symmetric about 1/2.  Callers evaluate ``h`` at the points they keep;
the tapered periodogram forms its normalizer H from those values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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

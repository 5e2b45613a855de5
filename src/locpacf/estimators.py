"""Local partial autocorrelation estimators.

Two estimators are provided.  The windowed estimator computes the
classical partial autocorrelation from a kernel-weighted window of
observations around each requested time point.  The plug-in estimator
replaces every population autocovariance in the prediction-theoretic
representation

    q(z, tau) = phi_{tau,tau}(z) * sqrt(backward MSPE / forward MSPE)

with the wavelet local autocovariance estimate, solving a local
Yule-Walker system for phi and two prediction systems for the MSPEs.

Every estimator, ``classical_pacf`` too, first scales the series by the
power of two that brings its largest magnitude into [0.5, 1).  A partial
autocorrelation does not depend on scale, and the scaling commutes with
every rounding, so the estimates keep their bits while no product or sum
of the series can overflow or go subnormal.  Each assumes mean-zero input;
``demean=True`` subtracts the mean that each one states first.

``EstimatorConfig`` names an estimator and its knobs, and its
``estimate_stack`` is the one place that picks an estimator and calls it,
for a stack of series of one length; ``estimate`` is its one-series case,
and ``_study`` checks and sizes a Monte-Carlo study of it.
Each local estimator has one stack routine, and its public function is
that routine's one-series case.  Both routines read their series through
one intake and end in one stacked result, ``_GridStack``, which
``grids()`` splits into one ``LpacfGrid`` per series and the Monte-Carlo
scorer reads whole.  Every series of a stack keeps the bits of a call on
it alone: every row, column and point is computed on its own.
Estimation at distinct time points is independent; the routines
vectorize over points and produce deterministic output ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    NumericalError,
    _check_int,
    _holds_bool,
    _is_int,
)
from .kernels import EPANECHNIKOV, _window_sums, get_kernel
from .series import _CHUNK_POINTS, MIN_LENGTH, as_series
from .spectral import (
    LocalAcvGrid,
    _check_lacv_lag,
    _checked_max_scale,
    _checked_span,
    _dyadic_length,
    local_autocovariance,
    raw_wavelet_periodogram,
    smooth_and_correct,
)

__all__ = [
    "confidence_halfwidth",
    "default_bandwidth",
    "levinson_pacf",
    "classical_pacf",
    "windowed_lpacf",
    "prediction_system",
    "PredictionSystem",
    "wavelet_lpacf",
    "LpacfGrid",
    "EstimatorConfig",
]

_RIDGE_START = 1e-8
_RIDGE_STOP = 1e-2
_PACF_SLACK = 1e-6
# the ridge levels above 0: eps doubling from _RIDGE_START while at most
# _RIDGE_STOP, each exact, as a scalar doubling would give them
_RIDGE_EPS = _RIDGE_START * 2.0 ** np.arange(64)
_RIDGE_EPS = _RIDGE_EPS[_RIDGE_EPS <= _RIDGE_STOP]
# how far the smallest eigenvalue of a unit-diagonal scaling must clear 0
# for ``_certify``: far above the rounding bound that it proves against
_CERTIFICATE_MARGIN = 1e-8
_WAVELET_MAX_LAG = 10  # the deepest lag of the wavelet estimator


def confidence_halfwidth(L: int | np.ndarray) -> float | np.ndarray:
    """Approximate 95% half-width 1.96/sqrt(L) for a window of L points;
    L may be an array of window lengths."""
    L = np.asarray(L)
    if np.any(L < 1):
        raise InvalidArgumentError(f"L={L} must be >= 1")
    return 1.96 / np.sqrt(L)


def default_bandwidth(T: int) -> int:
    """Default window width: round(T^0.8) rounded to an even number."""
    return max(4, 2 * round(T**0.8 / 2))


def levinson_pacf(gamma: np.ndarray) -> np.ndarray:
    """Order-recursive Yule-Walker solve; returns pacf at lags 1..len-1,
    clipped to [-1, 1].

    ``gamma`` holds autocovariances at lags 0..max_lag.  The input may be
    batched with shape (max_lag+1, npoints); the recursion then runs for
    every column at once.
    """
    gamma = np.asarray(gamma, dtype=float)
    squeeze = gamma.ndim == 1
    if squeeze:
        gamma = gamma[:, None]
    if np.any(gamma[0] <= 0.0):
        raise DegenerateInputError("zero sample variance at lag 0")
    pacf = np.clip(_levinson(gamma), -1.0, 1.0)
    return pacf[:, 0] if squeeze else pacf


def _levinson(gamma: np.ndarray) -> np.ndarray:
    """The reflection coefficients at lags 1..max_lag of the columns of a
    (max_lag+1, npoints) autocovariance table, unclipped; a column with a
    vanishing prediction error gets 0 from there on."""
    max_lag = gamma.shape[0] - 1
    npts = gamma.shape[1]
    pacf = np.zeros((max_lag, npts))
    phi = np.zeros((max_lag, npts))
    v = gamma[0].copy()
    for k in range(1, max_lag + 1):
        acc = gamma[k].copy()
        for j in range(1, k):
            acc -= phi[j - 1] * gamma[k - j]
        with np.errstate(divide="ignore", invalid="ignore"):
            refl = np.where(v > 0.0, acc / np.where(v > 0.0, v, 1.0), 0.0)
        pacf[k - 1] = refl
        phi[: k - 1] = phi[: k - 1] - refl * phi[: k - 1][::-1]
        phi[k - 1] = refl
        v = v * (1.0 - refl * refl)
    return pacf


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """Each series (the last axis of x) times the power of two that brings
    its max |x| into [0.5, 1): exact, and scale-free for the estimators
    (see the module docstring)."""
    _, e = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))
    return np.ldexp(x, -e)


def classical_pacf(ts, max_lag: int, demean: bool = False) -> np.ndarray:
    """Sample partial autocorrelation of the whole series at lags 1..max_lag.

    Sample autocovariances use the biased 1/T normalization and do not
    subtract the mean unless ``demean`` is set.  A series of T < 4 has no
    lag in [1, T/2), and is a DataError.  A series of zero sample variance
    is a DegenerateInputError; with ``demean``, so is one whose demeaned
    lag-0 sum is within the rounding of the mean, at most ((2T+2) eps)^2
    times the mean square before demeaning (a constant series): the
    windowed estimator's rule, with the whole series as the window.
    """
    ts = as_series(ts).require_length(4)  # lag 1 needs T // 2 - 1 >= 1
    T = ts.T
    _check_int(max_lag, f"max_lag={max_lag}", 1, T // 2 - 1, f"outside [1, T/2) for T={T}")
    x = _unit_scaled(ts.values)
    floor = 0.0  # what the lag-0 sum must exceed
    if demean:
        floor = ((2 * T + 2) * np.finfo(float).eps) ** 2 * (np.dot(x, x) / T)
        x = x - x.mean()
    gamma = np.array([np.dot(x[: T - k], x[k:]) / T for k in range(max_lag + 1)])
    if gamma[0] <= floor:
        raise DegenerateInputError("series has zero sample variance")
    return levinson_pacf(gamma)


@dataclass(frozen=True)
class LpacfGrid:
    """Local partial autocorrelation estimates on a time x lag grid.

    ``estimates[p, tau-1]`` is the estimate at ``points[p]`` and lag tau.
    ``boundary`` flags points whose window was clipped (windowed) or that
    sit within the wavelet boundary margin.  ``ci_halfwidth`` is
    1.96/sqrt(effective L) per point for the windowed estimator and None
    for the wavelet estimator (no distributional band is defined for it).
    Points dropped for having too little data or failing numerically are
    listed separately; every retained estimate is finite and in [-1, 1].
    Both estimators clip to [-1, 1] by one rule: ``clamp_count`` counts
    the estimates with |estimate| > 1 before the clip, so an exact +-1 is
    not counted.
    """

    kind: str
    points: np.ndarray
    estimates: np.ndarray
    boundary: np.ndarray
    bandwidth: int | None
    ci_halfwidth: np.ndarray | None
    clamp_count: int
    dropped_points: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    effective_length: np.ndarray | None = None

    @property
    def max_lag(self) -> int:
        return self.estimates.shape[1]

    @property
    def lags(self) -> np.ndarray:
        return np.arange(1, self.max_lag + 1)


def _intake(series) -> np.ndarray:
    """The (R, T) stack of R >= 1 series of one length, each ``_unit_scaled``."""
    xs = [as_series(s).require_length().values for s in series]
    if len({len(x) for x in xs}) > 1:
        raise InvalidArgumentError(
            f"a stack holds series of one length, not {sorted({len(x) for x in xs})}"
        )
    xs = np.stack(xs)  # the per-series copies go before the scaling's |x| temporary
    return _unit_scaled(xs)


class _GridStack:
    """The estimates of a stack of R series at P requested points, before
    they are split into one ``LpacfGrid`` per series.

    ``keep[r]`` marks the points of series r that were kept, and the rows
    of ``estimates`` hold the kept points series by series; they are
    clipped to [-1, 1] in place, and ``clamped`` marks the estimates with
    |estimate| > 1 before the clip.  ``boundary`` is per requested point,
    shared by every series, and so is ``eff``, the windowed estimator's
    effective window length; ``bandwidth`` is its L.  Both are None for
    the wavelet estimator.
    """

    def __init__(self, kind, pts, keep, estimates, boundary, bandwidth=None, eff=None):
        self.kind, self.points, self.keep = kind, pts, keep
        self.clamped = (estimates > 1.0) | (estimates < -1.0)  # no |estimates| copy
        self.estimates = np.clip(estimates, -1.0, 1.0, out=estimates)
        self.boundary, self.bandwidth, self.eff = boundary, bandwidth, eff

    def grids(self) -> list[LpacfGrid]:
        """One ``LpacfGrid`` per series; its CI half-widths are the
        ``confidence_halfwidth`` of its effective lengths."""
        pts = self.points
        grids = []
        end = 0
        for mask in self.keep:
            start, end = end, end + int(np.count_nonzero(mask))
            eff = None if self.eff is None else self.eff[mask]
            grids.append(
                LpacfGrid(
                    kind=self.kind,
                    points=pts[mask],
                    estimates=self.estimates[start:end],
                    boundary=self.boundary[mask],
                    bandwidth=self.bandwidth,
                    ci_halfwidth=None if eff is None else confidence_halfwidth(eff),
                    clamp_count=int(np.count_nonzero(self.clamped[start:end])),
                    dropped_points=pts[~mask],
                    effective_length=eff,
                )
            )
        return grids


def _select_points(T: int, points) -> np.ndarray:
    if points is None:
        return np.arange(T)
    pts = np.asarray(points)
    if pts.ndim > 1:
        raise InvalidArgumentError(f"points must be one-dimensional, not of shape {pts.shape}")
    # whole-valued floats are points too; NaN is not whole, +-inf is out of
    # range; Python ints beyond int64 come as objects; numpy reads a bool
    # in a list as a number
    kind = pts.dtype.kind
    if _holds_bool(points) or not (
        kind in "iu"
        or kind == "f" and np.all(np.trunc(pts) == pts)
        or kind == "O" and all(map(_is_int, pts.flat))
    ):
        raise InvalidArgumentError("points must be whole numbers")
    if pts.size and (pts.min() < 0 or pts.max() > T - 1):
        raise InvalidArgumentError(f"points outside [0, {T - 1}]")
    return pts.astype(int, copy=False).reshape(-1)  # a scalar is one point


def _check_bandwidth(T: int, L: int | None, max_lag: int) -> int:
    """The window width of the windowed estimator for T points,
    ``default_bandwidth(T)`` for None, once it and max_lag pass."""
    if L is None:
        L = default_bandwidth(T)
    _check_int(L, f"bandwidth L={L}", 2, T - 1, f"must lie in (1, T={T})")
    _check_int(max_lag, f"max_lag={max_lag}", 1, (L - 1) // 2, f"outside [1, L/2) for L={L}")
    return int(L)


def windowed_lpacf(
    ts,
    L: int | None = None,
    kernel=EPANECHNIKOV,
    max_lag: int = 4,
    points=None,
    demean: bool = False,
) -> LpacfGrid:
    """Windowed local partial autocorrelation at the requested points.

    Per point: kernel-weighted local autocovariances over the length-L
    window centred there, then the classical order-recursive partial
    autocorrelation.  Window clipping at the series ends is flagged and
    the effective window length is used for the CI half-width; points
    retaining fewer than 2*max_lag observations, or whose lag sums are not
    finite, are dropped.  ``demean`` subtracts from each observation the
    kernel-weighted mean of the window centred on it, and then also drops
    a point whose lag-0 sum is within the rounding of those means, at most
    ((2L+2) eps)^2 times the local mean square (all of a constant series).
    ``points`` defaults to every index.  The window sums
    of a selection are taken from the lowest to the highest point at the
    gcd of their spacings (``demean`` first takes the local mean at every
    position of the series): evenly spaced points, in any order, cost
    only their own windows, and scattered points, in each stretch of
    ``_CHUNK_POINTS`` positions, every window from the lowest to the
    highest of their points there.

    This is the one-series case of the stack routine that
    ``EstimatorConfig.estimate_stack`` runs on many series of one length.
    It works through the windows in chunks, so its memory is bounded by
    one chunk plus the result, not by T.
    """
    return _windowed_stack([ts], L, kernel, max_lag, points, demean).grids()[0]


def _windowed_stack(series, L, kernel, max_lag, points, demean) -> _GridStack:
    """``windowed_lpacf`` of each of R series of one length, streamed.

    The windows are taken a chunk at a time (``_window_chunks``).  Each
    chunk zero-pads the pair products of every series over its own span
    only (``_product_rows``), sums them with one ``_window_sums`` call
    against weights shared by every series, divides by the mass row, and
    applies the keep rule.  Its points of every series wait as columns
    until ``_CHUNK_POINTS`` of them are pending, so a sparse selection's
    chunks share one ``_levinson`` recursion, whose estimates go straight
    into one (R, P, max_lag) result.  The mass row, the window sums of the
    in-bounds indicator, holds no data: it is summed once
    (``_window_mass``) for every series and chunk.  Every row, column and
    point is computed on its own, so each grid has the bits of a call on
    its series alone, however the windows are chunked.
    """
    x = _intake(series)
    R, T = x.shape
    kernel = get_kernel(kernel)
    L = _check_bandwidth(T, L, max_lag)
    pts = _select_points(T, points)

    offs = np.arange(-L // 2 + 1, L // 2 + 1)  # point p's window: p + offs
    w = kernel.h((offs + L / 2) / L)
    # The pair products at lags 0..max_lag, each summed against its weights
    # over the window.  Pairs must lie fully inside the window: weight on
    # the left index, last tau window slots carry none.
    weights = np.where(np.arange(L) < L - np.arange(max_lag + 1)[:, None], w, 0.0)
    mass = _window_mass(T, offs, w)
    floor = np.zeros((1, len(pts)))  # what a kept point's lag-0 sum must exceed
    if demean:
        x, msq = _local_means(x, offs, w, mass)
        # a local mean of L terms errs by less than (2L+1)u relative to the
        # root local second moment, so a demeaned series within that of 0 (a
        # constant one) has a lag-0 sum below this times the local mean square
        floor = ((2 * L + 2) * np.finfo(float).eps) ** 2 * msq[:, pts]
        del msq
    # in-bounds window points, an exact count
    eff = np.minimum(pts + offs[-1], T - 1) - np.maximum(pts + offs[0], 0) + 1
    estimates = np.empty((R, len(pts), max_lag))
    keep = np.empty((R, len(pts)), dtype=bool)
    # the columns of the chunks not yet through Levinson, and where each
    # chunk's estimates go: a pass waits for _CHUNK_POINTS columns, so a
    # sparse selection's chunks share one
    pending, dests = [], []

    def solve():
        pacf = _levinson(np.concatenate(pending, axis=1)).T
        i = 0
        for at, n in dests:
            estimates[:, at] = pacf[i : i + R * n].reshape(R, n, max_lag)
            i += R * n
        pending.clear()
        dests.clear()

    for at, first, last, step, cols in _window_chunks(pts):
        a, b = first + offs[0], last + offs[-1] + 1  # the positions of the windows
        # the chunk's rows are freed once summed
        rows = _product_rows(x, a, b, max_lag + 1)
        sums = _window_sums(rows, weights, 0, last - first + 1, step)
        del rows
        sums /= mass(first, last, step)
        gamma = sums if cols is None else sums[..., cols]
        ok = (eff[at] >= 2 * max_lag) & (gamma[:, 0] > floor[:, at])
        ok &= np.isfinite(gamma).all(axis=1)
        keep[:, at] = ok
        # the points of every series as columns, series by series; a dropped
        # point's column runs too, and its estimates are cut with the keep mask
        pending.append(np.moveaxis(gamma, 1, 0).reshape(max_lag + 1, -1))
        dests.append((at, ok.shape[1]))
        if sum(g.shape[1] for g in pending) >= _CHUNK_POINTS:
            solve()
    if dests:
        solve()
    if not keep.all():
        estimates = estimates[keep]  # the kept points, series by series
    boundary = (eff < L).astype(np.uint8)
    return _GridStack(
        "windowed", pts, keep, estimates.reshape(-1, max_lag), boundary, L, eff
    )


def _window_chunks(pts: np.ndarray):
    """The windows of a selection, a chunk at a time: (at, first, last,
    step, cols) for each chunk that holds a point.

    The windows are those of lo, lo + step, ..., hi, the coarsest
    progression holding every point: lo and hi are the lowest and highest
    point and step the gcd of their spacings.  A chunk is the terms in
    ``_CHUNK_POINTS`` consecutive positions (one term at the least), and
    its windows run from its lowest point ``first`` to its highest
    ``last`` at the step.  ``at`` indexes its points in ``pts``, and
    ``cols`` gives the window of each, counted from ``first``.  When the
    points are the whole progression in increasing order, each once, every
    chunk's points are a slice of ``pts`` and need no gather: ``cols`` is
    None.
    """
    if not pts.size:
        return
    lo, hi = int(pts.min()), int(pts.max())
    step = int(np.gcd.reduce(pts - lo)) or 1
    per = max(1, _CHUNK_POINTS // step)  # terms per chunk
    if np.array_equal(pts, np.arange(lo, hi + 1, step)):
        for i in range(0, len(pts), per):
            j = min(i + per, len(pts))
            yield slice(i, j), lo + i * step, lo + (j - 1) * step, step, None
        return
    terms = (pts - lo) // step
    order = np.argsort(terms)
    terms = terms[order]
    cuts = np.flatnonzero(np.diff(terms // per)) + 1
    for at, t in zip(np.split(order, cuts), np.split(terms, cuts)):
        yield at, lo + int(t[0]) * step, lo + int(t[-1]) * step, step, t - t[0]


def _product_rows(x, a: int, b: int, lags: int) -> np.ndarray:
    """rows[..., tau, c] = x_t * x_(t+tau) at the position t = a + c, for
    c < b - a and tau < lags, where t and t + tau both lie in the series
    [0, T), and 0 elsewhere: the zero-padded pair products of the
    positions a..b-1 of each series."""
    T = x.shape[-1]
    rows = np.zeros(x.shape[:-1] + (lags, b - a))
    for tau in range(lags):
        lo, hi = max(a, 0), min(b, T - tau)
        if lo < hi:
            out = rows[..., tau, lo - a : hi - a]
            np.multiply(x[..., lo:hi], x[..., lo + tau : hi + tau], out=out)
    return rows


def _window_mass(T: int, offs: np.ndarray, w: np.ndarray):
    """The mass row, as a function ``mass(first, last, step)`` of the
    windows of first, first + step, ..., last: the window sums of the
    in-bounds indicator of a T-point series against ``w``.

    It holds no data.  Every window inside the series holds L ones, the
    same sum, which one dot product gives; only the windows that reach past
    an end, a run at either end of the progression, are summed, each with
    the bits of its own window sum over a zero-padded row of ones.
    """
    head, tail = -offs[0], T - offs[-1]  # points below head or from tail on reach out
    inside = _window_sums(np.ones(len(w)), w, 0, 1)[0]

    def mass(first: int, last: int, step: int) -> np.ndarray:
        n = (last - first) // step + 1
        m = np.full(n, inside)
        # the terms below head, and the terms from tail on
        runs = (0, min(n, -((first - head) // step))), (max(0, -((first - tail) // step)), n)
        for i, j in runs:
            if i < j:
                a, b = first + i * step + offs[0], first + (j - 1) * step + offs[-1] + 1
                row = np.zeros(b - a)  # the indicator at the positions a..b-1
                row[max(a, 0) - a : min(b, T) - a] = 1.0
                m[i:j] = _window_sums(row, w, 0, (j - i - 1) * step + 1, step)
        return m

    return mass


def _local_means(x, offs, w, mass):
    """Each series less its local means, and its local mean square, for
    ``demean``: at each position the kernel-weighted mean of the window
    centred there, the window sums of x and of x*x over the mass row.
    Both are (R, T), summed ``_CHUNK_POINTS`` positions at a time, so
    each position once."""
    R, T = x.shape
    demeaned, msq = np.empty_like(x), np.empty_like(x)
    for u in range(0, T, _CHUNK_POINTS):
        v = min(u + _CHUNK_POINTS, T)
        a, b = u + offs[0], v + offs[-1]
        lo, hi = max(a, 0), min(b, T)
        rows = np.zeros((R, 2, b - a))
        rows[:, 0, lo - a : hi - a] = x[:, lo:hi]
        np.multiply(x[:, lo:hi], x[:, lo:hi], out=rows[:, 1, lo - a : hi - a])
        sums = _window_sums(rows, w, 0, v - u)
        sums /= mass(u, v - 1, 1)
        np.subtract(x[:, u:v], sums[:, 0], out=demeaned[:, u:v])
        msq[:, u:v] = sums[:, 1]
    return demeaned, msq


@dataclass(frozen=True)
class PredictionSystem:
    """The plug-in systems at one point zT and lag tau.

    All three read the covariance block of the times zT..zT+tau.
    ``coefficients`` solves the local Yule-Walker system that predicts the
    observation at zT+tau: ``coefficients[i-1]`` multiplies the observation
    i steps back, and the last element is phi_{tau,tau}.  The backcast
    predicts the observation at zT from the tau-1 following ones; the
    forecast predicts the observation at zT+tau from the same predictor
    set.  Their coefficient vectors carry -1 at the target position, so
    each MSPE is the quadratic form b' B b.
    """

    lag: int
    coefficients: np.ndarray
    backcast: np.ndarray
    forecast: np.ndarray
    backward_matrix: np.ndarray
    forward_matrix: np.ndarray
    mspe_backward: float
    mspe_forward: float

    @property
    def ratio(self) -> float:
        """sqrt(backward MSPE / forward MSPE)."""
        return float(np.sqrt(self.mspe_backward / self.mspe_forward))

    @property
    def estimate(self) -> float:
        """The plug-in estimate phi_{tau,tau} * ratio, before clamping."""
        return float(self.coefficients[-1]) * self.ratio


def prediction_system(lacv: LocalAcvGrid, zT: int, tau: int) -> PredictionSystem:
    """The Yule-Walker and both prediction systems at one point, solved.

    Covariance entries are evaluated at the rescaled midpoint of each
    index pair, so the backward and forward matrices genuinely differ
    under nonstationarity.  This is the batched stage of ``wavelet_lpacf``
    run on a one-point stack, so it carries the same bits.
    NumericalError is raised, with the condition number of the failing
    matrix, when a system exhausts its ridge regularization (checked in
    the order Yule-Walker, backcast, forecast) or when an MSPE does not
    come out positive.
    """
    lags = f"outside [1, {lacv.max_lag}], the lags of the lacv grid"
    _check_int(tau, f"tau={tau}", 1, lacv.max_lag, lags)
    if _check_int(zT, f"point zT={zT}") < 0 or zT + tau > lacv.T - 1:
        raise InvalidArgumentError(
            f"point zT={zT} with tau={tau} needs entries up to time {zT + tau}"
        )
    values = lacv._one_series()
    z = np.array([zT])
    G, certified = _blocks(values, z, tau + 1)
    phi, bb, bf, mb, mf, ridge = _plug_in_stack(G, tau, certified)
    C = G[0]
    rev = slice(tau - 1, None, -1)
    inner = C[1:tau, 1:tau]  # the predictors of the backcast and the forecast
    systems = zip(
        ("Yule-Walker", "backcast", "forecast"),
        np.isnan(ridge[:, 0]),
        (C[rev, rev], inner, inner),
    )
    for name, exhausted, B in systems:
        if exhausted:
            cond = float(np.linalg.cond(B)) if np.all(np.isfinite(B)) else np.inf
            raise NumericalError(
                f"{name} system unusable after ridge {_RIDGE_STOP}", condition=cond
            )
    if not _mspe_ok(mb, mf)[0]:
        raise NumericalError(
            f"non-positive MSPE at zT={zT}, tau={tau}",
            condition=float(np.linalg.cond(C[1:, 1:])),
        )
    return PredictionSystem(
        tau, phi[0], bb[0], bf[0], C[:-1, :-1], C[1:, 1:], float(mb[0]), float(mf[0])
    )


def _blocks(values: np.ndarray, z: np.ndarray, n: int):
    """The covariance blocks of the times z[i]..z[i]+n-1, points first, and
    ``_certify``'s verdict on each.

    The blocks are built points last (``_midpoint_stack``) and copied once,
    points first, as the solves and the MSPE products read them: a stacked
    matmul has the bits of BLAS only where the rows of each matrix are
    contiguous in memory.  The certificate then runs in place on the points-last blocks,
    so two stacks of blocks are the most ever held.
    """
    G = _midpoint_stack(values, z, n)
    blocks = np.moveaxis(G, -1, 0).copy()  # (points, n, n)
    return blocks, _certify(G)


def _midpoint_stack(values: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """G[a, b, i] = ``LocalAcvGrid.midpoint(z[i] + a, z[i] + b)`` for a, b < n.

    Points last: each cell G[a, b] is one contiguous row over the points.
    A half-integer midpoint averages the two adjacent entries with the same
    operations as ``midpoint``, so every entry carries the same bits.  Each
    cell is written in place, so no temporary holds more than one entry
    per point.
    """
    G = np.empty((n, n, len(z)))
    for a in range(n):
        for b in range(a, n):
            lo, odd = divmod(a + b, 2)
            cell = G[a, b]
            np.take(values[b - a], z + lo, out=cell)
            if odd:
                cell += values[b - a, z + lo + 1]
                cell *= 0.5
            G[b, a] = cell
    return G


def _certify(G: np.ndarray) -> np.ndarray:
    """Where ``np.linalg.cholesky`` is proved to pass on every principal
    submatrix of the symmetric G[:, :, i], its rows and columns in any
    order.

    G is a points-last (n, n, points) stack, as ``_midpoint_stack`` builds
    it, and is overwritten: the check works in place, each entry one
    contiguous row over the points.  Cholesky of a symmetric n x n matrix
    completes in floating point, in any order of operations, when the
    smallest eigenvalue of its unit-diagonal scaling D^-1/2 A D^-1/2
    exceeds n g/(1 - n g), g = (n+1)u/(1 - (n+1)u), about 1.5e-14 for
    n <= 11 (Demmel, LAPACK Working Note 14, 1989; Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.7).  G[:, :, i] is certified
    when its entries are finite, its diagonal is normal (with headroom
    below the largest float, so no partial sum of a factorization
    overflows) and a column-wise Cholesky of its scaling less
    ``_CERTIFICATE_MARGIN`` * I finds only positive pivots.  The scaling's
    smallest eigenvalue then exceeds the margin, less about 1e-14 for the
    rounding of this check, far above the bound.  Every principal
    submatrix, reordered or not, has as its scaling a principal submatrix
    of G[:, :, i]'s scaling, whose smallest eigenvalue is at least as large
    (eigenvalue interlacing).
    """
    n = G.shape[0]
    diag = (np.arange(n), np.arange(n))
    d = G[diag]
    finfo = np.finfo(float)
    ok = np.isfinite(G).all(axis=(0, 1))
    ok &= ((d >= finfo.tiny) & (d <= finfo.max / 4)).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = 1.0 / np.sqrt(d)
        G *= s[:, None]
        G *= s[None, :]
        G[diag] -= _CERTIFICATE_MARGIN
        for j in range(n):
            ok &= G[j, j] > 0.0
            col = G[j + 1 :, j] / np.sqrt(G[j, j])
            G[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
    return ok


def _gated_solve(
    M: np.ndarray, r: np.ndarray, certified: np.ndarray | None = None
) -> np.ndarray:
    """Solve every system M[i] x[i] = r[i] whose matrix passes the Cholesky
    positive-definiteness gate; x[i] is NaN where either step fails.

    The gate's verdict is numpy's.  A 1x1 system is solved by division,
    r / m, gated by not (m <= 0): numpy's Cholesky fails 0.0, -0.0 and
    negative m and passes NaN, +inf and subnormals, and its solve of a 1x1
    system has the bits of the quotient.  A larger member that
    ``certified`` marks passes without a factorization: ``_certify`` has
    proved that LAPACK's Cholesky completes on it.  The rest go to LAPACK
    in one call, and the members that pass are solved in one more.
    Each call is the gufunc that ``np.linalg.cholesky`` or
    ``np.linalg.solve`` wraps, run once on the stack: it factors or solves
    every member on its own and fills the whole result of a member whose
    LAPACK call fails with NaN, where the public function raises for the
    whole stack.  A factor that passes has zeros above its diagonal, even
    where NaN in its matrix leaves NaN below, so a member passes exactly
    where the corner L[0, -1] is not NaN.  Rounding can let a singular
    matrix pass Cholesky; its LU solve then fails and leaves x[i] NaN.
    Every verdict and solution is that of the public function called on
    the member alone.
    """
    with np.errstate(all="ignore"):
        if M.shape[-1] == 1:
            return np.where(M[:, 0] <= 0.0, np.nan, r / M[:, 0])
        passed = np.zeros(len(M), dtype=bool) if certified is None else certified.copy()
        doubt = np.flatnonzero(~passed)
        if doubt.size:
            passed[doubt] = ~np.isnan(_umath_linalg.cholesky_lo(M[doubt])[:, 0, -1])
        sub = slice(None) if passed.all() else passed  # a view, not a copy, if all
        x = np.full(r.shape, np.nan)
        x[sub] = _umath_linalg.solve(M[sub], r[sub, :, None])[..., 0]
    return x


def _solve_stack(
    B: np.ndarray, r: np.ndarray, scale: np.ndarray, certified: np.ndarray | None
):
    """Solve the stack of systems B[i] phi[i] = r[i], escalating a ridge.

    A system is accepted when B[i] + ridge * I passes the gate of
    ``_gated_solve`` and phi[i] is finite with |phi[i, -1]| <= 1 +
    ``_PACF_SLACK``.  Every system tries ridge 0, then eps * scale[i] for
    eps doubling from ``_RIDGE_START`` while it is at most ``_RIDGE_STOP``
    (20 levels), and keeps the first level it is accepted at.  The ridge-0
    solve is one stack.  The systems it rejects are solved again in
    rounds, each one ``_gated_solve`` call on a stack of every rejected
    system at several levels: a round takes as many of the levels left as
    fit in len(B) systems, the size of the ridge-0 stack.  So while at most
    a twentieth of the stack is rejected, one round tries every level, and
    a system that runs out of ridge costs 2 calls.  Every system at every
    level is solved on its own, so each keeps the bits of a solve at its
    accepted level alone.
    ``certified`` (see ``_certify``, or None for no member) vouches for
    the gate at ridge 0 only.
    Returns (phi, ridge) with the accepted ridge of each system; both are
    NaN where the ridge ran out.
    """
    # ridge 0 as B + 0*I: a -0.0 entry becomes 0.0, which can change the
    # sign of a zero solution; B + 0.0 is B itself where no entry is zero
    phi = _gated_solve(B + 0.0 if (B == 0.0).any() else B, r, certified)
    ridge = np.zeros(len(B))
    todo = np.flatnonzero(~_accepted(phi))
    n, tried = B.shape[-1], 0  # the levels above 0 tried so far
    while todo.size and tried < len(_RIDGE_EPS):
        width = min(len(_RIDGE_EPS) - tried, len(B) // todo.size)
        levels = _RIDGE_EPS[tried : tried + width, None] * scale[todo]  # (width, todo)
        M = B[todo] + levels[..., None, None] * np.eye(n)
        x = _gated_solve(M.reshape(-1, n, n), np.tile(r[todo], (width, 1)))
        x = x.reshape(width, todo.size, n)
        good = _accepted(x)
        hit = good.any(axis=0)
        first = good.argmax(axis=0)[hit]  # each hit system's first accepted level
        phi[todo[hit]] = x[first, hit]
        ridge[todo[hit]] = levels[first, hit]
        todo = todo[~hit]
        tried += width
    phi[todo] = ridge[todo] = np.nan
    return phi, ridge


def _accepted(x: np.ndarray) -> np.ndarray:
    """Where the solutions x[..., :] are finite with |x[..., -1]| <= 1 +
    ``_PACF_SLACK``, the acceptance test of ``_solve_stack``.

    The bound fails a NaN or infinite x[..., -1]; the other entries are
    checked a column at a time, which is several times faster than a
    reduction over the short last axis.
    """
    ok = np.abs(x[..., -1]) <= 1.0 + _PACF_SLACK
    for j in range(x.shape[-1] - 1):
        ok &= np.isfinite(x[..., j])
    return ok


def _mspe_stack(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked matmul gives the bits of the scalar b @ B @ b; einsum and
    # elementwise sums round differently
    return (b[:, None, :] @ B @ b[:, :, None])[:, 0, 0]


def _mspe_ok(mb: np.ndarray, mf: np.ndarray) -> np.ndarray:
    """Where both MSPEs are positive and finite."""
    return (mb > 0.0) & (mf > 0.0) & np.isfinite(mb) & np.isfinite(mf)


def _plug_in_stack(G: np.ndarray, tau: int, certified: np.ndarray):
    """The three plug-in systems at lag tau of every point, solved.

    ``G[i, a, b]`` is the covariance of the times z_i+a and z_i+b, for
    a, b up to at least tau.  Every system is sliced from the block: the
    Yule-Walker system with its predictors ordered most recent first, the
    backcast and forecast systems on the times z_i+1..z_i+tau-1 with the
    targets z_i and z_i+tau.  Returns (phi, backcast, forecast, backward
    MSPE, forward MSPE, ridge); ``ridge[k, i]`` is the accepted ridge of
    the Yule-Walker (k=0), backcast (1) and forecast (2) system of point i,
    NaN where it ran out.  Every matrix is a principal submatrix of G[i],
    reordered, so ``certified``, ``_certify``'s verdict on the blocks (see
    ``_blocks``), vouches for each ridge-0 gate.  Every ridge of point i
    scales with its lag-0 entry G[i, 0, 0], floored at 1e-300.
    """
    scale = np.maximum(G[:, 0, 0], 1e-300)
    ridge = np.zeros((3, len(G)))
    rev = slice(tau - 1, None, -1)  # predictors z+tau-1 down to z
    phi, ridge[0] = _solve_stack(G[:, rev, rev], G[:, tau, rev], scale, certified)
    bb = np.full((len(G), tau), -1.0)
    bf = bb.copy()
    if tau > 1:
        inner = G[:, 1:tau, 1:tau]
        bb[:, 1:], ridge[1] = _solve_stack(inner, G[:, 1:tau, 0], scale, certified)
        bf[:, :-1], ridge[2] = _solve_stack(inner, G[:, 1:tau, tau], scale, certified)
    mb = _mspe_stack(G[:, :tau, :tau], bb)  # backcast span z..z+tau-1
    mf = _mspe_stack(G[:, 1 : tau + 1, 1 : tau + 1], bf)  # forecast span, one later
    return phi, bb, bf, mb, mf, ridge


def wavelet_lpacf(
    ts,
    max_scale: int | None = None,
    span: int | None = None,
    max_lag: int = 4,
    points=None,
    demean: bool = False,
    pad: bool = False,
    lacv: LocalAcvGrid | None = None,
) -> LpacfGrid:
    """Wavelet plug-in local partial autocorrelation estimator.

    Pipeline: spectral estimation (non-decimated Haar periodogram,
    smoothing, inverse-A correction) -> local autocovariance grid -> per
    point and lag, the local Yule-Walker coefficient times the square-root
    MSPE ratio, clamped to [-1, 1].  A precomputed ``lacv`` grid bypasses
    the spectral stage (used by tests and by callers estimating on a known
    covariance surface); it must cover the series' T times and lags up to
    ``max_lag``.

    Per lag, the Yule-Walker, backcast and forecast systems of a point are
    slices of one covariance block, the times zT..zT+max_lag.  A system is
    accepted at the first ridge level at which it passes numpy's Cholesky
    gate and its last coefficient is within 1 + 1e-6 of 0 in magnitude
    (``_solve_stack``); ``prediction_system`` runs the same stage at one
    point.

    ``demean`` subtracts the mean of the whole series before the spectral
    stage, not a local mean.  ``points`` defaults to every index; the
    plug-in stage solves only their systems, and the spectral stage covers
    the whole series.  Points too near the end of the grid, or failing
    numerically, are dropped and reported, not fatal: ``points`` and
    ``dropped_points`` each keep the order requested, a repeated point as
    often as requested.

    This is the one-series case of the stack routine that
    ``EstimatorConfig.estimate_stack`` runs on many series of one length
    with one spectral stage and one plug-in stage.
    """
    stack = _wavelet_stack([ts], max_scale, span, max_lag, points, demean, pad, lacv)
    return stack.grids()[0]


def _wavelet_margin(max_scale: int, max_lag: int) -> int:
    """The wavelet estimator's boundary margin: a point closer than this to
    either end of the series is flagged as boundary.  It is half the
    support of the deepest Haar wavelet, 2^(max_scale-1) times, plus the
    max_lag times that a point's block reaches past it."""
    return (1 << (max_scale - 1)) + max_lag


def _check_wavelet_lag(max_lag: int) -> None:
    top = _WAVELET_MAX_LAG
    _check_int(max_lag, f"max_lag={max_lag}", 1, top, f"outside [1, {top}]")


def _wavelet_stack(
    series, max_scale, span, max_lag, points, demean, pad, lacv=None
) -> _GridStack:
    """``wavelet_lpacf`` of each of R series of one length, in one pass.

    The spectral stage runs once on the (R, T) stack.  The plug-in stage
    lays the R lacv grids side by side as one (max_lag+1, R*T) grid and
    solves the systems of every kept point of every series as one stack: a
    kept point's block, the times zT..zT+max_lag, lies inside its own
    series.  Every point is computed on its own, so each grid has the bits
    of a call on its series alone.  A given ``lacv`` (one series' grid)
    stands in for the spectral stage of a one-series stack.
    """
    x = _intake(series)
    R, T = x.shape
    _check_wavelet_lag(max_lag)
    if lacv is None:
        if demean:
            x = x - x.mean(axis=-1, keepdims=True)
        ews = smooth_and_correct(raw_wavelet_periodogram(x, max_scale, pad=pad), span)
        values = local_autocovariance(ews, max_lag).values
        margin = _wavelet_margin(ews.max_scale, max_lag)
    else:
        if lacv.T < T:
            raise InvalidArgumentError(
                f"lacv grid has T={lacv.T} times, fewer than the series T={T}"
            )
        if lacv.max_lag < max_lag:
            raise InvalidArgumentError(
                f"lacv grid holds lags up to {lacv.max_lag} < max_lag={max_lag}"
            )
        values = lacv._one_series()[None]
        margin = max_lag
    Tg = values.shape[-1]  # the grid's times, at least T
    pts = _select_points(T, points)
    keep = (pts + max_lag <= Tg - 1) & (values[:, 0, pts] > 0)
    z = (np.arange(R)[:, None] * Tg + pts)[keep]  # kept points, series by series
    side = np.moveaxis(values, 0, 1).reshape(values.shape[1], R * Tg)

    # the blocks of the times zT..zT+max_lag, and the certificate that
    # vouches for the ridge-0 gate of every lag
    G, certified = _blocks(side, z, max_lag + 1)
    estimates = np.empty((len(z), max_lag))
    ok = np.ones(len(z), dtype=bool)
    for tau in range(1, max_lag + 1):
        phi, _, _, mb, mf, ridge = _plug_in_stack(G, tau, certified)
        ok &= ~np.isnan(ridge).any(axis=0) & _mspe_ok(mb, mf)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            estimates[:, tau - 1] = phi[:, -1] * np.sqrt(mb / mf)
    keep[keep] = ok
    boundary = ((pts < margin) | (pts > T - 1 - margin)).astype(np.uint8)
    return _GridStack("wavelet", pts, keep, estimates[ok], boundary)


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, and with which knobs.

    ``binwidth`` (the window width L, default ``default_bandwidth(T)``) and
    ``kernel`` belong to the windowed estimator, ``smooth_span`` and
    ``max_scale`` to the wavelet estimator; the other method ignores them.
    """

    method: str  # "windowed" | "wavelet"
    binwidth: int | None = None
    kernel: str = "epanechnikov"
    smooth_span: int | None = None
    max_scale: int | None = None
    max_lag: int = 4

    def __post_init__(self):
        if self.method not in ("windowed", "wavelet"):
            raise InvalidArgumentError(f"unknown method {self.method!r}")

    def estimate(self, ts, points=None, demean=False, pad=False) -> LpacfGrid:
        """The configured estimator's grid of ``ts`` at ``points``.

        ``points`` and ``demean`` go to either estimator; ``pad``
        reflect-pads a non-dyadic series for the wavelet estimator and has
        nothing to do for the windowed estimator, which takes any length.
        The grid's ``bandwidth`` is the window width used, None for the
        wavelet estimator.
        """
        return self.estimate_stack([ts], points, demean, pad)[0]

    def estimate_stack(self, xs, points=None, demean=False, pad=False) -> list[LpacfGrid]:
        """``[self.estimate(x, points, demean, pad) for x in xs]``, bit for
        bit, for a stack ``xs`` of series of one length.

        Either estimator takes the whole stack together and refuses series
        of different lengths: the windowed one a chunk of points at a time,
        each chunk one window-sum call for every series and each
        ``_CHUNK_POINTS`` columns one Levinson recursion, with one mass row
        for all of them; the wavelet one with one spectral stage and one
        plug-in stage.  Both end in one stacked result, the kept estimates
        of every series with their keep mask, whose ``grids()`` splits it
        into one grid per series.  A stack of no series is no pass, and no
        grid.
        """
        xs = list(xs)  # read once: an iterator, or an array of no rows
        return self._grid_stack(xs, points, demean, pad).grids() if xs else []

    def _grid_stack(self, xs, points=None, demean=False, pad=False) -> _GridStack:
        """``estimate_stack``'s stacked result, before its split into grids:
        a caller that treats every series alike (the Monte-Carlo scorer)
        reads its arrays whole."""
        if self.method == "windowed":
            L, kernel = self.binwidth, self.kernel
            return _windowed_stack(xs, L, kernel, self.max_lag, points, demean)
        scale, span = self.max_scale, self.smooth_span
        return _wavelet_stack(xs, scale, span, self.max_lag, points, demean, pad)

    def _study(self, T: int) -> tuple[int | None, int]:
        """The window width (None for the wavelet estimator) and the entries
        one replicate's estimate holds in a Monte-Carlo study of T-point
        series, once every rule by which the estimator refuses the study
        has passed, with its own messages in its own order.  A wavelet study
        does not pad, and its boundary margin must leave an interior point."""
        if T < MIN_LENGTH:
            raise InvalidArgumentError(f"T={T} is too short for estimation: T < {MIN_LENGTH}")
        lag = self.max_lag
        if self.method == "windowed":
            get_kernel(self.kernel)
            L = _check_bandwidth(T, self.binwidth, lag)
            # Per point a replicate holds its max_lag estimates and about 2
            # entries more, its scaled series and masks (max_lag + 1.88, the
            # slope of the tracemalloc peak over T = 8192..32768); of one
            # chunk of n <= _CHUNK_POINTS points (``_windowed_stack``), its
            # max_lag + 1 padded product rows over n + L positions and about
            # 5 (max_lag + 1) n entries of sums, columns and Levinson arrays.
            # This rule counts 4 a point and 3 times the rows; a batch peaks
            # at 1.12x its entries (4 replicates, T=8192, max_lag 10) and at
            # 1.22x (116 replicates, T=512, max_lag 2).
            return L, (lag + 4) * T + 3 * (lag + 1) * (min(T, _CHUNK_POINTS) + L)
        if _dyadic_length(T) != T:
            raise InvalidArgumentError(
                f"T={T} is not a power of two, as the wavelet estimator needs without padding"
            )
        _check_wavelet_lag(lag)
        J = _checked_max_scale(self.max_scale, T)
        _checked_span(self.smooth_span, T)
        _check_lacv_lag(lag, J)
        fits = [j for j in range(1, J + 1) if 2 * _wavelet_margin(j, lag) < T]
        if fits[-1:] != [J]:
            fit = f"max_scale={fits[-1]} is the largest that" if fits else "no max_scale"
            raise InvalidArgumentError(
                f"max_scale={J} gives a boundary margin of {_wavelet_margin(J, lag)} points at"
                f" each end, which covers all T={T} points; {fit} leaves an interior point"
                + ("" if fits else f" at max_lag={lag}")
            )
        # The (max_lag+1)^2 covariance block of every point and, at 16 per
        # point, the spectral stage's scales; the certificate and the solves
        # copy the blocks, so a batch peaks at about 3x (2.46x for 6 replicates
        # at T=4096, max_lag 4; 2.89x, 26 MB, for one at T=8192, max_lag 10).
        return None, ((lag + 1) ** 2 + 16) * T

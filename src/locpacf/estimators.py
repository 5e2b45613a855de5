"""Local partial autocorrelation estimators.

Two estimators are provided.  The windowed estimator computes the
classical partial autocorrelation from a kernel-weighted window of
observations around each requested time point.  The plug-in estimator
replaces every population autocovariance in the prediction-theoretic
representation

    q(z, tau) = phi_{tau,tau}(z) * sqrt(backward MSPE / forward MSPE)

with the wavelet local autocovariance estimate, solving a local
Yule-Walker system for phi and two prediction systems for the MSPEs: for
every point at once with a Levinson lattice over a band of the estimates,
and with LAPACK and a ridge, on blocks gathered from that band, for the
points that the lattice cannot serve.  Both stages take the band and the
points' places in it, and return their estimates and where each is served.

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
one intake and end in one stacked result, ``_GridStack``, a row for every
series at every requested point, which ``grids()`` splits into one
``LpacfGrid`` per series and the Monte-Carlo scorer reads whole.  Each
series keeps the bits of a call on it alone: every row, column and point
is computed on its own, vectorized over points, in a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
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

    ``estimates[r, p]`` holds the estimates of series r at ``points[p]``,
    and ``keep[r, p]`` marks it kept; a dropped point's row is never read.
    The rows are clipped to [-1, 1] in place, and ``clamped`` marks the
    estimates with |estimate| > 1 before the clip.  ``boundary`` is per
    requested point, shared by every series, and so is ``eff``, the
    windowed estimator's effective window length; ``bandwidth`` is its L.
    Both are None for the wavelet estimator.
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
        for mask, estimates, clamped in zip(self.keep, self.estimates, self.clamped):
            rows = slice(None) if mask.all() else mask  # a view if every point was kept
            eff = None if self.eff is None else self.eff[mask]
            grids.append(
                LpacfGrid(
                    kind=self.kind,
                    points=pts[mask],
                    estimates=estimates[rows],
                    boundary=self.boundary[mask],
                    bandwidth=self.bandwidth,
                    ci_halfwidth=None if eff is None else confidence_halfwidth(eff),
                    clamp_count=int(np.count_nonzero(clamped[rows])),
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

    Each lag-tau pair (t, t + tau) is weighted by the taper at its left
    index t alone, so only the rectangular kernel with an odd L is
    time-reversible: on the T=1024 TVAR ramp, the Epanechnikov estimates
    of the reversed series differ from the reversed estimates by up to
    0.35 at L=41.  ROADMAP item 7 holds the fix until the paper's
    definition can be checked.

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
        block = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)
        pacf = _levinson(block).T
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
        # point's column runs too, and the keep mask leaves its row unread
        pending.append(np.moveaxis(gamma, 1, 0).reshape(max_lag + 1, -1))
        dests.append((at, ok.shape[1]))
        if sum(g.shape[1] for g in pending) >= _CHUNK_POINTS:
            solve()
    if dests:
        solve()
    boundary = (eff < L).astype(np.uint8)
    return _GridStack("windowed", pts, keep, estimates, boundary, L, eff)


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
    # Not folded into the gather below: the bits are the same, but the gather
    # measured 15-29% slower on every-point selections and study stacks.
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


def _gated_solve(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve every system M[i] x[i] = r[i] whose matrix passes the Cholesky
    positive-definiteness gate; x[i] is NaN where either step fails.

    The gate and the solve are one call each of the gufuncs that
    ``np.linalg.cholesky`` and ``np.linalg.solve`` wrap: each factors or
    solves every member on its own and fills with NaN the result of a
    member whose LAPACK call fails, where the public function raises for
    the whole stack.  A factor that passes has zeros above its diagonal,
    even where NaN in its matrix leaves NaN below, so a member passes where
    the corner L[0, -1] is not NaN; a 1x1 NaN, which numpy passes, fails,
    and its x[i] is NaN either way.  Rounding can let a singular matrix
    pass; its LU solve then fails and leaves x[i] NaN.  Every other x[i]
    has the bits of the public functions on the member alone.  A failing
    member raises the invalid flag, so the caller runs this under
    ``np.errstate(all="ignore")``, as ``_plug_in_stack`` does.
    """
    passed = ~np.isnan(_umath_linalg.cholesky_lo(M)[:, 0, -1])
    sub = slice(None) if passed.all() else passed  # a view, not a copy, if all
    x = np.full(r.shape, np.nan)
    x[sub] = _umath_linalg.solve(M[sub], r[sub, :, None])[..., 0]
    return x


def _solve_stack(B: np.ndarray, r: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Solve the stack of systems B[i] phi[i] = r[i], escalating a ridge.

    A system is accepted when B[i] + ridge * I passes the gate of
    ``_gated_solve`` and phi[i] is finite with |phi[i, -1]| <= 1 +
    ``_PACF_SLACK``.  Every system tries ridge 0, then eps * scale[i] for
    eps doubling from ``_RIDGE_START`` while it is at most ``_RIDGE_STOP``
    (20 levels), and keeps the first level it is accepted at, or NaN.  The
    ridge-0 solve is one stack; the systems it rejects climb all 20 levels
    in one ``_gated_solve`` call per ``_CHUNK_POINTS`` // 20 of them.  Each
    member is solved on its own, so phi[i] has the bits of a solve at its
    level alone.  It runs under the caller's ``np.errstate(all="ignore")``.
    """
    # ridge 0 as B + 0*I: a -0.0 entry becomes 0.0, which can change the
    # sign of a zero solution; B + 0.0 is B itself where no entry is zero
    phi = _gated_solve(B + 0.0 if (B == 0.0).any() else B, r)
    todo = np.flatnonzero(~_accepted(phi))
    phi[todo] = np.nan  # until a level accepts it
    n, width = B.shape[-1], len(_RIDGE_EPS)
    per = _CHUNK_POINTS // width  # the systems of one ladder call
    for i in range(0, todo.size, per):
        sub = todo[i : i + per]
        M = B[sub] + (_RIDGE_EPS[:, None] * scale[sub])[..., None, None] * np.eye(n)
        x = _gated_solve(M.reshape(-1, n, n), np.tile(r[sub], (width, 1)))
        x = x.reshape(width, sub.size, n)
        good = _accepted(x)
        hit = good.any(axis=0)
        phi[sub[hit]] = x[good.argmax(axis=0)[hit], hit]  # the first accepted level
    return phi


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


def _mspe_ok(mb: np.ndarray, mf: np.ndarray) -> np.ndarray:
    """Where both MSPEs are positive and finite."""
    return (mb > 0.0) & (mf > 0.0) & np.isfinite(mb) & np.isfinite(mf)


def _plug_in_stack(C: np.ndarray, at: np.ndarray, max_lag: int):
    """What ``_lattice`` returns for the points at the places ``at`` of the
    band C, solved with LAPACK: their estimates, and where each is served.

    The blocks are one gather from the band: G[i, a, b] = C[|a - b|, at[i]
    + min(a, b)].  At lag tau, ``_solve_stack`` solves the Yule-Walker
    system, its predictors most recent first, and the backcast and forecast
    systems on the times z_i+1..z_i+tau-1 with the targets z_i and z_i+tau,
    each ridge of point i scaled by G[i, 0, 0] floored at 1e-300.  A point
    is served where every phi_tau,tau is not NaN and every pair of MSPEs
    passes ``_mspe_ok``; a predictor that ran out of ridge has a NaN MSPE.
    """
    k = np.arange(max_lag + 1)
    G = C[np.abs(k[:, None] - k), at[:, None, None] + np.minimum.outer(k, k)]
    scale = np.maximum(G[:, 0, 0], 1e-300)
    est = np.empty((len(at), max_lag))
    ok = np.ones(len(at), dtype=bool)
    with np.errstate(all="ignore"):
        for tau in range(1, max_lag + 1):
            rev = slice(tau - 1, None, -1)  # predictors z+tau-1 down to z
            phi = _solve_stack(G[:, rev, rev], G[:, tau, rev], scale)[:, -1]
            bb = np.full((len(G), tau), -1.0)
            bf = bb.copy()
            if tau > 1:
                inner = G[:, 1:tau, 1:tau]
                bb[:, 1:] = _solve_stack(inner, G[:, 1:tau, 0], scale)
                bf[:, :-1] = _solve_stack(inner, G[:, 1:tau, tau], scale)
            # stacked matmul gives the bits of the scalar b @ B @ b; einsum and
            # elementwise sums round differently
            mb = (bb[:, None, :] @ G[:, :tau, :tau] @ bb[:, :, None])[:, 0, 0]
            mf = (bf[:, None, :] @ G[:, 1 : tau + 1, 1 : tau + 1] @ bf[:, :, None])[:, 0, 0]
            est[:, tau - 1] = phi * np.sqrt(mb / mf)
            ok &= ~np.isnan(phi) & _mspe_ok(mb, mf)
    return est, ok


def _band(values: np.ndarray, z: np.ndarray, n: int):
    """The band of the blocks of the times z[i]..z[i]+n-1: C[d, j] =
    ``LocalAcvGrid.midpoint(pos[j], pos[j] + d)`` for d < n, over the
    positions pos, the union of the blocks as contiguous runs laid side by
    side.  Returns C and the place of each z[i] in pos, so that the block
    of z[i] is C[|a - b|, at[i] + min(a, b)] for a, b < n.

    Row d holds the len(pos) - d pairs (j, j + d); a pair that spans two
    runs, or two series, is computed and never read.  A selection costs its
    own blocks, not the times between them.  A half-integer midpoint
    averages the two adjacent entries with the same operations as
    ``midpoint``, so every entry carries the same bits, under
    ``np.errstate(all="ignore")``: an average of inf and -inf, or one that
    overflows, is a NaN or inf entry whose blocks are dropped.  No point
    gives a band of n - 1 positions, which starts no block.
    """
    if not z.size:
        return np.zeros((n, n - 1)), z
    zs = np.sort(z)  # not np.unique, whose first call imports numpy.ma
    cut = np.flatnonzero(np.diff(zs) > n) + 1  # a block clear of the run before
    first = zs[np.r_[0, cut]]
    size = zs[np.r_[cut - 1, len(zs) - 1]] + n - first
    pos = np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())
    N = len(pos)
    C = np.empty((n, N))
    with np.errstate(all="ignore"):  # a given grid may hold inf, NaN or 1e308
        for d in range(n):
            lo = pos[: N - d] + d // 2
            row = np.take(values[d], lo, out=C[d, : N - d])
            if d % 2:
                row += values[d, lo + 1]
                row *= 0.5
    return C, np.searchsorted(pos, z)


def _lattice(C: np.ndarray, at: np.ndarray, max_lag: int):
    """The plug-in estimates at lags 1..max_lag of the points whose blocks
    start at the places ``at`` of the band C (``_band``), from the
    time-indexed Levinson lattice (Lev-Ari & Kailath, IEEE Trans. Inf.
    Theory 30(1), 1984) over C, and where each point is served by it.

    At order m every pair of times (u, t = u + m) updates the forward
    predictor a(t) of X_t from X_(t-1)..X_(u+1) and the backward predictor
    b(u) of X_u from X_(u+1)..X_(t-1), with their MSPEs Pf(t) and Pb(u):
    Delta = C(u, t) - sum_i a(t)_i C(u, t - i), k_f = Delta / Pb(u) and
    k_b = Delta / Pf(t); a(t) less k_f times b(u) reversed gains k_f as
    the coefficient of X_u, b(u) likewise with k_b, and Pf -= k_f Delta,
    Pb -= k_b Delta.  At the
    point z and lag tau, the pair (z, z + tau) holds the systems of
    ``_plug_in_stack``: the Yule-Walker solution is a_tau(z + tau), whose
    last coefficient is k_f; the backcast is b_(tau-1)(z) and the forecast
    a_(tau-1)(z + tau), and their MSPEs are Pb_(tau-1)(z) and
    Pf_(tau-1)(z + tau).  The estimate is k_f sqrt(Pb / Pf).

    A point is served where every system at every lag passes the ridge-0
    test of ``_solve_stack`` (``_accepted``) and every MSPE is positive and
    finite (``_mspe_ok``); the positive MSPEs make each block of the
    systems positive definite, which is the Cholesky gate in exact
    arithmetic.  The estimates of a point not served are never read; its
    caller hands it to ``_plug_in_stack``, which has this contract.  Every
    pair is computed on its own, so a point has the same bits in any
    selection or stack.
    """
    N = C.shape[1]
    P = N - max_lag  # the positions that start a block
    est = np.empty((P, max_lag))
    ok = np.ones(P, dtype=bool)
    F = B = np.empty((0, N))  # a_(m-1)(u + m - 1) and b_(m-1)(u), by u
    Pf = Pb = C[0]  # Pf_(m-1)(u + m - 1) and Pb_(m-1)(u), by u
    with np.errstate(all="ignore"):
        for m in range(1, max_lag + 1):
            n = N - m  # the pairs (u, u + m)
            Fs, Bs, mf, mb = F[:, 1:], B[:, :n], Pf[1:], Pb[:n]
            ok &= _mspe_ok(mb[:P], mf[:P])
            if m > 1:  # the backcast, and the forecast: its last is a_1
                ok &= _accepted(Bs[:, :P].T) & _accepted(Fs[::-1, :P].T)
            delta = C[m, :n].copy()
            for i in range(1, m):
                delta -= Fs[i - 1] * C[m - i, :n]
            kf = delta / mb
            est[:, m - 1] = (kf * np.sqrt(mb / mf))[:P]
            F = np.empty((m, n))
            np.multiply(Bs[::-1], kf, out=F[:-1])
            np.subtract(Fs, F[:-1], out=F[:-1])
            F[-1] = kf
            ok &= _accepted(F[:, :P].T)  # the Yule-Walker system
            if m < max_lag:
                kb = delta / mf
                B = np.empty((m, n))
                np.multiply(Fs[::-1], kb, out=B[:-1])
                np.subtract(Bs, B[:-1], out=B[:-1])
                B[-1] = kb
                Pf, Pb = mf - kf * delta, mb - kb * delta
    return est[at], ok[at]


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
    slices of one covariance block, the times zT..zT+max_lag, and every
    block is a principal submatrix of one banded covariance.  One
    time-indexed Levinson lattice over that band solves every system of
    every point in one pass (``_lattice``).  A point is served by it when
    each of its systems has its last coefficient within 1 + 1e-6 of 0 in
    magnitude and each MSPE is positive.  Every other point is solved on
    its own by LAPACK, on its block as gathered from that band, each system
    accepted at the first ridge level at which it passes numpy's Cholesky
    gate and that bound (``_plug_in_stack``).

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
    builds one band (``_band``) of the blocks of every kept point of every
    series: a kept point's block, the times zT..zT+max_lag, lies inside its
    own series.  One lattice (``_lattice``) runs over that band.  The points
    it does not serve go, every series together, to one LAPACK stage
    (``_plug_in_stack``) on the same band, which returns what the lattice
    does: estimates, and where each point is served.  Every point is
    computed on its own, so each grid has the bits of a call on its series
    alone.  A given ``lacv`` (one series' grid) stands in for the spectral
    stage of a one-series stack.  The spectrum is released once the lacv
    grid is synthesized, and the grid once the band is built, so neither is
    alive beside the lattice's arrays.
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
        del ews  # its (R, max_scale, T) spectrum is not read again
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
    estimates = np.empty((R, len(pts), max_lag))
    flat = estimates.reshape(-1, max_lag)
    rows = np.flatnonzero(keep)  # the row r * P + p of each point of z
    C, at = _band(side, z, max_lag + 1)
    del values, side  # the lacv grid: C holds every entry read from here on
    flat[rows], ok = _lattice(C, at, max_lag)
    back = np.flatnonzero(~ok)
    if back.size:
        flat[rows[back]], ok[back] = _plug_in_stack(C, at[back], max_lag)
    keep[keep] = ok
    boundary = ((pts < margin) | (pts > T - 1 - margin)).astype(np.uint8)
    return _GridStack("wavelet", pts, keep, estimates, boundary)


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
        plug-in stage.  Both end in one stacked result, a row of estimates
        for every series at every point with their keep mask, whose
        ``grids()`` splits it into one grid per series.  A stack of no
        series is no pass, and no grid.
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
            # slope of the tracemalloc peak over T = 8192..32768 at L=512); of
            # one chunk of n <= _CHUNK_POINTS points (``_windowed_stack``), its
            # max_lag + 1 padded product rows over n + L positions and 4.0-4.6
            # (max_lag + 1) n entries of sums, columns and Levinson arrays.
            # This rule counts 4 a point and 3 times the rows; a batch peaks
            # at 1.02x its entries (4 replicates, T=8192, max_lag 10) and at
            # 1.05x (116 replicates, T=512, max_lag 2).
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
        # point, the spectral stage's scales.  The lattice holds its band,
        # both predictors of two orders and the estimates, about 8
        # (max_lag+1) per point; only the points that it does not serve have
        # blocks, one stack gathered from the band, and each ridge ladder
        # call holds at most _CHUNK_POINTS systems.  The spectral grids are
        # released once the band is built.  A batch peaks at 0.89x (6
        # replicates at T=4096, max_lag 4) and 0.58x (5.0 MiB, one at
        # T=8192, max_lag 10).
        return None, ((lag + 1) ** 2 + 16) * T

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
of the series can overflow or go subnormal.

Both assume mean-zero input.  ``demean=True`` subtracts a mean first: the
windowed estimator subtracts from each observation the kernel-weighted
mean of the window centred on it, and drops a point whose demeaned lag-0
sum is within the rounding of that mean (a constant series), the wavelet
estimator the mean of the whole series.  ``EstimatorConfig`` names an
estimator and its knobs, and its ``estimate_stack`` is the one place that
picks an estimator and calls it, for a stack of series of one length;
``estimate`` is its one-series case.  Each estimator has one stack
routine, and its public function is that routine's one-series case.  Both
read their series through one intake (one length, each scaled) and build
their grids through one per-series split.  Every series of a stack keeps
the bits of a call on it alone: every row, column and point is computed
on its own.

Estimation at distinct time points is independent; the implementations
vectorize over points and produce deterministic output ordering.  The
windowed estimator sums its windows on the coarsest evenly spaced
progression that holds the requested points with the package's one
moving sum, ``kernels._window_sums``, and runs one batched Levinson
recursion for them: evenly spaced points cost only their own windows,
scattered points the span they cover.  A stack takes that one pass, the
zero-padded rows of every series in one window-sum call and the kept
points of every series in one recursion.

The wavelet estimator runs its spectral stage once on the whole stack,
and its plug-in stage once on the kept points of every series, with the
stack's lacv grids laid side by side along time.  All three plug-in
systems at a point read one covariance block, the times zT..zT+tau of
the local autocovariance surface.  The plug-in stage assembles that
block for a stack of points by indexing the grid, slices each lag's
systems from it, and solves each kind with one stacked solve; the
systems that need a ridge are solved again as one stack per ridge level.
Every system is gated by numpy's Cholesky verdict, but only one numpy
Cholesky per point, of the whole block less a margin, is computed at
ridge 0: by Demmel's bound it proves that LAPACK's Cholesky passes every
system sliced from the block, and only the points it leaves unproved go
to LAPACK.  A 1x1 system is solved by division, with numpy's verdict and
bits.  The wavelet stack runs it on the requested points of every
series, and ``prediction_system`` on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    NumericalError,
)
from .kernels import EPANECHNIKOV, _window_sums, get_kernel
from .series import as_series
from .spectral import (
    LocalAcvGrid,
    default_max_scale,
    default_smoothing_span,
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
# how far the smallest eigenvalue of a unit-diagonal scaling must clear 0
# for ``_certify``: far above Demmel's bound of about 1.5e-14
_CERTIFICATE_MARGIN = 1e-8


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
    """Order-recursive Yule-Walker solve; returns pacf at lags 1..len-1.

    ``gamma`` holds autocovariances at lags 0..max_lag.  The input may be
    batched with shape (max_lag+1, npoints); the recursion then runs for
    every column at once.
    """
    gamma = np.asarray(gamma, dtype=float)
    squeeze = gamma.ndim == 1
    if squeeze:
        gamma = gamma[:, None]
    max_lag = gamma.shape[0] - 1
    npts = gamma.shape[1]
    if np.any(gamma[0] <= 0.0):
        raise DegenerateInputError("zero sample variance at lag 0")
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
    pacf = np.clip(pacf, -1.0, 1.0)
    return pacf[:, 0] if squeeze else pacf


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """Each series (the last axis of x) times the power of two that brings
    its max |x| into [0.5, 1): exact, and scale-free for the estimators
    (see the module docstring)."""
    _, e = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))
    return np.ldexp(x, -e)


def classical_pacf(ts, max_lag: int, demean: bool = False) -> np.ndarray:
    """Sample partial autocorrelation of the whole series at lags 1..max_lag.

    Sample autocovariances use the biased 1/T normalization and do not
    subtract the mean unless ``demean`` is set.
    """
    ts = as_series(ts)
    T = ts.T
    if not 1 <= max_lag < T // 2:
        raise InvalidArgumentError(f"max_lag={max_lag} outside [1, T/2) for T={T}")
    x = _unit_scaled(ts.values)
    if demean:
        x = x - x.mean()
    gamma = np.array([np.dot(x[: T - k], x[k:]) / T for k in range(max_lag + 1)])
    if gamma[0] <= 0.0:
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
    """The (R, T) stack of R series of one length, each ``_unit_scaled``;
    shape (0, 0) for no series."""
    xs = [as_series(s).require_length().values for s in series]
    if len({len(x) for x in xs}) > 1:
        raise InvalidArgumentError(
            f"a stack holds series of one length, not {sorted({len(x) for x in xs})}"
        )
    return _unit_scaled(np.stack(xs)) if xs else np.empty((0, 0))


def _split(kind, pts, keep, estimates, clamped, boundary, bandwidth=None, ci=None, eff=None):
    """One ``LpacfGrid`` per series of a stack.

    ``keep[r]`` marks the points of series r that were kept, and the rows
    of ``estimates`` and ``clamped`` (where an estimate was clamped) hold
    the kept points series by series; ``boundary``, ``ci`` and ``eff`` are
    per requested point, shared by every series.
    """
    grids = []
    end = 0
    for mask in keep:
        start, end = end, end + int(np.count_nonzero(mask))
        grids.append(
            LpacfGrid(
                kind=kind,
                points=pts[mask],
                estimates=estimates[start:end],
                boundary=boundary[mask],
                bandwidth=bandwidth,
                ci_halfwidth=None if ci is None else ci[mask],
                clamp_count=int(np.count_nonzero(clamped[start:end])),
                dropped_points=pts[~mask],
                effective_length=None if eff is None else eff[mask],
            )
        )
    return grids


def _select_points(T: int, points) -> np.ndarray:
    if points is None:
        return np.arange(T)
    pts = np.asarray(points)
    # whole-valued floats are points too; NaN is not whole, +-inf is out of range
    if not (pts.dtype.kind in "iu" or pts.dtype.kind == "f" and np.all(np.trunc(pts) == pts)):
        raise InvalidArgumentError("points must be whole numbers")
    if pts.size and (pts.min() < 0 or pts.max() > T - 1):
        raise InvalidArgumentError(f"points outside [0, {T - 1}]")
    return pts.astype(int, copy=False)


def _check_bandwidth(T: int, L: int, max_lag: int) -> None:
    if not 1 < L < T:
        raise InvalidArgumentError(f"bandwidth L={L} must lie in (1, T={T})")
    if not 1 <= max_lag < L / 2:
        raise InvalidArgumentError(f"max_lag={max_lag} outside [1, L/2) for L={L}")


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
    gcd of their spacings (``demean`` also needs the local mean at every
    point): evenly spaced points, in any order, cost only their own
    windows, and scattered points every window of the span they cover.

    This is the one-series case of the stack routine that
    ``EstimatorConfig.estimate_stack`` runs on many series of one length
    with one window-sum call and one Levinson pass.
    """
    return _windowed_stack([ts], L, kernel, max_lag, points, demean)[0]


def _windowed_stack(series, L, kernel, max_lag, points, demean) -> list[LpacfGrid]:
    """``windowed_lpacf`` of each of R series of one length, in one pass.

    The (R, max_lag+2, T+2L) zero-padded rows are summed by one
    ``_window_sums`` call against weights shared by every series, and the
    kept points of every series go through one ``levinson_pacf``; every
    row and column is computed on its own, so each grid has the bits of a
    call on its series alone.
    """
    x = _intake(series)
    if not len(x):
        return []
    (R, T), K = x.shape, max_lag + 2
    kernel = get_kernel(kernel)
    if L is None:
        L = default_bandwidth(T)
    _check_bandwidth(T, L, max_lag)
    pts = _select_points(T, points)

    # Zero-padded rows, K per series: the ones (weight mass) and the pair
    # products at lags 0..max_lag, each summed against its weights over
    # the window.  Pairs must lie fully inside the window: weight on the
    # left index, last tau window slots carry none.
    offs = np.arange(-L // 2 + 1, L // 2 + 1)
    w = kernel.h((offs + L / 2) / L)
    lag = np.arange(-1, max_lag + 1)[:, None]  # -1: the mass row, every slot
    weights = np.where(np.arange(L) < L - lag, w, 0.0)
    rows = np.zeros((R, K, T + 2 * L))
    rows[:, 0, L : L + T] = 1.0
    first = L + offs[0]  # start of point 0's window in the padded rows
    floor = 0.0  # what a kept point's lag-0 sum must exceed
    if demean:
        # each series and its square in its lag-0 and lag-1 rows, which its
        # products overwrite below (the lag-1 products all but the last)
        rows[:, 1, L : L + T] = x
        rows[:, 2, L : L + T] = x * x
        sums = _window_sums(rows[:, :3], w, first, first + T)
        rows[:, 2, L + T - 1] = 0.0
        x = x - sums[:, 1] / sums[:, 0]
        # a local mean of L terms errs by less than (2L+1)u relative to the
        # root local second moment, so a demeaned series within that of 0
        # (a constant one) has a lag-0 sum below this floor: rounding noise
        floor = ((2 * L + 2) * np.finfo(float).eps) ** 2 * (sums[:, 2] / sums[:, 0])[:, pts]
    for tau in range(max_lag + 1):
        np.multiply(x[:, : T - tau], x[:, tau:], out=rows[:, 1 + tau, L : L + T - tau])
    # the windows lo, lo + step, ..., hi, the coarsest progression holding
    # every point (none for an empty selection); the points in increasing
    # order, each once, are the whole progression and need no gather
    lo, hi = pts.min(initial=T), pts.max(initial=-1)
    step = int(np.gcd.reduce(pts - lo)) or 1
    sums = _window_sums(rows, weights, first + lo, first + hi + 1, step)
    if not np.array_equal(pts, np.arange(lo, hi + 1, step)):
        sums = sums[..., (pts - lo) // step]
    del rows  # free the padded rows before the Levinson pass
    gamma = sums[:, 1:]
    gamma /= sums[:, :1]

    # in-bounds window points, an exact count
    eff = np.minimum(pts + offs[-1], T - 1) - np.maximum(pts + offs[0], 0) + 1
    keep = (eff >= 2 * max_lag) & (gamma[:, 0] > floor)
    keep &= np.isfinite(gamma).all(axis=1)

    # the kept points of every series, series by series, as columns
    estimates = levinson_pacf(np.moveaxis(gamma, 1, 0)[:, keep]).T.copy()
    boundary = (eff < L).astype(np.uint8)
    ci = confidence_halfwidth(eff.astype(float))
    clamped = np.abs(estimates) >= 1.0
    return _split("windowed", pts, keep, estimates, clamped, boundary, int(L), ci, eff)


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
    if not 1 <= tau <= lacv.max_lag:
        raise InvalidArgumentError(
            f"tau={tau} outside [1, {lacv.max_lag}], the lags of the lacv grid"
        )
    if zT < 0 or zT + tau > lacv.T - 1:
        raise InvalidArgumentError(
            f"point zT={zT} with tau={tau} needs entries up to time {zT + tau}"
        )
    values = lacv._one_series()
    z = np.array([zT])
    G = _midpoint_stack(values, z, tau + 1)
    scale = np.maximum(values[0, z], 1e-300)
    phi, bb, bf, mb, mf, ridge = _plug_in_stack(G, scale, tau, _certify(G))
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


def _midpoint_stack(values: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """G[i, a, b] = ``LocalAcvGrid.midpoint(z[i] + a, z[i] + b)`` for a, b < n.

    A half-integer midpoint averages the two adjacent entries with the same
    operations as ``midpoint``, so every entry carries the same bits.  One
    cell at a time, so no temporary holds more than one entry per point.
    """
    G = np.empty((len(z), n, n))
    for a in range(n):
        for b in range(a, n):
            lo, odd = divmod(a + b, 2)
            cell = values[b - a, z + lo]
            if odd:
                cell = 0.5 * (cell + values[b - a, z + lo + 1])
            G[:, a, b] = G[:, b, a] = cell
    return G


def _certify(G: np.ndarray) -> np.ndarray:
    """Where ``np.linalg.cholesky`` is proved to pass on every principal
    submatrix of the symmetric G[i], its rows and columns in any order.

    Cholesky of a symmetric n x n matrix completes in floating point, in
    any order of operations, when the smallest eigenvalue of its
    unit-diagonal scaling D^-1/2 A D^-1/2 exceeds n g/(1 - n g), g =
    (n+1)u/(1 - (n+1)u), about 1.5e-14 for n <= 11 (Demmel, LAPACK Working
    Note 14, 1989; Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.7).  G[i] is certified when its entries are finite, its
    diagonal is normal (with headroom below the largest float, so no
    partial sum of a factorization overflows) and a column-wise Cholesky
    of its scaling less ``_CERTIFICATE_MARGIN`` * I finds only positive
    pivots.  The scaling's smallest eigenvalue then exceeds the margin,
    less about 1e-14 for the rounding of this check, far above the bound.
    Every principal submatrix, reordered or not, has as its scaling a
    principal submatrix of G[i]'s scaling, whose smallest eigenvalue is
    at least as large (eigenvalue interlacing).
    """
    n = G.shape[-1]
    A = np.moveaxis(G, 0, -1).copy()  # (n, n, points): each entry contiguous
    diag = (np.arange(n), np.arange(n))
    d = A[diag]
    finfo = np.finfo(float)
    ok = np.isfinite(A).all(axis=(0, 1))
    ok &= ((d >= finfo.tiny) & (d <= finfo.max / 4)).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = 1.0 / np.sqrt(d)
        A *= s[:, None]
        A *= s[None, :]
        A[diag] -= _CERTIFICATE_MARGIN
        for j in range(n):
            ok &= A[j, j] > 0.0
            col = A[j + 1 :, j] / np.sqrt(A[j, j])
            A[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
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
    proved that LAPACK's Cholesky completes on it, by Demmel's bound
    (LAPACK Working Note 14; Higham, Thm 10.7) with a margin of 1e-8 on
    the smallest eigenvalue of its unit-diagonal scaling.  Only the rest go
    to ``np.linalg.cholesky``, and the members that pass are solved by
    ``np.linalg.solve``.  A stacked Cholesky or solve raises for the whole
    stack when one member fails, and rounding can let a singular matrix
    pass Cholesky, so only a stack that raises is redone member by member.
    """
    if M.shape[-1] == 1:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(M[:, 0] <= 0.0, np.nan, r / M[:, 0])
    passed = np.zeros(len(M), dtype=bool) if certified is None else certified.copy()
    doubt = np.flatnonzero(~passed)
    if doubt.size:
        try:
            np.linalg.cholesky(M[doubt])
            passed[doubt] = True
        except np.linalg.LinAlgError:
            for i in doubt:
                try:
                    np.linalg.cholesky(M[i])
                    passed[i] = True
                except np.linalg.LinAlgError:
                    pass
    sub = slice(None) if passed.all() else passed  # a view, not a copy, if all
    x = np.full(r.shape, np.nan)
    try:
        x[sub] = np.linalg.solve(M[sub], r[sub, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(passed):
            try:
                x[i] = np.linalg.solve(M[i], r[i])
            except np.linalg.LinAlgError:
                pass
    return x


def _solve_stack(
    B: np.ndarray, r: np.ndarray, scale: np.ndarray, certified: np.ndarray | None
):
    """Solve the stack of systems B[i] phi[i] = r[i], escalating a ridge.

    A system is accepted when B[i] + ridge * I passes the gate of
    ``_gated_solve`` and phi[i] is finite with |phi[i, -1]| <= 1 +
    ``_PACF_SLACK``.  Every system tries ridge 0, then eps * scale[i] for
    eps doubling from ``_RIDGE_START`` while it is at most ``_RIDGE_STOP``;
    each level solves the systems still rejected as one stack.
    ``certified`` (see ``_certify``, or None for no member) vouches for
    the gate at ridge 0 only.
    Returns (phi, ridge) with the accepted ridge of each system; both are
    NaN where the ridge ran out.
    """
    # B + 0.0 as B + 0*I: a -0.0 entry becomes 0.0, and can change the
    # sign of a zero solution
    x = phi = _gated_solve(B + 0.0, r, certified)
    ridge = np.zeros(len(B))
    eye = np.eye(B.shape[-1])
    eps = _RIDGE_START
    todo = np.arange(len(B))  # the systems solved last, x their solutions
    while True:
        todo = todo[
            ~np.all(np.isfinite(x), axis=1) | (np.abs(x[:, -1]) > 1.0 + _PACF_SLACK)
        ]
        if not todo.size or eps > _RIDGE_STOP:
            break
        ridge[todo] = eps * scale[todo]
        x = phi[todo] = _gated_solve(B[todo] + ridge[todo, None, None] * eye, r[todo])
        eps *= 2.0
    phi[todo] = ridge[todo] = np.nan
    return phi, ridge


def _mspe_stack(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked matmul gives the bits of the scalar b @ B @ b; einsum and
    # elementwise sums round differently
    return (b[:, None, :] @ B @ b[:, :, None])[:, 0, 0]


def _mspe_ok(mb: np.ndarray, mf: np.ndarray) -> np.ndarray:
    """Where both MSPEs are positive and finite."""
    return (mb > 0.0) & (mf > 0.0) & np.isfinite(mb) & np.isfinite(mf)


def _plug_in_stack(G: np.ndarray, scale: np.ndarray, tau: int, certified: np.ndarray):
    """The three plug-in systems at lag tau of every point, solved.

    ``G[i, a, b]`` is the covariance of the times z_i+a and z_i+b, for
    a, b up to at least tau.  Every system is sliced from the block: the
    Yule-Walker system with its predictors ordered most recent first, the
    backcast and forecast systems on the times z_i+1..z_i+tau-1 with the
    targets z_i and z_i+tau.  Returns (phi, backcast, forecast, backward
    MSPE, forward MSPE, ridge); ``ridge[k, i]`` is the accepted ridge of
    the Yule-Walker (k=0), backcast (1) and forecast (2) system of point i,
    NaN where it ran out.  Every matrix is a principal submatrix of G[i],
    reordered, so ``certified`` = ``_certify(G)`` vouches for each ridge-0
    gate.
    """
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

    The plug-in stage is batched: the covariance block of the times
    zT..zT+max_lag is assembled once for every usable point by indexing
    the grid, and per lag the Yule-Walker, backcast and forecast systems
    are slices of it, each solved by one stacked solve.  Systems that fail
    the Cholesky or |phi| <= 1 gate are solved again with an escalating
    ridge, one stack per ridge level.  ``prediction_system`` runs the same
    stage at one point.

    The Cholesky gate keeps numpy's verdict with little LAPACK work.  One
    certificate per point (``_certify``) factors the block's unit-diagonal
    scaling less 1e-8 * I in numpy; where it succeeds, the scaling of every
    system sliced from the block has its smallest eigenvalue above Demmel's
    bound (LAPACK Working Note 14, 1989; Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.7), so every ridge-0 gate of every lag
    passes without a call.  Only uncertified points, and ridge levels
    above 0, go to ``np.linalg.cholesky``.  The 1x1 systems (Yule-Walker at
    lag 1, backcast and forecast at lag 2) are solved by division at every
    ridge level, with numpy's verdict and bits (``_gated_solve``).

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
    return _wavelet_stack([ts], max_scale, span, max_lag, points, demean, pad, lacv)[0]


def _wavelet_stack(
    series, max_scale, span, max_lag, points, demean, pad, lacv=None
) -> list[LpacfGrid]:
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
    if not len(x):
        return []
    R, T = x.shape
    if not 1 <= max_lag <= 10:
        raise InvalidArgumentError(f"max_lag={max_lag} outside [1, 10]")
    if lacv is None:
        if max_scale is None:
            max_scale = default_max_scale(T)
        if span is None:
            span = default_smoothing_span(T)
        if demean:
            x = x - x.mean(axis=-1, keepdims=True)
        ews = smooth_and_correct(raw_wavelet_periodogram(x, max_scale, pad=pad), span)
        values = local_autocovariance(ews, max_lag).values
        margin = (1 << (max_scale - 1)) + max_lag
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

    G = _midpoint_stack(side, z, max_lag + 1)  # times zT..zT+max_lag
    scale = np.maximum(side[0, z], 1e-300)
    certified = _certify(G)  # vouches for the ridge-0 gate of every lag
    estimates = np.empty((len(z), max_lag))
    ok = np.ones(len(z), dtype=bool)
    for tau in range(1, max_lag + 1):
        phi, _, _, mb, mf, ridge = _plug_in_stack(G, scale, tau, certified)
        ok &= ~np.isnan(ridge).any(axis=0) & _mspe_ok(mb, mf)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            estimates[:, tau - 1] = phi[:, -1] * np.sqrt(mb / mf)
    keep[keep] = ok
    estimates = estimates[ok]
    clamped = np.abs(estimates) > 1.0
    boundary = ((pts < margin) | (pts > T - 1 - margin)).astype(np.uint8)
    return _split("wavelet", pts, keep, np.clip(estimates, -1.0, 1.0), clamped, boundary)


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

        Either estimator takes the whole stack in one pass and refuses
        series of different lengths: the windowed one with one window-sum
        call and one Levinson recursion, the wavelet one with one spectral
        stage and one plug-in stage.
        """
        if self.method == "windowed":
            L, kernel = self.binwidth, self.kernel
            return _windowed_stack(xs, L, kernel, self.max_lag, points, demean)
        scale, span = self.max_scale, self.smooth_span
        return _wavelet_stack(xs, scale, span, self.max_lag, points, demean, pad)

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
mean of the window centred on it, the wavelet estimator the mean of the
whole series.  ``EstimatorConfig`` names an estimator and its knobs, and
its ``estimate_stack`` is the one place that picks an estimator and calls
it, for a stack of series of one length; ``estimate`` is its one-series
case.  Estimation at distinct time points is independent; the
implementations vectorize over points and produce deterministic output
ordering.  The windowed estimator sums its windows on the coarsest evenly
spaced progression that holds the requested points, with one
``np.vecdot`` over a read-only sliding view of the zero-padded rows, and
runs one batched Levinson recursion for them: evenly spaced points cost
only their own windows, scattered points the span they cover.  It takes a
whole stack in that one pass, the rows of every series in one window-sum
call and the kept points of every series in one recursion; every row and
column is computed on its own, so each series keeps the bits of a call on
it alone, and ``windowed_lpacf`` is the one-series case.  All three plug-in
systems at a point read one covariance block, the times zT..zT+tau of
the local autocovariance surface.  The plug-in stage assembles that
block for a stack of points by indexing the grid, slices each lag's
systems from it, and solves each kind with one stacked solve; the
systems that need a ridge are solved again as one stack per ridge level.
``wavelet_lpacf`` runs it on the requested points, and
``prediction_system`` on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    NumericalError,
)
from .kernels import EPANECHNIKOV, get_kernel
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


def confidence_halfwidth(L: int | np.ndarray) -> float | np.ndarray:
    """Approximate 95% half-width 1.96/sqrt(L) for a window of L points;
    L may be an array of window lengths."""
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


def _select_points(T: int, points) -> np.ndarray:
    if points is None:
        return np.arange(T)
    pts = np.asarray(points, dtype=int)
    if pts.size and (pts.min() < 0 or pts.max() > T - 1):
        raise InvalidArgumentError(f"points outside [0, {T - 1}]")
    return pts


# numpy's correlate sums kernels of at most this many taps in an unrolled
# left-to-right loop instead of the BLAS dot it uses for longer ones
_SMALL_KERNEL = 11


def _check_bandwidth(T: int, L: int, max_lag: int) -> None:
    if not 1 < L < T:
        raise InvalidArgumentError(f"bandwidth L={L} must lie in (1, T={T})")
    if not 1 <= max_lag < L / 2:
        raise InvalidArgumentError(f"max_lag={max_lag} outside [1, L/2) for L={L}")


def _window_sums(
    rows: np.ndarray, weights: np.ndarray, start: int, stop: int, step: int = 1
) -> np.ndarray:
    """sums[i, j] = sum_k rows[i, start + j*step + k] * weights[i, k].

    Only the windows starting at start, start + step, ... below stop are
    summed, each in the bits of ``np.correlate(rows[i], weights[i],
    "valid")`` at its start: vecdot calls the BLAS dot that correlate calls
    per entry, and short kernels repeat correlate's unrolled sum.  The
    windows are a read-only view of ``rows``, never a copy.
    """
    L = weights.shape[1]
    n, m = rows.shape
    # every length-L window of every row, as sliding_window_view builds it
    # but without its per-call checks
    windows = as_strided(
        rows, (n, m - L + 1, L), rows.strides + rows.strides[1:], writeable=False
    )[:, start:stop:step]
    if L > _SMALL_KERNEL:
        return np.vecdot(windows, weights[:, None, :])
    sums = np.zeros(windows.shape[:2])
    for k in range(L):
        sums += windows[..., k] * weights[:, None, k]
    return sums


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
    finite, are dropped.  ``demean``
    subtracts from each observation the kernel-weighted mean of the window
    centred on it.  ``points`` defaults to every index.  The window sums
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

    The R·(max_lag+2) zero-padded rows of the stack are summed by one
    ``_window_sums`` call and the kept points of every series go through
    one ``levinson_pacf``; every row and column is computed on its own, so
    each grid has the bits of a call on its series alone.
    """
    xs = [as_series(s).require_length().values for s in series]
    if not xs:
        return []
    T = len(xs[0])
    if any(len(x) != T for x in xs):
        raise InvalidArgumentError(
            f"a stack holds series of one length, not {sorted({len(x) for x in xs})}"
        )
    kernel = get_kernel(kernel)
    if L is None:
        L = default_bandwidth(T)
    _check_bandwidth(T, L, max_lag)
    pts = _select_points(T, points)
    R, K = len(xs), max_lag + 2

    # Zero-padded rows, K per series: the ones (weight mass) and the pair
    # products at lags 0..max_lag, each summed against its weights over
    # the window.  Pairs must lie fully inside the window: weight on the
    # left index, last tau window slots carry none.
    offs = np.arange(-L // 2 + 1, L // 2 + 1)
    w = kernel.h((offs + L / 2) / L)
    weights = w[None, :].repeat(K, axis=0)
    for tau in range(1, max_lag + 1):
        weights[1 + tau, L - tau :] = 0.0
    weights = np.tile(weights, (R, 1))
    rows = np.zeros((R * K, T + 2 * L))
    by_series = rows.reshape(R, K, -1)  # a view: row k of series r
    by_series[:, 0, L : L + T] = 1.0
    first = L + offs[0]  # start of point 0's window in the padded rows
    x = _unit_scaled(np.stack(xs))
    if demean:
        # the mass row once, then the series
        local = np.zeros((R + 1, T + 2 * L))
        local[0, L : L + T] = 1.0
        local[1:, L : L + T] = x
        sums = _window_sums(local, w[None, :].repeat(R + 1, axis=0), first, first + T)
        x = x - sums[1:] / sums[0]
    for tau in range(max_lag + 1):
        np.multiply(
            x[:, : T - tau], x[:, tau:], out=by_series[:, 1 + tau, L : L + T - tau]
        )
    if points is None:
        sums = _window_sums(rows, weights, first, first + T)
    else:
        # the windows lo, lo + step, ..., hi, the coarsest progression
        # holding every point (none for an empty selection); the points in
        # increasing order, each once, are the whole progression and need
        # no gather
        lo, hi = pts.min(initial=T), pts.max(initial=-1)
        step = int(np.gcd.reduce(pts - lo)) or 1
        sums = _window_sums(rows, weights, first + lo, first + hi + 1, step)
        if not np.array_equal(pts, np.arange(lo, hi + 1, step)):
            sums = sums[:, (pts - lo) // step]
    del rows, by_series  # free the padded rows before the Levinson pass
    sums = sums.reshape(R, K, -1)
    gamma = sums[:, 1:]
    gamma /= sums[:, :1]

    # in-bounds window points, an exact count
    eff = np.minimum(pts + offs[-1], T - 1) - np.maximum(pts + offs[0], 0) + 1
    keep = (eff >= 2 * max_lag) & (gamma[:, 0] > 0.0)
    keep &= np.isfinite(gamma).all(axis=1)

    # the kept points of every series, series by series, as columns
    kept = gamma.transpose(1, 0, 2).reshape(max_lag + 1, -1)[:, keep.ravel()]
    pacf = levinson_pacf(kept) if kept.size else np.zeros((max_lag, 0))
    clamped = np.abs(pacf) >= 1.0
    estimates = pacf.T.copy()
    boundary = (eff < L).astype(np.uint8)
    ci = confidence_halfwidth(eff.astype(float))
    grids = []
    end = 0
    for mask in keep:
        start, end = end, end + int(np.count_nonzero(mask))
        grids.append(
            LpacfGrid(
                kind="windowed",
                points=pts[mask],
                estimates=estimates[start:end],
                boundary=boundary[mask],
                bandwidth=int(L),
                ci_halfwidth=ci[mask],
                clamp_count=int(np.count_nonzero(clamped[:, start:end])),
                dropped_points=pts[~mask],
                effective_length=eff[mask],
            )
        )
    return grids


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
    z = np.array([zT])
    G = _midpoint_stack(lacv.values, z, tau + 1)
    scale = np.maximum(lacv.values[0, z], 1e-300)
    phi, bb, bf, mb, mf, ridge = _plug_in_stack(G, scale, tau)
    C = G[0]
    rev = slice(tau - 1, None, -1)
    inner = C[1:tau, 1:tau]  # the predictors of the backcast and the forecast
    for exhausted, B in zip(np.isnan(ridge[:, 0]), (C[rev, rev], inner, inner)):
        if exhausted:
            cond = float(np.linalg.cond(B)) if np.all(np.isfinite(B)) else np.inf
            raise NumericalError(
                f"Yule-Walker system unusable after ridge {_RIDGE_STOP}", condition=cond
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


def _gated_solve(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve every system M[i] x[i] = r[i] whose matrix passes the Cholesky
    positive-definiteness gate; x[i] is NaN where either step fails.

    A stacked Cholesky or solve raises for the whole stack when one member
    fails, and rounding can let a singular matrix pass Cholesky, so only a
    stack that raises is redone member by member.
    """
    try:
        np.linalg.cholesky(M)
        return np.linalg.solve(M, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(r.shape, np.nan)
        for i, (m, v) in enumerate(zip(M, r)):
            try:
                np.linalg.cholesky(m)
                x[i] = np.linalg.solve(m, v)
            except np.linalg.LinAlgError:
                pass
        return x


def _solve_stack(B: np.ndarray, r: np.ndarray, scale: np.ndarray):
    """Solve the stack of systems B[i] phi[i] = r[i], escalating a ridge.

    A system is accepted when B[i] + ridge * I passes the gate of
    ``_gated_solve`` and phi[i] is finite with |phi[i, -1]| <= 1 +
    ``_PACF_SLACK``.  Every system tries ridge 0, then eps * scale[i] for
    eps doubling from ``_RIDGE_START`` while it is at most ``_RIDGE_STOP``;
    each level solves the systems still rejected as one stack.  Returns
    (phi, ridge) with the accepted ridge of each system; both are NaN
    where the ridge ran out.
    """
    # B + 0.0 as B + 0*I: a -0.0 entry becomes 0.0, and can change the
    # sign of a zero solution
    x = phi = _gated_solve(B + 0.0, r)
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


def _plug_in_stack(G: np.ndarray, scale: np.ndarray, tau: int):
    """The three plug-in systems at lag tau of every point, solved.

    ``G[i, a, b]`` is the covariance of the times z_i+a and z_i+b, for
    a, b up to at least tau.  Every system is sliced from the block: the
    Yule-Walker system with its predictors ordered most recent first, the
    backcast and forecast systems on the times z_i+1..z_i+tau-1 with the
    targets z_i and z_i+tau.  Returns (phi, backcast, forecast, backward
    MSPE, forward MSPE, ridge); ``ridge[k, i]`` is the accepted ridge of
    the Yule-Walker (k=0), backcast (1) and forecast (2) system of point i,
    NaN where it ran out.
    """
    ridge = np.zeros((3, len(G)))
    rev = slice(tau - 1, None, -1)  # predictors z+tau-1 down to z
    phi, ridge[0] = _solve_stack(G[:, rev, rev], G[:, tau, rev], scale)
    bb = np.full((len(G), tau), -1.0)
    bf = bb.copy()
    if tau > 1:
        inner = G[:, 1:tau, 1:tau]
        bb[:, 1:], ridge[1] = _solve_stack(inner, G[:, 1:tau, 0], scale)
        bf[:, :-1], ridge[2] = _solve_stack(inner, G[:, 1:tau, tau], scale)
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

    ``demean`` subtracts the mean of the whole series before the spectral
    stage, not a local mean.  ``points`` defaults to every index; the
    plug-in stage solves only their systems, and the spectral stage covers
    the whole series.  Points too near the end of the grid, or failing
    numerically, are dropped and reported, not fatal: ``points`` and
    ``dropped_points`` each keep the order requested, a repeated point as
    often as requested.
    """
    ts = as_series(ts).require_length()
    T = ts.T
    if not 1 <= max_lag <= 10:
        raise InvalidArgumentError(f"max_lag={max_lag} outside [1, 10]")
    if lacv is None:
        if max_scale is None:
            max_scale = default_max_scale(T)
        if span is None:
            span = default_smoothing_span(T)
        x = _unit_scaled(ts.values)
        if demean:
            x = x - x.mean()
        raw = raw_wavelet_periodogram(x, max_scale, pad=pad)
        ews = smooth_and_correct(raw, span)
        lacv = local_autocovariance(ews, max(max_lag, 1))
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
        margin = max_lag
    pts = _select_points(T, points)
    keep = (pts + max_lag <= lacv.T - 1) & (lacv.values[0, pts] > 0)
    usable = pts[keep]

    G = _midpoint_stack(lacv.values, usable, max_lag + 1)  # times zT..zT+max_lag
    scale = np.maximum(lacv.values[0, usable], 1e-300)
    estimates = np.empty((len(usable), max_lag))
    ok = np.ones(len(usable), dtype=bool)
    for tau in range(1, max_lag + 1):
        phi, _, _, mb, mf, ridge = _plug_in_stack(G, scale, tau)
        ok &= ~np.isnan(ridge).any(axis=0) & _mspe_ok(mb, mf)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            estimates[:, tau - 1] = phi[:, -1] * np.sqrt(mb / mf)
    keep[keep] = ok
    usable = pts[keep]
    estimates = estimates[ok]
    clamp_count = int(np.sum(np.abs(estimates) > 1.0))
    estimates = np.clip(estimates, -1.0, 1.0)
    boundary = ((usable < margin) | (usable > T - 1 - margin)).astype(np.uint8)
    return LpacfGrid(
        kind="wavelet",
        points=usable,
        estimates=estimates,
        boundary=boundary,
        bandwidth=None,
        ci_halfwidth=None,
        clamp_count=clamp_count,
        dropped_points=pts[~keep],
    )


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

        The windowed estimator takes the whole stack in one pass (one
        window-sum call and one Levinson recursion) and refuses series of
        different lengths; the wavelet estimator runs once per series.
        """
        if self.method == "windowed":
            L, kernel = self.binwidth, self.kernel
            return _windowed_stack(xs, L, kernel, self.max_lag, points, demean)
        knobs = {"max_scale": self.max_scale, "span": self.smooth_span, "pad": pad}
        return [
            wavelet_lpacf(x, max_lag=self.max_lag, points=points, demean=demean, **knobs)
            for x in xs
        ]

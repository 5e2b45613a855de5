"""Time-varying AR generators, the exact local PACF truth, and the
Monte-Carlo RMSE benchmark harness.

The stationarity check and the truth share the reflection coefficients k_m
of the step-down (reverse Durbin-Levinson) recursion: an AR(p) model is
stationary iff all |k_m| < 1, and k_tau is its PACF at lag tau.

One private routine runs the AR recursion, over a checked (T, p) table of
coefficients phi(t/T).  ``simulate_tvar`` builds that table for one series;
a Monte-Carlo study builds it, and takes its truth from its reflection
coefficients, once for all replicates.  Replicates are independent and
seeded as ``seed + replicate_index``, so results are identical however
the work is partitioned: a study estimates its replicates in batches of a
fixed memory budget, one ``EstimatorConfig.estimate_stack`` call each.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, InvalidArgumentError
from .estimators import EstimatorConfig
from .series import TimeSeries

__all__ = [
    "ArPathSpec",
    "simulate_tvar",
    "simulate_piecewise_ar",
    "ar_autocovariances",
    "true_tv_pacf",
    "true_pacf_curve",
    "RmseRow",
    "RmseReport",
    "monte_carlo_rmse",
]

DEFAULT_BURN_IN = 500


@dataclass(frozen=True)
class ArPathSpec:
    """Coefficient path(s) of a time-varying AR(p) process.

    ``paths[i]`` maps rescaled time z = t/T to the lag-(i+1) coefficient.
    Every instantaneous coefficient vector must define a stationary AR
    model: all its step-down reflection coefficients have |k_m| < 1.
    """

    paths: tuple[Callable[[float], float], ...]
    sigma: float = 1.0
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidArgumentError(f"sigma={self.sigma} must be finite and > 0")
        if not isinstance(self.burn_in, (int, np.integer)) or self.burn_in < 0:
            raise InvalidArgumentError(
                f"burn_in={self.burn_in!r} must be an integer >= 0"
            )

    @property
    def order(self) -> int:
        return len(self.paths)

    def coefficients(self, z: float) -> np.ndarray:
        return np.array([p(z) for p in self.paths], dtype=float)

    @classmethod
    def constant(cls, coefs: Sequence[float], sigma: float = 1.0) -> "ArPathSpec":
        coefs = tuple(float(c) for c in coefs)
        return cls(tuple((lambda z, c=c: c) for c in coefs), sigma=sigma)

    @classmethod
    def linear_ramp(
        cls, start: Sequence[float] | float, end: Sequence[float] | float, sigma: float = 1.0
    ) -> "ArPathSpec":
        """Coefficients interpolating linearly in rescaled time."""
        start = np.atleast_1d(np.asarray(start, dtype=float))
        end = np.atleast_1d(np.asarray(end, dtype=float))
        if start.shape != end.shape:
            raise InvalidArgumentError("start and end must have the same length")
        paths = tuple(  # Python floats: same bits as numpy scalars, faster
            (lambda z, a=a, b=b: a + (b - a) * z)
            for a, b in zip(start.tolist(), end.tolist())
        )
        return cls(paths, sigma=sigma)

    @classmethod
    def piecewise(
        cls, segments: Sequence[tuple[int, Sequence[float]]], sigma: float = 1.0
    ) -> "ArPathSpec":
        """Piecewise-constant coefficients from (length, coefficients) pairs.

        Segment boundaries are interpreted on the rescaled-time axis of the
        concatenated series; shorter-order segments are zero-padded to the
        maximum order.
        """
        if not segments:
            raise InvalidArgumentError("need at least one segment")
        lengths = np.array([int(n) for n, _ in segments])
        if np.any(lengths <= 0):
            raise InvalidArgumentError("segment lengths must be positive")
        total = int(lengths.sum())
        p = max(len(c) for _, c in segments)
        coef_table = np.zeros((len(segments), p))
        for row, (_, c) in enumerate(segments):
            coef_table[row, : len(c)] = np.asarray(c, dtype=float)
        edges = (np.cumsum(lengths) / total).tolist()  # right edges in rescaled time

        def make(i):
            def path(z, edges=edges, col=coef_table[:, i].tolist()):
                return col[min(bisect_right(edges, z), len(col) - 1)]

            return path

        return cls(tuple(make(i) for i in range(p)), sigma=sigma)


def _reflection_coefficients(coefs: np.ndarray, where: str) -> np.ndarray:
    """Step-down reflection coefficients of the rows of an (n, p) AR table.
    A row fails unless all |k_m| < 1 - 1e-12, so a NaN from 0/0 fails too;
    the error names the first failing row as ``where.format(row)``."""
    coefs = a = np.array(coefs, dtype=float, ndmin=2)
    k = np.empty_like(coefs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(coefs.shape[1] - 1, -1, -1):
            k[:, m] = a[:, m]
            head, km = a[:, :m], a[:, m, None]
            a = (head + km * head[:, ::-1]) / (1.0 - km * km)
    stable = np.all(np.abs(k) < 1.0 - 1e-12, axis=1)
    if not stable.all():
        row = int(np.argmin(stable))
        raise InvalidArgumentError(
            f"coefficient path is not instantaneously stationary at "
            f"{where.format(row)}: phi={coefs[row].tolist()}"
        )
    return k


def _checked_table(spec: ArPathSpec, T: int) -> tuple[np.ndarray, np.ndarray]:
    """phi(t/T) as a (T, p) table, and its reflection coefficients once the
    stationarity check at every t has passed."""
    table = np.array(
        [[f(t / T) for f in spec.paths] for t in range(T)], dtype=float
    ).reshape(T, spec.order)
    return table, _reflection_coefficients(table, "t={}")


def validate_stability(spec: ArPathSpec, T: int) -> np.ndarray:
    """Stationarity check at every t; returns phi(t/T) as a (T, p) table."""
    return _checked_table(spec, T)[0]


def _ar_recursion(table: np.ndarray, burn_in: int, sigma: float, seed: int) -> np.ndarray:
    """X_t = sum_i phi_i X_{t-i} + sigma eps_t over the rows of a checked
    (T, p) table, after burn_in samples (discarded) with row 0 frozen.

    Runs on Python floats: each step adds the lag terms i = 1..min(p, t) in
    order to the innovation, so every rounding is that of float64 array
    arithmetic and the output is bit-identical for identical inputs.
    """
    if seed < 0:
        raise InvalidArgumentError(f"seed={seed} must be >= 0")
    p = table.shape[1]
    eps = np.random.default_rng(seed).standard_normal(len(table) + burn_in)
    x = (eps * sigma).tolist()
    # one row tuple per step from the columns, so no list of rows is held;
    # order 0 has no columns: the loop stops early, leaving the innovations
    steps = chain(repeat(tuple(table[0].tolist()), burn_in), zip(*table.T.tolist()))
    for t, c in enumerate(steps):
        v = x[t]
        k = t
        for ci in c if t >= p else c[:t]:  # phi_i * X_{t-i}, i = 1..min(p, t)
            k -= 1
            v += ci * x[k]
        x[t] = v
    return np.array(x[burn_in:])


def simulate_tvar(spec: ArPathSpec, T: int, seed: int) -> TimeSeries:
    """Simulate X_t = sum_i phi_i(t/T) X_{t-i} + sigma eps_t.

    The burn-in (spec.burn_in samples, discarded) runs with the t=0
    coefficients frozen; innovations are standard normal and the output is
    bit-identical for identical (spec, T, seed).
    """
    if T < 1:
        raise InvalidArgumentError(f"T={T} must be positive")
    x = _ar_recursion(validate_stability(spec, T), spec.burn_in, spec.sigma, seed)
    return TimeSeries(x)


def simulate_piecewise_ar(
    segments: Sequence[tuple[int, Sequence[float]]], seed: int, sigma: float = 1.0
) -> TimeSeries:
    """Concatenated AR segments with a continuous sample path.

    Each segment starts from the previous segment's tail; only the
    coefficients switch at the joins.
    """
    spec = ArPathSpec.piecewise(segments, sigma=sigma)
    T = int(sum(n for n, _ in segments))
    return simulate_tvar(spec, T, seed)


def ar_autocovariances(phi: Sequence[float], sigma: float, max_lag: int) -> np.ndarray:
    """Exact autocovariances gamma(0..max_lag) of a stationary AR(p).

    Solves the Yule-Walker moment equations
    gamma(k) = sum_i phi_i gamma(k-i) + sigma^2 delta_{k0} for gamma(0..p),
    then extends recursively.
    """
    phi = np.asarray(phi, dtype=float)
    p = len(phi)
    _reflection_coefficients(phi, "constant coefficients")
    # unknowns gamma(0..p)
    A = np.eye(p + 1)
    b = np.zeros(p + 1)
    b[0] = sigma**2
    for k in range(p + 1):
        for i in range(1, p + 1):
            A[k, abs(k - i)] -= phi[i - 1]
    gam = np.linalg.solve(A, b)
    out = np.empty(max_lag + 1)
    out[: p + 1] = gam[: max_lag + 1]
    for k in range(p + 1, max_lag + 1):
        out[k] = np.dot(phi, out[k - 1 : k - p - 1 : -1])
    return out


def true_tv_pacf(spec: ArPathSpec, t: int, tau: int, T: int) -> float:
    """PACF at lag tau of the AR model frozen at the instantaneous
    coefficients phi(t/T); exactly zero for tau beyond the order."""
    if tau < 1:
        raise InvalidArgumentError(f"tau={tau} must be >= 1")
    k = _reflection_coefficients(spec.coefficients(t / T), f"t={t}")[0]
    return float(k[tau - 1]) if tau <= len(k) else 0.0


def true_pacf_curve(spec: ArPathSpec, T: int, lags: Sequence[int]) -> np.ndarray:
    """true_tv_pacf evaluated on the full grid; shape (len(lags), T)."""
    lags = np.asarray(lags, dtype=int)
    if np.any(lags < 1):
        raise InvalidArgumentError(f"lags {lags.tolist()} must be >= 1")
    return _pacf_rows(_checked_table(spec, T)[1], lags)


def _pacf_rows(k: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Rows k[:, tau - 1] of a (T, p) reflection table for lags tau >= 1."""
    return np.pad(k, ((0, 0), (0, lags.max(initial=0)))).T[lags - 1]  # 0 past the order


@dataclass(frozen=True)
class RmseRow:
    estimator: str
    lag: int
    rmse: float
    stderr: float
    replicates: int
    excluded: int
    bandwidth: int | None
    elapsed_seconds: float


@dataclass(frozen=True)
class RmseReport:
    """The rows of a Monte-Carlo RMSE study, the replicates it excluded by
    reason, and the wall seconds its replicates spent in each stage."""

    rows: tuple[RmseRow, ...]
    seed: int
    no_interior: int  # no retained point outside the boundary margin
    too_many_dropped: int  # the estimator dropped more than 10% of points
    simulate_seconds: float
    estimate_seconds: float
    score_seconds: float

    @property
    def excluded(self) -> int:
        return self.no_interior + self.too_many_dropped


# Replicates per batch of a study: a batch holds its series, its grids
# and, for the windowed estimator, max_lag + 2 zero-padded rows of
# T + 2L < 3T entries per replicate; those rows stay under this many
# entries (one replicate at the least).
_BATCH_ENTRIES = 2**20


def monte_carlo_rmse(
    spec: ArPathSpec,
    config: EstimatorConfig,
    reps: int,
    lags: Sequence[int],
    seed: int,
    T: int,
) -> RmseReport:
    """Per-lag RMSE of an estimator against the frozen-coefficient truth.

    The coefficient table phi(t/T), its stationarity check and the truth
    (true_pacf_curve) are computed once per study.  For each replicate r:
    simulate with seed ``seed + r`` (the series simulate_tvar returns),
    estimate at all points, drop boundary-flagged points, take the
    root-mean-square deviation from the truth over the retained points,
    then average over replicates (standard error = sample s.d. /
    sqrt(reps)).  A replicate with no point outside the boundary margin,
    or in which the estimator fails at more than 10% of points, is
    excluded and counted by reason; when every replicate is, or every one
    but one (which leaves no standard error), the DataError gives each
    count.  The report holds one row per requested lag, in the order
    given; its ``bandwidth`` is the window width L the estimator used, None
    for the wavelet estimator.

    The replicates run in batches of a fixed memory budget
    (``_BATCH_ENTRIES``; the benchmark's studies fit in one): a batch's
    series are simulated one by one, estimated by one
    ``EstimatorConfig.estimate_stack`` call, which for the windowed
    estimator is one pass over the whole batch, and scored one by one.
    The estimates are those of one call per replicate, bit for bit.
    """
    if reps < 2:
        raise InvalidArgumentError(f"reps={reps} must be >= 2")
    lags = [int(v) for v in lags]
    if not lags:
        raise InvalidArgumentError("no lags requested")
    if max(lags) > config.max_lag:
        raise InvalidArgumentError("requested lag exceeds config.max_lag")
    if min(lags) < 1:
        raise InvalidArgumentError(f"lags {lags} must be >= 1")
    if T < 1:
        raise InvalidArgumentError(f"T={T} must be positive")
    table, k = _checked_table(spec, T)
    truth = _pacf_rows(k, np.array(lags))
    batch = max(1, _BATCH_ENTRIES // ((config.max_lag + 2) * 3 * T))
    t0 = time.perf_counter()
    per_rep = []
    no_interior = too_many_dropped = 0
    seconds = np.zeros(3)  # simulate, estimate, score
    for first in range(0, reps, batch):
        stamps = [time.perf_counter()]
        xs = [
            _ar_recursion(table, spec.burn_in, spec.sigma, seed + r)
            for r in range(first, min(first + batch, reps))
        ]
        stamps.append(time.perf_counter())
        grids = config.estimate_stack(xs)
        stamps.append(time.perf_counter())
        for grid in grids:
            interior = grid.boundary == 0
            pts = grid.points[interior]
            n_dropped = len(grid.dropped_points)
            if pts.size == 0:
                no_interior += 1
                continue
            if n_dropped > 0.1 * (len(grid.points) + n_dropped):
                too_many_dropped += 1
                continue
            errs = []
            for i, tau in enumerate(lags):
                e = grid.estimates[interior, tau - 1] - truth[i, pts]
                errs.append(np.sqrt(np.mean(e * e)))
            per_rep.append(errs)
        stamps.append(time.perf_counter())
        seconds += np.diff(stamps)
    report = RmseReport((), seed, no_interior, too_many_dropped, *seconds.tolist())
    if len(per_rep) < 2:  # no RMSE, or no standard error
        raise DataError(
            f"{'' if per_rep else 'all '}{report.excluded} of {reps} replicates were"
            f" excluded: {report.no_interior} with no point outside the boundary margin,"
            f" {report.too_many_dropped} with more than 10% of points dropped"
            + ("; the standard error needs 2 replicates" if per_rep else "")
        )
    elapsed = time.perf_counter() - t0
    per_rep = np.asarray(per_rep)
    used = per_rep.shape[0]
    rows = []
    for i, tau in enumerate(lags):
        vals = per_rep[:, i]
        rows.append(
            RmseRow(
                estimator=config.method,
                lag=tau,
                rmse=float(np.mean(vals)),
                stderr=float(np.std(vals, ddof=1) / np.sqrt(used)),
                replicates=used,
                excluded=report.excluded,
                bandwidth=grid.bandwidth,
                elapsed_seconds=elapsed,
            )
        )
    return replace(report, rows=tuple(rows))

"""Time-varying AR generators, the exact local PACF truth, and the
Monte-Carlo RMSE benchmark harness.

The stationarity check and the truth share the reflection coefficients k_m
of the step-down (reverse Durbin-Levinson) recursion: an AR(p) model is
stationary iff all |k_m| < 1, and k_tau is its PACF at lag tau.

A coefficient path is a function of the whole rescaled-time grid: the
(T, p) table of coefficients phi(t/T) takes one call of each path, on
the array of every t/T.  One private routine runs the AR recursion over
that table once it is checked, for one seed or many.  ``simulate_tvar``
builds it for one series; a Monte-Carlo study builds it, and takes its
truth from its reflection coefficients, once for all replicates.
Replicates are independent and seeded as ``seed + replicate_index``, so
results are identical however the work is partitioned: a study runs its
replicates in batches of a fixed memory budget, one recursion call, one
estimator pass and one array scoring each.  The recursion is one loop,
a multiply and an add per lag term per time step; the number of seeds
chooses only what it steps, one seed's Python floats at a time for a few
seeds and the rows of one array over all replicates for a larger batch.
The roundings are the same in the same order, so each series has the
same bits either way; either estimator runs a batch as one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import MAX_LENGTH, DataError, InvalidArgumentError, _check_int, _is_int
from .estimators import EstimatorConfig, _GridStack
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


def _check_sigma(sigma: float) -> None:
    if not (np.isfinite(sigma) and sigma > 0):
        raise InvalidArgumentError(f"sigma={sigma} must be finite and > 0")


@dataclass(frozen=True)
class ArPathSpec:
    """Coefficient path(s) of a time-varying AR(p) process.

    ``paths[i]`` maps an array of rescaled times z = t/T to the lag-(i+1)
    coefficients at those times; a scalar result broadcasts to every z.
    Every instantaneous coefficient vector must define a stationary AR
    model: all its step-down reflection coefficients have |k_m| < 1.
    """

    paths: tuple[Callable[[np.ndarray], np.ndarray | float], ...]
    sigma: float = 1.0
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        _check_sigma(self.sigma)
        if not _is_int(self.burn_in) or self.burn_in < 0:
            raise InvalidArgumentError(
                f"burn_in={self.burn_in!r} must be an integer >= 0"
            )

    @property
    def order(self) -> int:
        return len(self.paths)

    def coefficients(self, z: float | np.ndarray) -> np.ndarray:
        """phi(z): the p coefficients at a scalar z, or a (len(z), p) table
        for an array of z, with one call of each path."""
        out = np.empty(np.shape(z) + (self.order,))
        # a non-finite coefficient is left for the stationarity check to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            for i, path in enumerate(self.paths):
                out[..., i] = path(z)
        return out

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
        paths = tuple(
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
        p = max(len(c) for _, c in segments)
        coef_table = np.zeros((len(segments), p))
        for row, (n, c) in enumerate(segments):
            if not _is_int(n) or n <= 0:
                raise InvalidArgumentError(f"segment length {n!r} must be an integer >= 1")
            coef_table[row, : len(c)] = np.asarray(c, dtype=float)
        total = sum(n for n, _ in segments)  # so each segment is bounded too
        if total > MAX_LENGTH:
            raise InvalidArgumentError(f"segments total {total} samples, more than {MAX_LENGTH}")
        ends = np.cumsum([n for n, _ in segments])
        # the inner edges in rescaled time; segment k > 0 starts at z = joins[k - 1]
        joins = ends[:-1] / ends[-1]
        paths = tuple(
            (lambda z, c=c: c[np.searchsorted(joins, z, "right")]) for c in coef_table.T
        )
        return cls(paths, sigma=sigma)


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


def _check_length(T: int) -> int:
    return _check_int(T, f"T={T}", 1, MAX_LENGTH, f"must be positive and <= {MAX_LENGTH}")


def _checked_table(spec: ArPathSpec, T: int) -> tuple[np.ndarray, np.ndarray]:
    """phi(t/T) as a (T, p) table, and its reflection coefficients once the
    stationarity check at every t has passed."""
    table = spec.coefficients(np.arange(T) / T)
    return table, _reflection_coefficients(table, "t={}")


# Seeds from which the AR recursion steps the rows of all replicates
# rather than one seed's floats at a time.  A row step pays a multiply and
# an add call, about 1.2 us each, per lag term per step whatever the number
# of replicates R; a float step pays about 0.4 us per step per replicate.
# So floats win for few seeds and rows for many: at T=512 and T=4096 (with
# 500 burn-in steps) the two break even at about 8 replicates for p=1 and
# 10 to 11 for p=2 (medians of 15 and 7 alternated calls in one process on
# a 2-core x86-64 host).  The row cost grows faster with p than the float
# cost: at p=3 they break even near 12 seeds, so a p=3 batch of 10 or 11
# replicates takes the slower layout (3.80 against 3.34 ms for 10 seeds at
# T=512).  No study of the benchmark has p > 2, so one constant serves.
_STACK_SEEDS = 10


def _ar_recursion(
    table: np.ndarray, burn_in: int, sigma: float, seeds: Sequence[int]
) -> np.ndarray:
    """X_t = sum_i phi_i X_{t-i} + sigma eps_t over the rows of a checked
    (T, p) table, after burn_in samples (discarded) with row 0 frozen, for
    the innovations of each seed; shape (len(seeds), T).

    One loop steps a path: each step adds the lag terms i = 1..min(p, t),
    lag 1 first, to the innovation, one multiply and one add per term.  The
    seed count chooses only the path: below ``_STACK_SEEDS``, a list of one
    seed's Python floats, a seed at a time; from it on, the rows of a
    (T + burn_in, R) array, a step a row of R replicates.  Floats and
    float64 arrays round alike, so every series is bit-identical for
    identical inputs whatever seeds run beside it.
    """
    for seed in seeds:
        _check_int(seed, f"seed={seed}", 0)
    p = table.shape[1]
    n = len(table) + burn_in
    x = np.empty((n, len(seeds)))  # step t is the row x[t]
    stacked = len(seeds) >= _STACK_SEEDS
    # an overflow, of sigma * eps too, is refused below; inf - inf warns in
    # numpy, not on floats
    with np.errstate(over="ignore", invalid="ignore"):
        for col, seed in zip(x.T, seeds):
            np.multiply(np.random.default_rng(seed).standard_normal(n), sigma, col)
        for col in [x] if stacked else x.T:
            path = list(col) if stacked else col.tolist()
            # each step's coefficients as Python floats: row 0 frozen over the burn-in,
            # then the table's rows; order 0 has none, so the steps stop early
            for t, c in enumerate(
                chain(repeat(tuple(table[0].tolist()), burn_in), zip(*table.T.tolist()))
            ):
                v = path[t]
                k = t
                for ci in c if t >= p else c[:t]:  # phi_i * X_{t-i}, i = 1..min(p, t)
                    k -= 1
                    v += path[k] * ci
                path[t] = v
            if not stacked:
                col[:] = path
            del path  # one seed's floats at a time, and none beside the copy below
        paths = np.ascontiguousarray(x[burn_in:].T)
    if not np.isfinite(paths).all():
        raise InvalidArgumentError(f"sigma={sigma} is too large: the path overflows")
    return paths


def simulate_tvar(spec: ArPathSpec, T: int, seed: int) -> TimeSeries:
    """Simulate X_t = sum_i phi_i(t/T) X_{t-i} + sigma eps_t.

    The burn-in (spec.burn_in samples, discarded) runs with the t=0
    coefficients frozen; innovations are standard normal and the output is
    bit-identical for identical (spec, T, seed).
    """
    _check_length(T)
    table, _ = _checked_table(spec, T)
    return TimeSeries(_ar_recursion(table, spec.burn_in, spec.sigma, [seed])[0])


def simulate_piecewise_ar(
    segments: Sequence[tuple[int, Sequence[float]]], seed: int, sigma: float = 1.0
) -> TimeSeries:
    """Concatenated AR segments with a continuous sample path.

    Each segment starts from the previous segment's tail; only the
    coefficients switch at the joins.
    """
    spec = ArPathSpec.piecewise(segments, sigma=sigma)
    T = sum(n for n, _ in segments)
    return simulate_tvar(spec, T, seed)


def ar_autocovariances(phi: Sequence[float], sigma: float, max_lag: int) -> np.ndarray:
    """Exact autocovariances gamma(0..max_lag) of a stationary AR(p).

    Solves the Yule-Walker moment equations
    gamma(k) = sum_i phi_i gamma(k-i) + sigma^2 delta_{k0} for gamma(0..p),
    then extends recursively.
    """
    _check_sigma(sigma)
    try:
        variance = float(sigma) ** 2
    except OverflowError:
        raise InvalidArgumentError(f"sigma={sigma} is too large: sigma**2 overflows") from None
    phi = np.asarray(phi, dtype=float)
    p = len(phi)
    _reflection_coefficients(phi, "constant coefficients")
    # unknowns gamma(0..p)
    A = np.eye(p + 1)
    b = np.zeros(p + 1)
    b[0] = variance
    for k in range(p + 1):
        for i in range(1, p + 1):
            A[k, abs(k - i)] -= phi[i - 1]
    gam = np.linalg.solve(A, b)
    if not np.isfinite(gam).all():  # sigma^2 is finite, gamma(0) > sigma^2 is not
        raise InvalidArgumentError(f"sigma={sigma} is too large: the autocovariances overflow")
    out = np.empty(max_lag + 1)
    out[: p + 1] = gam[: max_lag + 1]
    for k in range(p + 1, max_lag + 1):
        out[k] = np.dot(phi, out[k - 1 : k - p - 1 : -1])
    return out


def true_tv_pacf(spec: ArPathSpec, t: int, tau: int, T: int) -> float:
    """PACF at lag tau of the AR model frozen at the instantaneous
    coefficients phi(t/T), 0 <= t < T; exactly zero for tau beyond the order."""
    _check_int(tau, f"tau={tau}", 1)
    _check_int(T, f"T={T}", 1, rule="must be positive")
    _check_int(t, f"t={t}", 0, T - 1, f"must be in [0, T - 1] = [0, {T - 1}]")
    k = _reflection_coefficients(spec.coefficients(t / T), f"t={t}")[0]
    return float(k[tau - 1]) if tau <= len(k) else 0.0


def true_pacf_curve(spec: ArPathSpec, T: int, lags: Sequence[int]) -> np.ndarray:
    """true_tv_pacf evaluated on the full grid; shape (len(lags), T)."""
    _check_length(T)
    lags = np.array(_checked_lags(lags), dtype=int)
    return _pacf_rows(_checked_table(spec, T)[1], lags)


def _checked_lags(lags: Sequence[int], max_lag: int | None = None) -> list[int]:
    """The lags as ints, each checked as it is read: an integer >= 1, and
    at most ``max_lag`` if one is given.  The first bad lag is refused by
    name, so a range of any length costs only the lags before it."""
    checked = []
    for tau in lags:
        if not (_is_int(tau) and tau >= 1):
            _check_int(tau, f"lag {tau}", 1)
        if max_lag is not None and tau > max_lag:
            raise InvalidArgumentError(f"requested lag {tau} exceeds config.max_lag={max_lag}")
        checked.append(int(tau))
    return checked


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


# Replicates per batch of a study: the largest arrays of a replicate stay
# under this many entries for the whole batch (one replicate at the least):
# the entries of its estimate (``EstimatorConfig._study``), and of its
# simulation, its column of the (T + burn_in, R) path array and its row of
# the (R, T) series, in either layout (this binds only for T below about
# burn_in / 7); below ``_STACK_SEEDS`` one seed's list of T + burn_in floats
# is held beside them.  The coefficients are Python floats, one tuple per
# step, never a (p, T + burn_in, R) broadcast (13.8 MB at T=512, R=170, p=10).
_BATCH_ENTRIES = 2**20


def _score(stack: _GridStack, truth: np.ndarray, lags: Sequence[int]):
    """The per-lag RMSEs of the scored replicates of a batch, one row each
    in replicate order, and the counts of the replicates excluded for
    having no kept point outside the boundary margin and for dropping more
    than 10% of the points, in that order.

    ``truth`` holds the truth at ``lags`` at every time.  A replicate's
    RMSE at lag tau is the root mean square of its estimates less the truth
    over its kept points outside the margin.  Replicate r's estimate at
    point p is row r * P + p of the stack's estimates, flattened to rows.
    The replicates that kept the same points are scored together, as one
    contiguous (lags, replicates, points) error array: each RMSE reduces
    one contiguous row of it, which numpy sums pairwise as it does a 1-D
    array, so each has the bits of its replicate scored alone.
    """
    keep = stack.keep
    R, P, max_lag = stack.estimates.shape
    interior = stack.boundary == 0
    no_interior = ~(keep & interior).any(axis=1)
    too_many_dropped = ~no_interior & (P - np.count_nonzero(keep, axis=1) > 0.1 * P)
    scored = np.flatnonzero(~no_interior & ~too_many_dropped)
    groups = {}
    for r in scored:
        groups.setdefault(keep[r].tobytes(), []).append(r)
    by_lag = stack.estimates.reshape(-1, max_lag).T[np.subtract(lags, 1)]  # a row per lag
    rmse = np.empty((R, len(lags)))
    for reps in groups.values():
        cols = np.flatnonzero(keep[reps[0]] & interior)  # the kept interior points
        e = np.take(by_lag, np.multiply(reps, P)[:, None] + cols, axis=1)
        e -= truth[:, None, stack.points[cols]]
        rmse[reps] = np.sqrt(np.mean(e * e, axis=-1)).T
    return rmse[scored], np.count_nonzero([no_interior, too_many_dropped], axis=1)


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
    for the wavelet estimator.  A study runs at most ``MAX_LENGTH``
    replicates.  A study that the estimator refuses
    (``EstimatorConfig._study``: it could not run, or, for the wavelet
    estimator, no replicate could score) is refused with the estimator's
    message before a lag is read or a replicate simulated.  Each lag is
    checked against ``config.max_lag`` as it is read, so a range of any
    length is refused at its first lag beyond it.

    The replicates run in batches of a fixed memory budget
    (``_BATCH_ENTRIES``, of which ``EstimatorConfig._study`` gives a
    replicate's estimate its share; the benchmark's studies fit in one): a
    batch's series are simulated by one ``_ar_recursion`` call, whose one
    loop steps the rows of all replicates for a batch of ``_STACK_SEEDS``
    or more and one seed's floats at a time below that, and estimated
    together as one stack (``EstimatorConfig.estimate_stack``).  The stacked
    result (``EstimatorConfig._grid_stack``) is scored as arrays, with no
    grid per replicate: ``_score`` counts the exclusions from its keep mask
    and boundary flags, and scores the replicates that kept the same
    points, all of them when none dropped a point, as one array.  The
    estimates and RMSEs are those of one estimate and one score per
    replicate, bit for bit.
    """
    _check_int(reps, f"reps={reps}", 2, MAX_LENGTH, f"must be >= 2 and <= {MAX_LENGTH}")
    _check_int(seed, f"seed={seed}", 0)
    if not len(lags[:1]):  # the first lag alone: len() of a vast range overflows
        raise InvalidArgumentError("no lags requested")
    T = _check_length(T)
    bandwidth, entries = config._study(T)
    lags = _checked_lags(lags, config.max_lag)
    table, k = _checked_table(spec, T)
    truth = _pacf_rows(k, np.array(lags))
    batch = max(1, _BATCH_ENTRIES // max(entries, 2 * T + spec.burn_in))
    t0 = time.perf_counter()
    per_rep = []
    excluded = np.zeros(2, dtype=int)  # no interior point, more than 10% dropped
    seconds = np.zeros(3)  # simulate, estimate, score
    for first in range(0, reps, batch):
        stamps = [time.perf_counter()]
        seeds = range(seed + first, seed + min(first + batch, reps))
        xs = _ar_recursion(table, spec.burn_in, spec.sigma, seeds)
        stamps.append(time.perf_counter())
        stack = config._grid_stack(xs)
        stamps.append(time.perf_counter())
        rmse, counts = _score(stack, truth, lags)
        per_rep.append(rmse)
        excluded += counts
        stamps.append(time.perf_counter())
        seconds += np.diff(stamps)
        del xs, stack  # the next batch is simulated and estimated without them
    report = RmseReport((), seed, *excluded.tolist(), *seconds.tolist())
    per_rep = np.concatenate(per_rep)
    if len(per_rep) < 2:  # no RMSE, or no standard error
        raise DataError(
            f"{'' if len(per_rep) else 'all '}{report.excluded} of {reps} replicates were"
            f" excluded: {report.no_interior} with no point outside the boundary margin,"
            f" {report.too_many_dropped} with more than 10% of points dropped"
            + ("; the standard error needs 2 replicates" if len(per_rep) else "")
        )
    elapsed = time.perf_counter() - t0
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
                bandwidth=bandwidth,
                elapsed_seconds=elapsed,
            )
        )
    return replace(report, rows=tuple(rows))

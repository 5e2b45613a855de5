"""Classical and local partial autocorrelation estimators."""

import re
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpacf import (
    DataError,
    DegenerateInputError,
    EstimatorConfig,
    InvalidArgumentError,
    LocalAcvGrid,
    ar_autocovariances,
    classical_pacf,
    confidence_halfwidth,
    levinson_pacf,
    simulate_tvar,
    wavelet_lpacf,
    windowed_lpacf,
    ArPathSpec,
    local_autocovariance,
    raw_wavelet_periodogram,
    smooth_and_correct,
)
from locpacf import estimators
from locpacf.errors import NumericalError
from locpacf.cli import TVAR_STUDY
from locpacf.estimators import (
    _PACF_SLACK,
    _RIDGE_START,
    _RIDGE_STOP,
    _gated_solve,
    _plug_in_stack,
    _solve_stack,
)
from locpacf.kernels import EPANECHNIKOV, _window_sums, get_kernel
from locpacf.series import _CHUNK_POINTS, as_series
from locpacf.simulate import _BATCH_ENTRIES
from locpacf.spectral import default_max_scale, default_smoothing_span


# Scalar reference implementations.  The library computes these quantities
# in batched form; each definition here is the oracle its fast path is
# pinned to.


class InsufficientWindowError(Exception):
    """The oracle's window keeps too few points or no weight mass."""


def weighted_local_acv(ts, center: int, L: int, kernel=EPANECHNIKOV, max_lag: int = 1):
    """Kernel-weighted local autocovariances around one time point.

    gamma_z(tau) = sum_t w_t X_t X_{t+tau} / sum_t w_t over pairs lying
    inside the L-point window center-ceil(L/2)+1 .. center+floor(L/2),
    weighted by the left index via w_t = h((t - center + L/2)/L).  The
    rectangular kernel reproduces the classical biased autocovariance of
    the length-L sub-series exactly.

    Returns (gamma, effective_length, clipped) where effective_length is
    the number of in-bounds window points and clipped tells whether the
    nominal window left the series.
    """
    ts = as_series(ts)
    kernel = get_kernel(kernel)
    T = ts.T
    if max_lag >= L / 2:
        raise InvalidArgumentError(f"max_lag={max_lag} must be < L/2 = {L / 2}")
    t = center + np.arange(-L // 2 + 1, L // 2 + 1)
    w = kernel.h((t - center + L / 2) / L)
    inb = (t >= 0) & (t <= T - 1)
    clipped = bool(np.any(~inb))
    eff = int(np.sum(inb))
    if eff < max_lag + 1:
        raise InsufficientWindowError(
            f"window at center={center} retains {eff} points < max_lag+1"
        )
    denom = float(np.sum(w[inb]))
    if denom <= 0.0:
        raise InsufficientWindowError(f"window at center={center} has zero weight mass")
    x = ts.values
    win_end = t[-1]
    gamma = np.zeros(max_lag + 1)
    for tau in range(max_lag + 1):
        ok = inb & (t + tau <= min(T - 1, win_end))
        tt = t[ok]
        gamma[tau] = float(np.sum(w[ok] * x[tt] * x[tt + tau])) / denom
    return gamma, eff, clipped


def _sliding_dot(arr: np.ndarray, w: np.ndarray, offs: np.ndarray, T: int) -> np.ndarray:
    """out[c] = sum_k arr[c + offs[k]] * w[k], zero outside [0, T-1].

    One full-length ``np.correlate`` pass; the windowed estimator's sums at
    any selection of points must equal these entries bit for bit.
    """
    L = len(w)
    pad = np.zeros(T + 2 * L)
    pad[L : L + T] = arr
    full = np.correlate(pad, w, "valid")
    idx = np.arange(T) + offs[0] + L
    return full[idx]


def _correlate_window_sums(x, L, kernel, max_lag, demean):
    """The windowed estimator's weight mass and lag-0..max_lag pair sums at
    every point, one ``_sliding_dot`` pass per row, and its weight rows."""
    T = len(x)
    offs = np.arange(-L // 2 + 1, L // 2 + 1)
    w = get_kernel(kernel).h((offs + L / 2) / L)
    denom = _sliding_dot(np.ones(T), w, offs, T)
    if demean:
        x = x - _sliding_dot(x, w, offs, T) / denom
    weights = [w]
    sums = [denom]
    for tau in range(max_lag + 1):
        w_tau = w.copy()
        if tau:
            w_tau[L - tau :] = 0.0
        prod = np.zeros(T)
        prod[: T - tau] = x[: T - tau] * x[tau:]
        weights.append(w_tau)
        sums.append(_sliding_dot(prod, w_tau, offs, T))
    return np.array(sums), np.array(weights), x


def _pair_cov_matrix(lacv: LocalAcvGrid, times: np.ndarray) -> np.ndarray:
    n = len(times)
    M = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            M[a, b] = M[b, a] = lacv.midpoint(times[a], times[b])
    return M


def _solve_regularized(B: np.ndarray, r: np.ndarray, scale: float, system: str):
    """Solve B phi = r, escalating ridge regularization until the system is
    positive definite and the trailing coefficient is a valid correlation;
    ``system`` names it in the error raised when the ridge runs out."""
    ridge = 0.0
    eps = _RIDGE_START
    eye = np.eye(B.shape[0])
    while True:
        M = B + ridge * eye
        try:
            np.linalg.cholesky(M)  # positive-definiteness gate
            phi = np.linalg.solve(M, r)
            if abs(phi[-1]) <= 1.0 + _PACF_SLACK and np.all(np.isfinite(phi)):
                return phi, ridge
        except np.linalg.LinAlgError:
            pass
        if eps > _RIDGE_STOP:
            cond = float(np.linalg.cond(B)) if np.all(np.isfinite(B)) else np.inf
            raise NumericalError(
                f"{system} system unusable after ridge {_RIDGE_STOP}", condition=cond
            )
        ridge = eps * scale
        eps *= 2.0


@dataclass(frozen=True)
class _Systems:
    """The plug-in systems at one point and lag, solved: the Yule-Walker
    coefficients, whose last is phi_tau,tau, and the backcast and forecast
    coefficient vectors, each with -1 at its target, with their MSPEs."""

    coefficients: np.ndarray
    backcast: np.ndarray
    forecast: np.ndarray
    mspe_backward: float
    mspe_forward: float

    @property
    def estimate(self) -> float:
        """phi_tau,tau * sqrt(backward MSPE / forward MSPE), before clamping."""
        ratio = float(np.sqrt(self.mspe_backward / self.mspe_forward))
        return float(self.coefficients[-1]) * ratio


def _scalar_prediction_system(lacv: LocalAcvGrid, zT: int, tau: int) -> _Systems:
    """The plug-in systems at (zT, tau), built point by point from
    ``lacv.midpoint`` and solved one at a time: the oracle of the LAPACK
    stage of ``wavelet_lpacf``.  NumericalError when a system runs out of
    ridge or an MSPE is not positive and finite."""
    C = _pair_cov_matrix(lacv, np.arange(zT, zT + tau + 1))
    scale = max(lacv.at(zT, 0), 1e-300)
    rev = slice(tau - 1, None, -1)  # predictors zT+tau-1 down to zT
    phi, _ = _solve_regularized(C[rev, rev], C[tau, rev], scale, "Yule-Walker")
    Bb = C[:-1, :-1]  # backcast span zT..zT+tau-1, target first
    Bf = C[1:, 1:]  # forecast span zT+1..zT+tau, target last
    if tau == 1:
        bb = np.array([-1.0])
        bf = np.array([-1.0])
        mb, mf = float(Bb[0, 0]), float(Bf[0, 0])
    else:
        beta_b, _ = _solve_regularized(Bb[1:, 1:], Bb[1:, 0], scale, "backcast")
        beta_f, _ = _solve_regularized(Bf[:-1, :-1], Bf[:-1, -1], scale, "forecast")
        bb = np.concatenate([[-1.0], beta_b])
        bf = np.concatenate([beta_f, [-1.0]])
        mb = float(bb @ Bb @ bb)
        mf = float(bf @ Bf @ bf)
    if not (mb > 0.0 and mf > 0.0 and np.isfinite(mb) and np.isfinite(mf)):
        raise NumericalError(
            f"non-positive MSPE at zT={zT}, tau={tau}",
            condition=float(np.linalg.cond(Bf)),
        )
    return _Systems(phi, bb, bf, mb, mf)


def _at_ridge_0(lacv: LocalAcvGrid, zT: int, tau: int) -> bool:
    """Whether the scalar oracle accepts the Yule-Walker, backcast and
    forecast systems at (zT, tau) without a ridge."""
    C = _pair_cov_matrix(lacv, np.arange(zT, zT + tau + 1))
    scale = max(lacv.at(zT, 0), 1e-300)
    rev = slice(tau - 1, None, -1)
    systems = [(C[rev, rev], C[tau, rev])]
    if tau > 1:
        systems += [(C[1:tau, 1:tau], C[1:tau, 0]), (C[1:tau, 1:tau], C[1:tau, tau])]
    try:
        return all(_solve_regularized(B, r, scale, "")[1] == 0.0 for B, r in systems)
    except NumericalError:
        return False


def _definition(lacv: LocalAcvGrid, zT: int, tau: int):
    """The estimate at (zT, tau) by its definition, and the tolerance that
    the plug-in stage holds it to: (q, tol).

    q = -P[0, tau] / sqrt(P[0, 0] P[tau, tau]), P the inverse of the block
    of the times zT..zT+tau built with ``LocalAcvGrid.midpoint``: the
    partial correlation of the two end times given the times between.  It
    is defined where the block is positive definite, and NaN elsewhere.
    The tolerance is 16 n eps kappa, for the n = tau + 1 times, eps the
    spacing of doubles at 1 and kappa the 2-norm condition number of the
    block's unit-diagonal scaling, which a correlation does not see (inf
    where the diagonal is not positive): a stable solve of an n x n system
    errs by a small multiple of n eps kappa.  Both the LAPACK stage and the lattice err by at most 0.18 n eps
    kappa on the ``_grid_family`` grids (70 359 cases each), the most at
    lag 1, where both have the bits of one division.
    """
    C = _pair_cov_matrix(lacv, np.arange(zT, zT + tau + 1))
    if not (np.diag(C) > 0.0).all():
        return np.nan, np.inf
    d = 1.0 / np.sqrt(np.diag(C))
    kappa = np.linalg.cond(C * d[:, None] * d[None, :])
    tol = 16 * (tau + 1) * np.finfo(float).eps * kappa
    if not _passes_cholesky(C):
        return np.nan, tol
    P = np.linalg.inv(C)
    return -P[0, tau] / np.sqrt(P[0, 0] * P[tau, tau]), tol


def test_confidence_halfwidth_values():
    assert confidence_halfwidth(40) == pytest.approx(0.30990, abs=5e-6)
    # 1.96/sqrt(250) = 0.1239613 (the figure-caption rounding 0.12397 is off
    # in the last digit; the defining formula wins)
    assert confidence_halfwidth(250) == 1.96 / np.sqrt(250)
    assert confidence_halfwidth(250) == pytest.approx(0.12396, abs=5e-6)
    assert confidence_halfwidth(1) == pytest.approx(1.96)
    # one band per window length, and one short window fails them all
    lengths = np.array([40.0, 250.0])
    assert np.array_equal(confidence_halfwidth(lengths), 1.96 / np.sqrt(lengths))
    with pytest.raises(InvalidArgumentError, match="must be >= 1"):
        confidence_halfwidth(np.array([40, 0]))
    # a list of window lengths is taken as an array
    assert np.array_equal(confidence_halfwidth([4, 9]), [0.98, 1.96 / 3])
    with pytest.raises(InvalidArgumentError, match="must be >= 1"):
        confidence_halfwidth([4, 0])


def test_levinson_on_exact_ar2_autocovariances():
    gam = ar_autocovariances([0.5, 0.2], 1.0, 6)
    pacf = levinson_pacf(gam)
    assert pacf[0] == pytest.approx(0.625, abs=1e-12)
    assert pacf[1] == pytest.approx(0.2, abs=1e-12)
    assert np.all(np.abs(pacf[2:]) < 1e-10)  # order cutoff


def test_levinson_on_exact_ar1_autocovariances():
    gam = 0.7 ** np.arange(5)
    pacf = levinson_pacf(gam)
    assert pacf[0] == pytest.approx(0.7, abs=1e-14)
    assert np.all(np.abs(pacf[1:]) < 1e-14)


def test_levinson_matches_full_yule_walker_solve():
    # independent oracle: solve the full Toeplitz system per lag
    rng = np.random.default_rng(7)
    x = rng.standard_normal(512)
    T = len(x)
    gam = np.array([np.dot(x[: T - k], x[k:]) / T for k in range(7)])
    pacf = levinson_pacf(gam)
    for tau in range(1, 7):
        G = gam[np.abs(np.subtract.outer(np.arange(tau), np.arange(tau)))]
        phi = np.linalg.solve(G, gam[1 : tau + 1])
        assert pacf[tau - 1] == pytest.approx(phi[-1], abs=1e-10)


def test_classical_pacf_lag1_is_acv_ratio():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(256)
    g0 = np.dot(x, x) / 256
    g1 = np.dot(x[:-1], x[1:]) / 256
    assert classical_pacf(x, 1)[0] == pytest.approx(g1 / g0, abs=1e-14)


def test_classical_pacf_degenerate_input():
    with pytest.raises(DegenerateInputError):
        classical_pacf(np.zeros(64), 2)


@pytest.mark.parametrize("c", [1.5, 0.3, -7.25, 1e-3, 0.1, 1e300])
@pytest.mark.parametrize("T", [100, 128])
def test_classical_pacf_demeaned_constant_is_degenerate(c, T):
    # the demeaned constant is rounding noise, not a persistent series
    with pytest.raises(DegenerateInputError, match="^series has zero sample variance$"):
        classical_pacf(np.full(T, c), 3, demean=True)
    # a variation at 1e-6 of the level is far above the rounding of the mean
    noise = np.random.default_rng(0).standard_normal(T)
    got = classical_pacf(c * (1.0 + 1e-6 * noise), 3, demean=True)
    assert np.allclose(got, classical_pacf(noise, 3, demean=True), rtol=0.0, atol=1e-7)


def test_classical_pacf_lag_bounds():
    with pytest.raises(InvalidArgumentError):
        classical_pacf(np.arange(16.0), 8)
    # a series too short for any lag is a data error, whatever max_lag
    for T in (1, 2, 3):
        with pytest.raises(DataError, match=rf"^series too short for estimation: T={T} < 4$"):
            classical_pacf(np.arange(1.0, T + 1), 1)
    assert classical_pacf(np.arange(1.0, 5), 1).shape == (1,)
    with pytest.raises(InvalidArgumentError, match=r"^max_lag=2 outside \[1, T/2\) for T=4$"):
        classical_pacf(np.arange(1.0, 5), 2)


def test_weighted_local_acv_rectangular_is_classical():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(200)
    L, c = 50, 100
    gam, eff, clipped = weighted_local_acv(x, c, L, "rectangular", 3)
    sub = x[c - L // 2 + 1 : c + L // 2 + 1]
    ref = np.array([np.dot(sub[: L - k], sub[k:]) / L for k in range(4)])
    assert np.allclose(gam, ref, atol=1e-14)
    assert eff == L and not clipped


def test_weighted_local_acv_zero_series():
    gam, _, _ = weighted_local_acv(np.zeros(64), 32, 16, "epanechnikov", 2)
    assert np.all(gam == 0.0)


def test_weighted_local_acv_ar1_monte_carlo():
    spec = ArPathSpec.constant([0.8])
    ts = simulate_tvar(spec, 4096, 123)
    gam, _, _ = weighted_local_acv(ts, 2048, 1024, "epanechnikov", 1)
    assert gam[1] / gam[0] == pytest.approx(0.8, abs=0.08)


def test_weighted_local_acv_insufficient_window():
    with pytest.raises(InsufficientWindowError):
        weighted_local_acv(np.arange(64.0), -40, 16, "rectangular", 2)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("L", [41, 161, 513])
def test_windowed_rectangular_odd_width_is_time_reversible(seed, L):
    # a rectangular window of odd width is centred, so reversing the series
    # reverses the estimates, boundary points and their flags included
    x = simulate_tvar(ArPathSpec.linear_ramp([0.9], [-0.9]), 1024, seed).values
    fwd = windowed_lpacf(x, L=L, kernel="rectangular", max_lag=4)
    rev = windowed_lpacf(x[::-1], L=L, kernel="rectangular", max_lag=4)
    assert np.array_equal(fwd.points, np.arange(1024))
    assert np.array_equal(rev.points, np.arange(1024))
    assert np.array_equal(rev.boundary[::-1], fwd.boundary)
    assert np.array_equal(rev.effective_length[::-1], fwd.effective_length)
    assert np.allclose(rev.estimates[::-1], fwd.estimates, rtol=0.0, atol=1e-12)


def test_windowed_matches_classical_on_interior_points():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(512)
    L = 128
    grid = windowed_lpacf(x, L=L, kernel="rectangular", max_lag=4, points=[100, 256, 400])
    for row, c in enumerate(grid.points):
        sub = x[c - L // 2 + 1 : c + L // 2 + 1]
        assert np.allclose(grid.estimates[row], classical_pacf(sub, 4), atol=1e-13)
    assert np.all(grid.boundary == 0)
    assert np.allclose(grid.ci_halfwidth, 1.96 / np.sqrt(L))


def test_windowed_boundary_flags_and_effective_length():
    x = np.random.default_rng(11).standard_normal(256)
    grid = windowed_lpacf(x, L=64, kernel="rectangular", max_lag=2)
    assert len(grid.points) + len(grid.dropped_points) == 256
    clipped = grid.boundary == 1
    assert np.all(grid.effective_length[clipped] < 64)
    assert np.all(grid.effective_length[~clipped] == 64)
    # CI uses the effective window length
    assert np.allclose(
        grid.ci_halfwidth, 1.96 / np.sqrt(grid.effective_length.astype(float))
    )


@pytest.mark.parametrize("L", [8, 28], ids=["unrolled", "vecdot"])
@pytest.mark.parametrize("kernel", ["rectangular", "epanechnikov"])
@pytest.mark.parametrize("c", [1.5, 0.3, -7.25, 1e-3, 1e300, 1.0])
def test_windowed_demean_drops_every_point_of_a_constant_series(c, kernel, L):
    # a local mean of a constant is c only up to rounding; what is left
    # after subtracting it is noise, not variance
    grid = windowed_lpacf(np.full(128, c), L=L, kernel=kernel, max_lag=2, demean=True)
    assert len(grid.points) == 0
    assert np.array_equal(grid.dropped_points, np.arange(128))
    # a small variation about a large mean is variance, and kept
    x = c + abs(c) * 1e-9 * np.random.default_rng(0).standard_normal(128)
    grid = windowed_lpacf(x, L=L, kernel=kernel, max_lag=2, demean=True)
    assert len(grid.points) == 128


def test_windowed_stride_and_explicit_points():
    x = np.random.default_rng(12).standard_normal(256)
    g1 = windowed_lpacf(x, L=64, max_lag=2, points=np.arange(0, 256, 32))
    assert np.all(np.diff(g1.points) == 32)
    g2 = windowed_lpacf(x, L=64, max_lag=2, points=[64, 128])
    assert list(g2.points) == [64, 128]
    with pytest.raises(InvalidArgumentError):
        windowed_lpacf(x, L=64, max_lag=2, points=[999])
    # a Python int beyond int64 is a point out of range, not a fraction
    with pytest.raises(InvalidArgumentError, match=r"^points outside \[0, 255\]$"):
        windowed_lpacf(x, L=64, max_lag=2, points=[64, 10**22])


@pytest.mark.parametrize(
    "points",
    [
        [10.7], [float("nan")], [10, 12.5], ["10"], [True], [10**22, True], [None],
        [10, True], [10.0, True], (10, np.bool_(True)),
    ],
)
def test_estimators_refuse_points_that_are_not_whole_numbers(points):
    x = np.random.default_rng(12).standard_normal(256)
    for estimate in (
        lambda: windowed_lpacf(x, L=8, max_lag=1, points=points),
        lambda: wavelet_lpacf(x, max_lag=1, points=points),
    ):
        with pytest.raises(InvalidArgumentError, match="^points must be whole numbers$"):
            estimate()


def test_estimators_refuse_a_two_dimensional_points_array():
    x = np.random.default_rng(12).standard_normal(256)
    for estimate in (
        lambda points: windowed_lpacf(x, L=8, max_lag=1, points=points),
        lambda points: wavelet_lpacf(x, max_lag=1, points=points),
    ):
        with pytest.raises(
            InvalidArgumentError, match=r"^points must be one-dimensional, not of shape \(1, 2\)$"
        ):
            estimate([[10, 12]])
        # a scalar point is one point
        assert estimate(10).points.tolist() == [10]


@pytest.mark.parametrize(
    "estimate, needle",
    [
        (lambda x: windowed_lpacf(x, L=40.5), "bandwidth L=40.5 must be an integer"),
        (lambda x: windowed_lpacf(x, L=True), "bandwidth L=True must be an integer"),
        (lambda x: windowed_lpacf(x, L=40, max_lag=2.5), "max_lag=2.5 must be an integer"),
        (lambda x: windowed_lpacf(x, L=40, max_lag=True), "max_lag=True must be an integer"),
        (lambda x: wavelet_lpacf(x, max_lag=2.5), "max_lag=2.5 must be an integer"),
        (lambda x: wavelet_lpacf(x, max_lag=True), "max_lag=True must be an integer"),
        (lambda x: wavelet_lpacf(x, max_scale=2.5), "max_scale=2.5 must be an integer"),
        (lambda x: wavelet_lpacf(x, max_scale=True), "max_scale=True must be an integer"),
        (lambda x: wavelet_lpacf(x, span=1.5), "span=1.5 must be an integer"),
        (lambda x: wavelet_lpacf(x, span=False), "span=False must be an integer"),
        (lambda x: classical_pacf(x, 2.5), "max_lag=2.5 must be an integer"),
        (lambda x: classical_pacf(x, True), "max_lag=True must be an integer"),
    ],
)
def test_estimators_refuse_integer_arguments_that_are_not_integers(estimate, needle):
    # each raised TypeError, or went on with the value truncated
    x = np.random.default_rng(12).standard_normal(256)
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}$"):
        estimate(x)


def test_estimators_take_numpy_integer_arguments():
    x = np.random.default_rng(12).standard_normal(256)
    i = np.int64
    pairs = [
        (windowed_lpacf(x, L=i(40), max_lag=i(3)), windowed_lpacf(x, L=40, max_lag=3)),
        (
            wavelet_lpacf(x, max_scale=i(5), span=i(4), max_lag=i(3)),
            wavelet_lpacf(x, max_scale=5, span=4, max_lag=3),
        ),
    ]
    for got, want in pairs:
        assert got.estimates.tobytes() == want.estimates.tobytes()
    assert classical_pacf(x, i(3)).tobytes() == classical_pacf(x, 3).tobytes()


def test_estimators_take_whole_valued_float_points():
    x = np.random.default_rng(12).standard_normal(256)
    for estimate in (windowed_lpacf, wavelet_lpacf):
        kw = {"L": 8} if estimate is windowed_lpacf else {}
        whole = estimate(x, max_lag=1, points=np.array([10.0, 12.0]), **kw)
        ints = estimate(x, max_lag=1, points=[10, 12], **kw)
        assert whole.points.tobytes() == ints.points.tobytes()
        assert whole.estimates.tobytes() == ints.estimates.tobytes()


def test_both_estimators_count_only_estimates_beyond_one_as_clamped(monkeypatch):
    # an exact +-1 is clipped to itself and not counted; 1.5 is counted
    T = 64
    for rho in (1.0, -1.0):
        lacv = LocalAcvGrid(np.vstack([np.ones(T), np.full(T, rho)]), 0)
        grid = wavelet_lpacf(np.ones(T), max_lag=1, points=[10, 20], lacv=lacv)
        assert grid.estimates.tolist() == [[rho], [rho]]
        assert grid.clamp_count == 0
    # the windowed estimator's unclipped Levinson reflections, replaced
    raw = np.array([[1.0, -1.0], [1.5, -1.0], [0.5, -1.5]])
    monkeypatch.setattr(estimators, "_levinson", lambda gamma: raw.T.copy())
    x = np.random.default_rng(13).standard_normal(256)
    grid = windowed_lpacf(x, L=16, max_lag=2, points=[40, 50, 60])
    assert grid.estimates.tolist() == [[1.0, -1.0], [1.0, -1.0], [0.5, -1.0]]
    assert grid.clamp_count == 2


def test_windowed_no_clamping_on_stationary_ar1():
    spec = ArPathSpec.constant([0.9])
    ts = simulate_tvar(spec, 1024, 42)
    grid = windowed_lpacf(ts, L=64, kernel="rectangular", max_lag=4)
    assert grid.clamp_count == 0
    grid2 = windowed_lpacf(ts, L=128, kernel="epanechnikov", max_lag=4)
    assert grid2.clamp_count == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 160),
    st.sampled_from(["rectangular", "epanechnikov"]),
    st.data(),
)
def test_windowed_lpacf_matches_weighted_local_acv(seed, T, kernel, data):
    L = data.draw(st.integers(4, T - 1), label="L")  # odd and even widths
    max_lag = data.draw(st.integers(1, (L - 1) // 2), label="max_lag")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    if data.draw(st.booleans(), label="zero block"):
        # a stretch of zeros wider than the window leaves gamma(0) = 0
        start = data.draw(st.integers(0, T - 1), label="start")
        x[start : start + L + 2] = 0.0
    grid = windowed_lpacf(x, L=L, kernel=kernel, max_lag=max_lag)
    for row, c in enumerate(grid.points):
        gam, eff, clipped = weighted_local_acv(x, c, L, kernel, max_lag)
        assert grid.effective_length[row] == eff
        assert grid.boundary[row] == clipped
        assert np.allclose(grid.estimates[row], levinson_pacf(gam), rtol=0.0, atol=1e-10)
    for c in grid.dropped_points:
        try:
            gam, eff, _ = weighted_local_acv(x, c, L, kernel, max_lag)
        except InsufficientWindowError:
            continue
        assert eff < 2 * max_lag or gam[0] <= 0.0


@st.composite
def _window_case(draw):
    """A series with a block of signed zeros, a width on either side of
    numpy's 11-tap unrolled correlate, and a selection of points."""
    T = draw(st.integers(16, 240), label="T")
    if draw(st.booleans(), label="short kernel"):
        L = draw(st.integers(3, 11), label="L")
    else:
        L = draw(st.integers(12, T - 1), label="L")
    max_lag = draw(st.integers(1, (L - 1) // 2), label="max_lag")
    kernel = draw(st.sampled_from(["rectangular", "epanechnikov"]), label="kernel")
    demean = draw(st.booleans(), label="demean")
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal(T)
    # all -0.0 products in a window sum to +0.0 only from a +0.0 start
    start = draw(st.integers(0, T - 1), label="zero start")
    n = draw(st.integers(1, L + 2), label="zero length")
    pattern = draw(st.sampled_from(["negative", "alternating", "drawn"]), label="signs")
    if pattern == "negative":
        signs = np.ones(n, bool)
    elif pattern == "alternating":
        signs = np.arange(n) % 2 == 1
    else:
        signs = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    block = x[start : start + n]
    block[:] = np.where(signs[: len(block)], -0.0, 0.0)
    kind = draw(st.sampled_from(["all", "stride", "points"]), label="selection")
    if kind == "all":
        select, pts = {}, np.arange(T)
    elif kind == "stride":
        pts = np.arange(0, T, draw(st.integers(1, T), label="stride"))
        select = {"points": pts}
    else:
        picked = draw(st.lists(st.integers(0, T - 1), min_size=1, max_size=12), label="points")
        pts = np.array(draw(st.permutations(picked + [0, T - 1, picked[0]]), label="order"))
        select = {"points": pts}
    return x, L, kernel, max_lag, demean, select, pts


@settings(max_examples=120, deadline=None)
@given(_window_case())
def test_windowed_sums_are_bit_identical_to_full_correlate(case):
    x, L, kernel, max_lag, demean, select, pts = case
    T = len(x)
    full, weights, xd = _correlate_window_sums(x, L, kernel, max_lag, demean)

    def padded_rows(xd):
        rows = np.zeros((max_lag + 2, T + 2 * L))
        rows[0, L : L + T] = 1.0
        for tau in range(max_lag + 1):
            rows[1 + tau, L : L + T - tau] = xd[: T - tau] * xd[tau:]
        return rows

    # the routine on the estimator's padded rows, at the selected windows
    rows = padded_rows(xd)
    offs = np.arange(-L // 2 + 1, L // 2 + 1)
    first = L + offs[0]
    lo, hi = pts.min(), pts.max()
    step = int(np.gcd.reduce(pts - lo)) or 1
    sums = _window_sums(rows, weights, first + lo, first + hi + 1, step)
    sums = sums[:, (pts - lo) // step]
    assert sums.tobytes() == full[:, pts].tobytes()
    # a stack of the rows of x and of x reversed, as (R, K, m), against the
    # (K, L) weights of both
    full_rev, _, xr = _correlate_window_sums(x[::-1], L, kernel, max_lag, demean)
    stack = np.stack([rows, padded_rows(xr)])
    stacked = _window_sums(stack, weights, first + lo, first + hi + 1, step)
    stacked = stacked[..., (pts - lo) // step]
    assert stacked.tobytes() == np.stack([full[:, pts], full_rev[:, pts]]).tobytes()
    # and the estimator built on them
    gamma = full[1:, pts] / full[0, pts]
    eff = np.minimum(pts + offs[-1], T - 1) - np.maximum(pts + offs[0], 0) + 1
    keep = (eff >= 2 * max_lag) & (gamma[0] > 0.0)
    grid = windowed_lpacf(x, L=L, kernel=kernel, max_lag=max_lag, demean=demean, **select)
    assert grid.points.tobytes() == pts[keep].tobytes()
    assert grid.dropped_points.tobytes() == pts[~keep].tobytes()
    if keep.any():
        assert grid.estimates.tobytes() == levinson_pacf(gamma[:, keep]).T.tobytes()


def _selections(data, T):
    """Point selections of a length-T series: every n-th index, an evenly
    spaced set in increasing, reversed and shuffled order, the set with
    repeats, one point, and points drawn at random."""
    stride = data.draw(st.integers(1, T), label="stride")
    start = data.draw(st.integers(0, T - 1), label="start")
    step = data.draw(st.integers(1, T), label="step")
    even = np.arange(start, T, step)[: data.draw(st.integers(1, T), label="count")]
    shuffled = data.draw(st.permutations(even.tolist()), label="shuffled")
    repeats = data.draw(st.lists(st.sampled_from(even.tolist()), max_size=4), label="repeats")
    picked = data.draw(st.lists(st.integers(0, T - 1), min_size=1, max_size=10), label="points")
    return [
        np.arange(0, T, stride),
        even,
        even[::-1],
        np.array(shuffled),
        np.concatenate([even, repeats]).astype(int),
        np.array([start]),
        np.array(picked),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 200),
    st.sampled_from(["rectangular", "epanechnikov"]),
    st.booleans(),
    st.data(),
)
def test_windowed_selection_equals_the_every_point_grid(seed, T, kernel, demean, data):
    L = data.draw(st.integers(3, T - 1), label="L")
    max_lag = data.draw(st.integers(1, (L - 1) // 2), label="max_lag")
    x = np.random.default_rng(seed).standard_normal(T)
    kw = dict(L=L, kernel=kernel, max_lag=max_lag, demean=demean)
    whole = windowed_lpacf(x, **kw)
    row = {int(c): i for i, c in enumerate(whole.points)}
    for pts in _selections(data, T):
        grid = windowed_lpacf(x, **kw, points=pts)
        idx = np.array([row[int(c)] for c in pts if int(c) in row], dtype=int)
        assert grid.points.tobytes() == whole.points[idx].tobytes()
        assert grid.estimates.tobytes() == whole.estimates[idx].tobytes()
        assert grid.ci_halfwidth.tobytes() == whole.ci_halfwidth[idx].tobytes()
        assert grid.boundary.tobytes() == whole.boundary[idx].tobytes()
        assert grid.effective_length.tobytes() == whole.effective_length[idx].tobytes()
        # in the order requested, repeats included
        dropped = pts[np.isin(pts, whole.dropped_points)]
        assert grid.dropped_points.tobytes() == dropped.tobytes()


def test_windowed_lpacf_sums_only_the_windows_of_evenly_spaced_points(monkeypatch):
    shapes, passes = [], []

    def spy(rows, weights, start, stop, step=1):
        sums = _window_sums(rows, weights, start, stop, step)
        shapes.append(sums.shape)
        return sums

    def levinson_spy(gamma):
        passes.append(gamma.shape)
        return levinson(gamma)

    levinson = estimators._levinson
    monkeypatch.setattr(estimators, "_window_sums", spy)
    monkeypatch.setattr(estimators, "_levinson", levinson_spy)
    x = np.random.default_rng(0).standard_normal(32768)
    grid = windowed_lpacf(x, max_lag=4, points=np.arange(0, 32768, 64))
    assert len(grid.points) == 512
    # per chunk, the 5 product rows of the one series at its points, at most
    # the 32 points of 2048 positions: 512 windows in all, not the 32705 of
    # their span
    rows = [s for s in shapes if len(s) == 3]
    assert all(s[:2] == (1, 5) and s[2] <= _CHUNK_POINTS // 64 for s in rows)
    assert sum(s[2] for s in rows) == 512
    # the mass row: one window inside the series, and the 32 points at each
    # end whose windows (L=4096) reach past it
    assert [s for s in shapes if len(s) == 1] == [(1,), (32,), (32,)]
    # the chunks' columns wait for one Levinson recursion over all 512
    assert passes == [(5, 512)]


@pytest.mark.parametrize(
    "pts",
    [
        np.arange(0, 32768, 64),
        np.sort(np.random.default_rng(1).choice(32768, 512, replace=False)),
        64 * np.random.default_rng(1).permutation(512),
    ],
    ids=["stride", "points", "shuffled"],
)
def test_windowed_lpacf_memory_at_sparse_points_is_bounded(pts):
    # every 64th point, 512 scattered points, and every 64th point shuffled:
    # a copy of the 512 selected windows of the 6 summed rows is 100 MB
    x = np.random.default_rng(0).standard_normal(32768)
    tracemalloc.start()
    try:
        grid = windowed_lpacf(x, L=4096, max_lag=4, points=pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid.points) == 512
    assert peak < 16 * 2**20


def test_windowed_lpacf_memory_is_bounded_by_a_chunk_and_the_result():
    # every point of T=2^17 at L=4096: the windows are streamed a chunk at a
    # time, so the peak is the result and one chunk, about 1.5x the result;
    # the padded rows and sums of every point at once would peak at 4.4x,
    # and a split that copied the stack's rows into the grid at 2.2x
    x = np.random.default_rng(0).standard_normal(2**17)
    tracemalloc.start()
    try:
        grid = windowed_lpacf(x, L=4096, max_lag=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(getattr(grid, name).nbytes for name in _GRID_FIELDS)
    assert peak <= 1.8 * held


def test_intake_holds_the_stack_and_one_temporary():
    # the stack and its scaling's |x| temporary: 2.0x the stack's bytes; the
    # per-series copies alive beside them peaked at 3.0x
    xs = np.random.default_rng(0).standard_normal((20, 8192))
    tracemalloc.start()
    try:
        x = estimators._intake(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(x, estimators._unit_scaled(xs))
    assert peak <= 2.1 * x.nbytes


@pytest.mark.parametrize(
    "method, T, max_lag, batch, factor",
    [
        ("windowed", 8192, 10, 4, 1.15),  # 1.02x measured
        ("windowed", 512, 2, 116, 1.15),  # 1.05x
        ("wavelet", 4096, 4, 6, 1.8),  # 1.48x
        ("wavelet", 8192, 10, 1, 1.8),  # 0.72x
    ],
)
def test_study_batch_peaks_within_a_stated_factor_of_its_entries(
    method, T, max_lag, batch, factor
):
    # a batch of the size that the study budget gives for the entries of
    # EstimatorConfig._study peaks within factor x its entries' bytes
    config = EstimatorConfig(method, max_lag=max_lag)
    _, entries = config._study(T)
    assert max(1, _BATCH_ENTRIES // entries) == batch
    spec = ArPathSpec.linear_ramp([0.9], [-0.9])
    xs = np.stack([simulate_tvar(spec, T, seed).values for seed in range(batch)])
    tracemalloc.start()
    try:
        stack = config._grid_stack(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.keep.shape == (batch, T)
    assert peak <= factor * batch * entries * 8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 160),
    st.sampled_from(["rectangular", "epanechnikov"]),
    st.booleans(),
    st.sampled_from([1, 3]),
    st.integers(1, 8),
    st.data(),
)
def test_windowed_chunks_keep_the_bits_of_one_chunk(seed, T, kernel, demean, R, chunk, data):
    # chunks of a few points against one chunk of every point: every
    # selection, both kernels, demean on and off, one series and a stack
    if data.draw(st.booleans(), label="short kernel") or T < 13:
        L = data.draw(st.integers(3, min(11, T - 1)), label="L")
    else:
        L = data.draw(st.integers(12, T - 1), label="L")
    max_lag = data.draw(st.integers(1, (L - 1) // 2), label="max_lag")
    xs = np.random.default_rng(seed).standard_normal((R, T))
    # a block of signed zeros: a sum of only -0.0 products keeps its sign
    start = data.draw(st.integers(0, T - 1), label="zero start")
    xs[:, start : start + data.draw(st.integers(0, L + 2), label="zeros")] = -0.0
    config = EstimatorConfig("windowed", L, kernel, max_lag=max_lag)
    for points in [None] + _selections(data, T):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(estimators, "_CHUNK_POINTS", 2**40)
            whole = config.estimate_stack(xs, points, demean)
            m.setattr(estimators, "_CHUNK_POINTS", chunk)
            chunked = config.estimate_stack(xs, points, demean)
        for got, want in zip(chunked, whole, strict=True):
            _assert_same_grid(got, want)


_GRID_FIELDS = (
    "points", "dropped_points", "estimates", "boundary", "ci_halfwidth", "effective_length"
)


def _assert_same_grid(got, want):
    """Every field of two grids, arrays bit for bit and with their dtypes."""
    for name in _GRID_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.kind, got.bandwidth, got.clamp_count) == (
        want.kind, want.bandwidth, want.clamp_count
    )


def _stack_rows(draw, T):
    """One to five series of length T, each standard normal, all zeros,
    constant, or scaled by a huge or tiny power of two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    xs = []
    for kind in draw(
        st.lists(st.sampled_from(["normal", "zeros", "constant", "scaled"]), min_size=1,
                 max_size=5),
        label="rows",
    ):
        x = rng.standard_normal(T)
        if kind == "zeros":
            x[:] = 0.0
        elif kind == "constant":
            x[:] = x[0]
        elif kind == "scaled":
            # 2**1018 keeps |x| < 2**1023; 2**-1074 leaves a few subnormals
            x = np.ldexp(x, draw(st.sampled_from([1018, 600, -600, -1060, -1074])))
        xs.append(x)
    return xs


def _draw_points(draw, T):
    """Every point, an evenly spaced stride, or up to 12 scattered points,
    repeats allowed."""
    return draw(
        st.none()
        | st.integers(1, T).map(lambda n: np.arange(0, T, n))
        | st.lists(st.integers(0, T - 1), min_size=0, max_size=12).map(np.array),
        label="points",
    )


@st.composite
def _stack_case(draw, method=None):
    """A stack of series of one length (``_stack_rows``) with a config of
    either estimator, the points, and the wavelet ``pad``.

    A windowed config has a window on either side of numpy's 11-tap
    unrolled correlate.  A wavelet config has a dyadic or a padded length,
    a scale and a span drawn or left to their defaults (span 0 too), and
    lags up to 10 below 2^max_scale; the points near the end, and every
    point of a zero or constant row, are dropped.
    """
    method = method or draw(st.sampled_from(["windowed", "wavelet"]), label="method")
    if method == "wavelet":
        T = draw(st.sampled_from([8, 16, 64]) | st.integers(9, 120), label="T")
        pad = T & (T - 1) != 0 or draw(st.booleans(), label="pad")
        J = (T - 1).bit_length()  # log2 of the padded length
        max_scale = draw(st.none() | st.integers(1, min(J, 5)), label="max_scale")
        span = draw(st.none() | st.integers(0, 6), label="span")
        top = 1 << (max_scale or default_max_scale(T))
        max_lag = draw(st.integers(1, min(10, top - 1, T - 1)), label="max_lag")
        config = EstimatorConfig(
            "wavelet", smooth_span=span, max_scale=max_scale, max_lag=max_lag
        )
        return _stack_rows(draw, T), config, _draw_points(draw, T), pad
    T = draw(st.integers(8, 120), label="T")
    xs = _stack_rows(draw, T)
    if draw(st.booleans(), label="short kernel") or T < 13:
        L = draw(st.integers(3, min(11, T - 1)), label="L")
    else:
        L = draw(st.integers(12, T - 1), label="L")
    max_lag = draw(st.integers(1, (L - 1) // 2), label="max_lag")
    kernel = draw(st.sampled_from(["rectangular", "epanechnikov"]), label="kernel")
    config = EstimatorConfig("windowed", L, kernel, max_lag=max_lag)
    return xs, config, _draw_points(draw, T), False


@settings(max_examples=150, deadline=None)
@given(_stack_case(), st.booleans())
def test_estimate_stack_equals_one_estimate_per_series(case, demean):
    xs, config, points, pad = case
    grids = config.estimate_stack(xs, points, demean, pad)
    assert len(grids) == len(xs)
    for grid, x in zip(grids, xs):
        _assert_same_grid(grid, config.estimate(x, points, demean, pad))


@settings(max_examples=100, deadline=None)
@given(_stack_case("wavelet"), st.booleans())
def test_wavelet_stack_is_the_public_pipeline_per_series(case, demean):
    # each series through raw_wavelet_periodogram, smooth_and_correct,
    # local_autocovariance and wavelet_lpacf on the grid, bit for bit; a
    # given grid has the margin max_lag, the spectral stage 2^(J*-1) more
    xs, config, points, pad = case
    T = len(xs[0])
    max_scale = config.max_scale or default_max_scale(T)
    span = default_smoothing_span(T) if config.smooth_span is None else config.smooth_span
    margin = (1 << (max_scale - 1)) + config.max_lag
    grids = config.estimate_stack(xs, points, demean, pad)
    assert len(grids) == len(xs)
    for grid, x in zip(grids, xs):
        y = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])  # max |y| in [0.5, 1)
        if demean:
            y = y - y.mean()
        raw = raw_wavelet_periodogram(y, max_scale, pad=pad)
        lacv = local_autocovariance(smooth_and_correct(raw, span), config.max_lag)
        want = wavelet_lpacf(x, max_lag=config.max_lag, points=points, lacv=lacv)
        edge = (want.points < margin) | (want.points > T - 1 - margin)
        _assert_same_grid(grid, replace(want, boundary=edge.astype(np.uint8)))


def test_wavelet_stack_runs_one_spectral_stage_and_one_lapack_stage(monkeypatch):
    calls = []
    results = {}

    def spy(name):
        fn = getattr(estimators, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            out = fn(*args, **kwargs)
            # a copy, as the caller may write to what it was given
            results[name] = args, tuple(map(np.copy, out)) if isinstance(out, tuple) else out
            return out

        monkeypatch.setattr(estimators, name, wrapper)

    # one band and one lattice for every series, and one LAPACK stage, a
    # _plug_in_stack call per lag, for the points of every series that the
    # lattice does not serve, on their blocks gathered from that band
    stages = ["raw_wavelet_periodogram", "smooth_and_correct", "local_autocovariance"]
    for name in stages + ["_band", "_lattice", "_plug_in_stack"]:
        spy(name)
    plug_in = ["_band", "_lattice"] + 3 * ["_plug_in_stack"]
    xs = [np.cumsum(np.random.default_rng(s).standard_normal(128)) for s in range(4)]
    config = EstimatorConfig("wavelet", max_scale=4, max_lag=3)
    # every point, and a selection with a repeated point and a dropped one
    selection = [127, 3, 21, 20, 21, 60, 61, 62, 90, 110, 111, 5]
    for points, kept in ((None, [117, 117, 124, 123]), (selection, [9, 9, 11, 11])):
        calls.clear()
        grids = config.estimate_stack(xs, points, demean=True)
        assert calls == stages + plug_in
        assert [len(g.points) for g in grids] == kept
        (side, z, _), _ = results["_band"]
        _, (_, served) = results["_lattice"]
        back = z[~served]
        # the premise: the LAPACK stage solved the points of more than one
        # series, and of more than one run of the band
        assert len(np.unique(back // 128)) > 1
        assert np.diff(np.sort(back)).max() > 4
        # each gathered block is its point's block, bit for bit
        (G, _), _ = results["_plug_in_stack"]
        assert G.shape == (len(back), 4, 4)
        lacv = LocalAcvGrid(side, 0)
        for block, zT in zip(G, back):
            assert block.tobytes() == _pair_cov_matrix(lacv, np.arange(zT, zT + 4)).tobytes()


def test_wavelet_stack_lapack_stage_gives_each_series_its_bits_alone(monkeypatch):
    # every kept point of three series goes to one LAPACK stage, on blocks
    # gathered from one band laid across the series: each grid has the bits
    # of its series estimated alone
    monkeypatch.setattr(estimators, "_lattice", _serve_nothing)
    rng = np.random.default_rng(5)
    xs = [np.cumsum(rng.standard_normal(128)) for _ in range(3)]
    config = EstimatorConfig("wavelet", max_scale=4, max_lag=4)
    for points in (None, [127, 3, 21, 20, 21, 60, 124, 0, 90]):
        grids = config.estimate_stack(xs, points)
        for grid, x in zip(grids, xs):
            _assert_same_grid(grid, config.estimate(x, points))
        assert all(grid.points.size for grid in grids)

@pytest.mark.parametrize("method", ["windowed", "wavelet"])
def test_estimate_stack_takes_series_of_one_length(method):
    config = EstimatorConfig(method, binwidth=8, max_lag=2)
    for none in ([], (), iter([]), np.empty((0, 64))):
        assert config.estimate_stack(none) == []
    with pytest.raises(InvalidArgumentError, match=r"one length, not \[32, 33\]"):
        config.estimate_stack([np.ones(32), np.ones(33)])


def _constant_grid(c_values, T=32):
    vals = np.tile(np.asarray(c_values, dtype=float)[:, None], (1, T))
    return LocalAcvGrid(vals, 0)


def _both_stages(lacv, max_lag, points):
    """``wavelet_lpacf`` on the grid at ``points``: as the lattice serves
    it, and with every point sent to the LAPACK stage."""
    x = np.ones(lacv.T)
    grids = [wavelet_lpacf(x, max_lag=max_lag, points=points, lacv=lacv)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_lattice", _serve_nothing)
        grids.append(wavelet_lpacf(x, max_lag=max_lag, points=points, lacv=lacv))
    return grids


def _plug_in_at(lacv, zT, tau):
    """``_plug_in_stack`` at lag tau on the one block of the times
    zT..zT+tau, built with ``lacv.midpoint``: (phi_tau,tau, backward MSPE,
    forward MSPE, solved), each of one point."""
    G = _pair_cov_matrix(lacv, np.arange(zT, zT + tau + 1))[None]
    with np.errstate(all="ignore"):
        return [v[0] for v in _plug_in_stack(G, tau)]


# On a constant (Toeplitz) grid, the estimate at lag tau is the last
# Yule-Walker coefficient: the backward and forward MSPEs are equal.


def test_local_yule_walker_examples():
    # by the lattice and by the LAPACK stage; lag 1: c(1)/c(0)
    for grid in _both_stages(_constant_grid([2.0, 0.8]), 1, [10]):
        assert grid.estimates[0, 0] == pytest.approx(0.4, abs=1e-14)
    # AR(1)-shaped covariances: pacf(2) = 0
    for grid in _both_stages(_constant_grid(0.6 ** np.arange(3)), 2, [10]):
        assert abs(grid.estimates[0, 1]) < 1e-14
    # AR(2) analytic autocovariances: pacf(1) = 0.5 / (1 - 0.2), pacf(2) = 0.2
    gam = np.asarray(ar_autocovariances([0.5, 0.2], 1.0, 2))
    for grid in _both_stages(_constant_grid(gam), 2, [10]):
        assert np.allclose(grid.estimates[0], [0.625, 0.2], rtol=0.0, atol=1e-12)


def test_local_yule_walker_order_cutoff_invariant():
    # beyond the AR order the last coefficient vanishes
    lacv = _constant_grid(ar_autocovariances([0.4, 0.3, -0.2], 1.0, 8))
    for grid in _both_stages(lacv, 8, [10]):
        assert grid.estimates[0, 2] == pytest.approx(-0.2, abs=1e-12)
        assert np.all(np.abs(grid.estimates[0, 3:]) < 1e-10)


def test_local_yule_walker_validates():
    # a singular block (every covariance equal to the variance) leaves the
    # lag-2 backcast and forecast a zero MSPE: both stages drop the point
    for grid in _both_stages(_constant_grid([1.0, 1.0, 1.0]), 2, [10]):
        assert grid.points.size == 0 and grid.dropped_points.tolist() == [10]
    # a lag outside [1, 10] is refused before the grid is read
    with pytest.raises(InvalidArgumentError, match=r"^max_lag=0 outside \[1, 10\]$"):
        wavelet_lpacf(np.ones(32), max_lag=0, lacv=_constant_grid([1.0, 1.0]))

def test_plug_in_stack_on_toeplitz_block_has_mspe_ratio_one():
    lacv = _constant_grid(ar_autocovariances([0.5, 0.2], 1.0, 6))
    for tau in (1, 2, 4, 6):
        _, mb, mf, solved = _plug_in_at(lacv, 10, tau)
        assert solved
        assert mb == pytest.approx(mf, rel=1e-12)
        assert abs(np.sqrt(mb / mf) - 1.0) < 1e-10


def test_plug_in_stack_lag1_mspes_are_the_variances():
    T = 16
    vals = np.vstack([np.linspace(1.0, 2.0, T), np.full(T, 0.3)])
    _, mb, mf, solved = _plug_in_at(LocalAcvGrid(vals, 0), 5, 1)
    assert solved
    assert mb == pytest.approx(vals[0, 5])
    assert mf == pytest.approx(vals[0, 6])


def test_plug_in_stack_mspes_match_explicit_quadratic_forms():
    # variance with a linear time trend; b' Sigma b by explicit loops, with
    # the backcast and forecast coefficients of the scalar oracle
    T, zT, tau = 24, 8, 3
    vals = np.vstack(
        [1.0 + 0.02 * np.arange(T), np.full(T, 0.45), np.full(T, 0.15), np.full(T, 0.05)]
    )
    lacv = LocalAcvGrid(vals, 0)
    ref = _scalar_prediction_system(lacv, zT, tau)
    _, mb, mf, solved = _plug_in_at(lacv, zT, tau)
    assert solved

    def cov(a, b):
        lag = abs(a - b)
        if (a + b) % 2 == 0:
            return vals[lag, (a + b) // 2]
        return 0.5 * (vals[lag, (a + b) // 2] + vals[lag, (a + b) // 2 + 1])

    for times, bvec, mspe in (
        (list(range(zT, zT + tau)), ref.backcast, mb),
        (list(range(zT + 1, zT + tau + 1)), ref.forecast, mf),
    ):
        acc = 0.0
        for r, tr in enumerate(times):
            for s, tsd in enumerate(times):
                acc += bvec[r] * bvec[s] * cov(tr, tsd)
        assert mspe == pytest.approx(acc, rel=1e-10)
    assert mb != pytest.approx(mf, rel=1e-6)


def test_wavelet_lpacf_on_constant_grid_reduces_to_classical():
    gam = ar_autocovariances([0.5, 0.2], 1.0, 6)
    T = 64
    lacv = _constant_grid(gam, T)
    expected = levinson_pacf(gam)
    for grid in _both_stages(lacv, 6, [20, 30]):
        assert list(grid.points) == [20, 30]  # a benign AR(2) keeps every point
        for row in range(len(grid.points)):
            assert np.allclose(grid.estimates[row], expected, atol=1e-10)
        assert grid.ci_halfwidth is None


def _scalar_plug_in(lacv, T, max_lag):
    """Per-point, per-lag reference loop over the scalar prediction systems."""
    kept, rows, dropped = [], [], []
    for zT in range(T):
        if zT + max_lag > lacv.T - 1 or not lacv.values[0, zT] > 0:
            dropped.append(zT)
            continue
        try:
            rows.append(
                [
                    _scalar_prediction_system(lacv, zT, tau).estimate
                    for tau in range(1, max_lag + 1)
                ]
            )
            kept.append(zT)
        except NumericalError:
            dropped.append(zT)
    est = np.array(rows).reshape(-1, max_lag)
    return np.array(kept, dtype=int), est, np.array(dropped, dtype=int)


def _serve_nothing(C, at, max_lag):
    """A stand-in for ``estimators._lattice`` that serves no point, so that
    every point goes to the LAPACK stage."""
    return np.zeros((len(at), max_lag)), np.zeros(len(at), dtype=bool)


def _served(lacv, points, max_lag):
    """Where the lattice serves each of ``points``, kept points of a
    one-series grid."""
    C, at = estimators._band(lacv.values, np.asarray(points), max_lag + 1)
    return estimators._lattice(C, at, max_lag)[1]


def test_band_of_no_point_starts_no_block():
    # no point asked, or every one too near the end: a band of n - 1
    # positions, from which the lattice serves nothing, and no point kept
    lacv = _constant_grid([1.0, 0.5, 0.25])
    C, at = estimators._band(lacv.values, np.array([], dtype=int), 3)
    assert C.shape == (3, 2) and at.size == 0
    est, ok = estimators._lattice(C, at, 2)
    assert est.shape == (0, 2) and ok.shape == (0,)
    for points in ([], [31, 30, 31]):
        for grid in _both_stages(lacv, 2, points):
            assert grid.points.size == 0 and grid.estimates.shape == (0, 2)
            assert grid.dropped_points.tolist() == points


_ODD_ENTRIES = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300, 1e-300, 1e308])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 11), st.integers(0, 24), st.floats(0.0, 0.3),
    st.data(),
)
def test_band_holds_each_points_block_bit_for_bit(seed, n, extra, odd, data):
    # C[|a - b|, at[i] + min(a, b)] is the block of the midpoint entries of
    # the times z[i]..z[i]+n-1, for any selection (unsorted, repeated, in
    # runs that touch, overlap or lie apart) and any entries: signed zeros,
    # extremes whose averages overflow, inf and NaN
    rng = np.random.default_rng(seed)
    T = n + extra
    vals = rng.standard_normal((n, T))
    hit = rng.random(vals.shape) < odd
    vals[hit] = rng.choice(_ODD_ENTRIES, hit.sum())
    z = np.array(data.draw(st.lists(st.integers(0, T - n), min_size=1, max_size=12)))
    C, at = estimators._band(vals, z, n)
    lacv = LocalAcvGrid(vals, 0)
    k = np.arange(n)
    for i, zT in enumerate(z):
        block = C[np.abs(k[:, None] - k), at[i] + np.minimum.outer(k, k)]
        with np.errstate(all="ignore"):  # midpoint's own inf - inf and overflow
            want = _pair_cov_matrix(lacv, np.arange(zT, zT + n))
        assert block.tobytes() == want.tobytes()

def _assert_matches_scalar_loop(lacv, max_lag):
    """``wavelet_lpacf`` on the grid keeps the points, drops the points and
    counts the clamps of the scalar loop.  At the points the LAPACK stage
    solves it has the loop's bytes, so that the sign of a zero estimate
    counts too; at the points the lattice serves, it is within the
    definition's tolerance (``_definition``) of the loop.  With every point
    sent to the LAPACK stage, it has the loop's bytes everywhere.  Returns
    the grid."""
    T = lacv.T
    kept, est, dropped = _scalar_plug_in(lacv, T, max_lag)
    want = np.clip(est, -1.0, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_lattice", _serve_nothing)
        lapack = wavelet_lpacf(np.ones(T), max_lag=max_lag, lacv=lacv)
    grid = wavelet_lpacf(np.ones(T), max_lag=max_lag, lacv=lacv)
    for got in (lapack, grid):
        assert np.array_equal(got.points, kept)
        assert np.array_equal(got.dropped_points, dropped)
        assert got.clamp_count == int(np.sum(np.abs(est) > 1.0))
    assert lapack.estimates.tobytes() == want.tobytes()
    served = _served(lacv, kept, max_lag)
    assert grid.estimates[~served].tobytes() == want[~served].tobytes()
    for row in np.flatnonzero(served):
        for tau in range(1, max_lag + 1):
            _, tol = _definition(lacv, kept[row], tau)
            assert abs(grid.estimates[row, tau - 1] - want[row, tau - 1]) <= tol
    return grid


def _grid_family(seed, max_lag, strength, noise):
    """lacv grid with lag-tau rows v0 * rho^tau, rho ramping between two
    values of modulus up to ``strength`` (near-singular systems as it nears
    1), and multiplicative noise that can break positive definiteness, so
    ridge regularization and both kinds of drop occur."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(max_lag + 8, 33))
    v0 = np.exp(rng.normal(0.0, 0.5, T))
    rho = np.linspace(*rng.uniform(-strength, strength, 2), T)
    vals = v0 * rho ** np.arange(max_lag + 1)[:, None]
    vals[1:] *= 1.0 + noise * rng.standard_normal((max_lag, T))
    return LocalAcvGrid(vals, 0)


_grid_family_args = (
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.floats(0.5, 1.0),
    st.floats(0.0, 0.2),
)


@settings(max_examples=40, deadline=None)
@given(*_grid_family_args, st.floats(0.0, 0.5))
def test_wavelet_lpacf_batched_stage_is_bit_identical_to_scalar_loop(
    seed, max_lag, strength, noise, zeros
):
    lacv = _grid_family(seed, max_lag, strength, noise)
    # signed zeros off the diagonal, whose signs the solves must keep
    vals = lacv.values.copy()
    rng = np.random.default_rng(seed)
    hit = rng.random(vals[1:].shape) < zeros
    vals[1:][hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
    _assert_matches_scalar_loop(LocalAcvGrid(vals, 0), max_lag)


@settings(max_examples=40, deadline=None)
@given(*_grid_family_args)
def test_wavelet_lpacf_is_its_definition_where_solved_at_ridge_0(seed, max_lag, strength, noise):
    # at every kept (point, lag) whose systems the scalar oracle accepts at
    # ridge 0, and whose block is positive definite
    lacv = _grid_family(seed, max_lag, strength, noise)
    grid = wavelet_lpacf(np.ones(lacv.T), max_lag=max_lag, lacv=lacv)
    for row, zT in enumerate(grid.points):
        for tau in range(1, max_lag + 1):
            q, tol = _definition(lacv, zT, tau)
            if np.isfinite(q) and _at_ridge_0(lacv, zT, tau):
                assert abs(grid.estimates[row, tau - 1] - np.clip(q, -1.0, 1.0)) <= tol


@settings(max_examples=30, deadline=None)
@given(*_grid_family_args, st.data())
def test_wavelet_selection_equals_the_every_point_grid(seed, max_lag, strength, noise, data):
    lacv = _grid_family(seed, max_lag, strength, noise)
    x = np.ones(lacv.T)
    whole = wavelet_lpacf(x, max_lag=max_lag, lacv=lacv)
    row = {int(c): i for i, c in enumerate(whole.points)}
    for pts in _selections(data, lacv.T):
        grid = wavelet_lpacf(x, max_lag=max_lag, lacv=lacv, points=pts)
        idx = np.array([row[int(c)] for c in pts if int(c) in row], dtype=int)
        assert grid.points.tobytes() == whole.points[idx].tobytes()
        assert grid.estimates.tobytes() == whole.estimates[idx].tobytes()
        assert grid.boundary.tobytes() == whole.boundary[idx].tobytes()
        # in the order requested, repeats included
        dropped = pts[np.isin(pts, whole.dropped_points)]
        assert grid.dropped_points.tobytes() == dropped.tobytes()


@pytest.mark.parametrize("max_lag", [4, 10])
def test_wavelet_lpacf_memory_at_sparse_points_is_bounded_on_a_given_grid(max_lag):
    # 4 points, one of them twice, on a given T=2^17 grid: beyond the
    # intake's two series-long arrays (the scaled stack and its scaling's
    # temporary), the plug-in stage holds its points' blocks, not the
    # series; a band over every time would take (max_lag + 1) T entries
    T = 2**17
    v0 = 1.0 + 0.5 * np.sin(np.arange(T) * (2 * np.pi / T))
    lacv = LocalAcvGrid(v0 * 0.5 ** np.arange(max_lag + 1)[:, None], 0)
    x = np.random.default_rng(0).standard_normal(T)
    pts = [T - 1 - max_lag, 0, T // 2, T // 2]
    wavelet_lpacf(x, max_lag=max_lag, points=pts, lacv=lacv)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        grid = wavelet_lpacf(x, max_lag=max_lag, points=pts, lacv=lacv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(grid.points) == pts
    assert peak <= 2 * x.nbytes + 2**16


def test_wavelet_lpacf_ridge_fallback_matches_scalar_loop():
    # at zT=1 the lag-2 Yule-Walker solve gives |phi_22| > 1, so the point
    # is kept only through ridge regularization
    vals = np.array(
        [
            [1.8, 1.1, 1.6, 1.6, 1.5, 1.9, 1.2, 1.0],
            [0.72, 0.0, 0.16, 0.64, 0.6, 1.71, 0.3, 0.2],
            [1.44, -0.55, 1.12, 0.16, -0.9, 1.33, 0.1, 0.05],
        ]
    )
    lacv = LocalAcvGrid(vals, 0)
    times = np.array([2, 1])
    r = np.array([lacv.midpoint(3, t) for t in times])
    _, ridge = _solve_regularized(_pair_cov_matrix(lacv, times), r, vals[0, 1], "Yule-Walker")
    assert ridge > 0.0
    grid = _assert_matches_scalar_loop(lacv, 2)
    assert 1 in grid.points


def test_wavelet_lpacf_singular_system_passing_cholesky_matches_scalar_loop():
    # at zT=0 the lag-4 Yule-Walker matrix is singular, yet rounding lets
    # its Cholesky factorization pass; only the LU solve finds the zero pivot
    T = 12
    vals = np.zeros((5, T))
    vals[0] = 1.0
    vals[1] = [0.0, 0.0, 1.0, -1.0] + [0.3] * 8
    vals[2] = [0.3, 0.5, 0.5] + [0.1] * 9
    vals[3, 1:3] = 0.5
    lacv = LocalAcvGrid(vals, 0)
    B = _pair_cov_matrix(lacv, np.arange(3, -1, -1))
    np.linalg.cholesky(B)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B, np.ones(4))
    _assert_matches_scalar_loop(lacv, 4)


# the singular Yule-Walker matrix of the test above, which passes Cholesky
_SINGULAR_PASSING_CHOLESKY = np.array(
    [[1.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5], [0.5, 0.5, 1.0, 0.0], [0.5, 0.5, 0.0, 1.0]]
)


# 1x1 cells that numpy's gate and solve treat apart: its Cholesky fails
# 0.0, -0.0 and negatives and passes NaN, +inf and subnormals
_ODD_CELLS = np.array(
    [np.nan, 0.0, -0.0, -1.0, -1e-9, 5e-324, 2.5e-310, 1e-300, np.inf, -np.inf, 1e308]
)


@st.composite
def _system_stack(draw):
    """0-6 systems of one size 1-10: Gram matrices of too few or enough
    columns, some with symmetric noise that breaks positive definiteness,
    signed zeros in both sides, the singular matrix that passes Cholesky,
    1x1 cells and right-hand sides from ``_ODD_CELLS``, and per-system
    scales 1e-3..1e3."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = np.empty((n, k, k))
    r = np.empty((n, k))
    for i in range(n):
        X = rng.standard_normal((k, int(rng.integers(1, 2 * k + 1))))
        E = rng.standard_normal((k, k)) * rng.choice([0.0, 0.01, 0.3])
        B[i] = X @ X.T / X.shape[1] + (E + E.T) / 2
        r[i] = B[i, :, 0] * rng.uniform(0.5, 1.5) + 0.1 * rng.standard_normal(k)
        if k == 4 and rng.random() < 0.3:
            B[i] = _SINGULAR_PASSING_CHOLESKY
        if rng.random() < 0.3:
            # signed zeros off the diagonal, kept symmetric, and in r
            hit = np.triu(rng.random((k, k)) < 0.5, 1)
            zeros = np.where(rng.random((k, k)) < 0.5, -0.0, 0.0)
            B[i][hit] = zeros[hit]
            B[i].T[hit] = zeros[hit]
            r[i][rng.random(k) < 0.5] = rng.choice([-0.0, 0.0])
        if k == 1 and rng.random() < 0.5:
            B[i] = rng.choice(_ODD_CELLS)
            r[i] = rng.choice(_ODD_CELLS) if rng.random() < 0.5 else r[i]
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return B, r, scale


def _assert_solve_stack_matches_scalar_oracle(B, r, scale):
    """``_solve_stack``, under ``np.errstate(all="ignore")`` as the LAPACK
    stage runs it, has the bits of ``_solve_regularized`` on every system;
    returns the ridges."""
    want = []
    for i in range(len(B)):
        try:
            want.append(_solve_regularized(B[i], r[i], scale[i], "Yule-Walker"))
        except NumericalError:
            want.append((np.full(r.shape[1], np.nan), np.nan))
    with np.errstate(all="ignore"):
        phi, ridge = _solve_stack(B, r, scale)
    for i, (want_phi, want_ridge) in enumerate(want):
        # bytes, so that signed zeros and the NaN of an exhausted ridge count
        assert phi[i].tobytes() == want_phi.tobytes()
        assert ridge[i].tobytes() == np.float64(want_ridge).tobytes()
    return ridge


@settings(max_examples=150, deadline=None)
@given(_system_stack())
def test_solve_stack_accepts_the_ridge_of_the_scalar_oracle(stack):
    _assert_solve_stack_matches_scalar_oracle(*stack)


def test_solve_stack_of_1x1_systems_divides_with_numpys_gate_and_bits():
    # every odd cell against every odd right-hand side and a plain one
    m, v = np.meshgrid(_ODD_CELLS, np.append(_ODD_CELLS, [0.3, -2e-10]))
    B, r = m.reshape(-1, 1, 1), v.reshape(-1, 1)
    ridge = _assert_solve_stack_matches_scalar_oracle(B, r, np.ones(len(B)))
    # both a ridge above 0 and an exhausted ridge occur
    assert np.nanmax(ridge) > 0.0 and np.isnan(ridge).any()
    # and the quotient is numpy's gate and solve, member by member
    with np.errstate(all="ignore"):
        x = _gated_solve(B, r)
    for i in range(len(B)):
        want = np.linalg.solve(B[i], r[i]) if _passes_cholesky(B[i]) else [np.nan]
        assert x[i].tobytes() == np.asarray(want).tobytes()


# the ridge levels above 0 as ``_solve_regularized`` walks them
_LEVELS = [_RIDGE_START * 2.0**k for k in range(64) if _RIDGE_START * 2.0**k <= _RIDGE_STOP]


def _escalating_systems(n):
    """n x n systems that ``_solve_regularized`` accepts at each ridge level
    1..20, two per level: one whose |phi[-1]| stays above 1 + slack until
    that level, and one whose matrix fails Cholesky until it; then two that
    run out of ridge, one each way.  Returns (B, r, scale, level), level -1
    where the ridge runs out."""
    B, r, scale, level = [], [], [], []
    for k, eps in enumerate(_LEVELS, start=1):
        for kind, s in (("ratio", 0.5 + k / 8), ("gate", 3.0 - k / 16)):
            M, v = np.eye(n), np.zeros(n)
            if kind == "ratio":
                # phi[-1] = c / (1 + ridge): above 1 + slack at eps / 2, not at eps
                v[-1] = (1.0 + _PACF_SLACK) * (1.0 + 0.75 * eps * s)
            else:
                # a last pivot of m + ridge: 0 at eps / 2, positive at eps
                M[-1, -1] = -0.5 * eps * s
                v[-1] = 0.25 * eps * s
            B.append(M)
            r.append(v)
            scale.append(s)
            level.append(k)
    for m, c in ((1.0, 2.0), (-1.0, 0.5)):
        M, v = np.eye(n), np.zeros(n)
        M[-1, -1], v[-1] = m, c
        B.append(M)
        r.append(v)
        scale.append(1.0)
        level.append(-1)
    return np.array(B), np.array(r), np.array(scale), np.array(level)


def _spy_gated_solve(monkeypatch):
    """The stack sizes of the ``_gated_solve`` calls made from now on."""
    sizes = []
    real = estimators._gated_solve

    def gated_solve(M, *args):
        sizes.append(len(M))
        return real(M, *args)

    monkeypatch.setattr(estimators, "_gated_solve", gated_solve)
    return sizes


def _assert_levels(ridge, scale, level):
    for i, k in enumerate(level):
        if k < 0:
            assert np.isnan(ridge[i])
        else:
            want = _LEVELS[k - 1] * scale[i] if k else 0.0
            assert ridge[i].tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("pad, widths", [(8, [9, 11]), (19, [20])])
def test_solve_stack_takes_each_systems_first_level_in_rounds_as_wide_as_fit(
    monkeypatch, n, pad, widths
):
    B, r, scale, level = _escalating_systems(n)
    assert sorted(set(level)) == [-1, *range(1, 21)]
    # beside systems accepted at ridge 0, ``pad`` for each that escalates
    ok = pad * len(B)
    B = np.concatenate([B, np.broadcast_to(2.0 * np.eye(n), (ok, n, n))])
    r = np.concatenate([r, np.full((ok, n), 0.5)])
    scale = np.concatenate([scale, np.ones(ok)])
    level = np.concatenate([level, np.zeros(ok, dtype=int)])
    sizes = _spy_gated_solve(monkeypatch)
    ridge = _assert_solve_stack_matches_scalar_oracle(B, r, scale)
    _assert_levels(ridge, scale, level)
    # a ridge-0 stack and rounds of as many levels as fit in it: with 8 for
    # each that escalates, 9 levels (42 systems, 18 accepted), then the 11
    # left (24 systems); with 19, all 20 levels in one round
    esc = len(B) // (pad + 1)
    todo = [esc, esc - 18]
    assert sizes == [len(B), *(w * t for w, t in zip(widths, todo))]


@pytest.mark.parametrize("n", [1, 3])
def test_solve_stack_rounds_never_outgrow_the_ridge_0_stack(monkeypatch, n):
    # every system escalates, so a round may try only as many levels as
    # the ridge-0 stack has room for: the 20 levels take 15 rounds, not 20
    B, r, scale, level = _escalating_systems(n)
    sizes = _spy_gated_solve(monkeypatch)
    ridge = _assert_solve_stack_matches_scalar_oracle(B, r, scale)
    _assert_levels(ridge, scale, level)
    assert max(sizes) == len(B) and len(sizes) == 16


def test_wavelet_lpacf_escalates_in_at_most_2_gated_solves_per_stack(monkeypatch):
    spec = ArPathSpec.linear_ramp(TVAR_STUDY["phi_start"], TVAR_STUDY["phi_end"], sigma=1.0)
    x = simulate_tvar(spec, 4096, 0)
    want = wavelet_lpacf(x, max_lag=4)
    calls = []  # per _solve_stack call: its stack size and its _gated_solve sizes
    unserved = []  # per _lattice call: the points it does not serve
    real_solve_stack, real_gated_solve = estimators._solve_stack, estimators._gated_solve
    real_lattice = estimators._lattice

    def solve_stack(B, *args):
        calls.append((len(B), []))
        return real_solve_stack(B, *args)

    def gated_solve(M, *args):
        calls[-1][1].append(len(M))
        return real_gated_solve(M, *args)

    def lattice(*args):
        est, served = real_lattice(*args)
        unserved.append(np.count_nonzero(~served))
        return est, served

    monkeypatch.setattr(estimators, "_solve_stack", solve_stack)
    monkeypatch.setattr(estimators, "_gated_solve", gated_solve)
    monkeypatch.setattr(estimators, "_lattice", lattice)
    # the LAPACK stage solves the points the lattice does not serve: one
    # stack per system, of those points, each in at most 1 + 20 levels
    grid = wavelet_lpacf(x, max_lag=4)
    assert grid.estimates.tobytes() == want.estimates.tobytes()
    assert len(calls) == 10 and {size for size, _ in calls} == set(unserved)
    assert 0 < unserved[0] < 100
    assert all(len(sizes) <= 21 and max(sizes) <= size for size, sizes in calls)
    # with every point sent to it: lag 1 solves a Yule-Walker stack, lags
    # 2-4 a Yule-Walker, a backcast and a forecast stack each; on this input
    # some forecast systems run out of ridge, which takes the ridge-0 solve
    # and one round of all 20 levels, as they are far fewer than a
    # twentieth of the stack
    calls.clear()
    monkeypatch.setattr(estimators, "_lattice", _serve_nothing)
    wavelet_lpacf(x, max_lag=4)
    assert len(calls) == 10 and max(len(sizes) for _, sizes in calls) == 2
    for size, sizes in calls:
        assert len(sizes) <= 2 and max(sizes) <= size


def _near_singular_batch(rng, n, count):
    """``count`` symmetric n x n matrices whose unit-diagonal scaling has
    its smallest eigenvalue within 1e-16..1e-4 of 0, on either side,
    scaled by diagonals of 1e-320..1e308, with some entries replaced by
    signed zeros, tiny, subnormal, huge, NaN or infinite values."""
    Q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    S = (Q * 10.0 ** rng.uniform(-3.0, 1.0, (count, 1, n))) @ Q.transpose(0, 2, 1)
    ds = np.sqrt(np.diagonal(S, axis1=1, axis2=2))
    H = S / ds[:, :, None] / ds[:, None, :]
    shift = np.linalg.eigvalsh(H)[:, 0] - rng.choice([-1.0, 1.0], count) * 10.0 ** (
        rng.uniform(-16.0, -4.0, count)
    )
    H -= shift[:, None, None] * np.eye(n)
    D = 10.0 ** rng.uniform(-160.0, 154.0, (count, n, 1))
    A = np.tril(H * D * D.transpose(0, 2, 1))
    odd = np.array([0.0, -0.0, 1e-300, 5e-324, 3e-310, 1e300, np.nan, np.inf, -np.inf])
    hit = (rng.random(A.shape) < 0.02) & np.tri(n, dtype=bool)
    A[hit] = rng.choice(odd, hit.sum()) * rng.choice([-1.0, 1.0], hit.sum())
    return A + np.tril(A, -1).transpose(0, 2, 1)


def _passes_cholesky(M):
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def _spy_lapack(monkeypatch, record):
    """Report every call of the plug-in stage's LAPACK gufuncs, with its
    result, to ``record(name, M, result)`` before returning that result."""
    real = estimators._umath_linalg

    def spied(name):
        def call(M, *args):
            out = getattr(real, name)(M, *args)
            record(name, M, out)
            return out

        return call

    gufuncs = SimpleNamespace(cholesky_lo=spied("cholesky_lo"), solve=spied("solve"))
    monkeypatch.setattr(estimators, "_umath_linalg", gufuncs)


def test_wavelet_lpacf_calls_no_1x1_lapack_gate_or_solve(monkeypatch):
    spec = ArPathSpec.linear_ramp(TVAR_STUDY["phi_start"], TVAR_STUDY["phi_end"], sigma=1.0)
    x = simulate_tvar(spec, 1024, 0)
    want = wavelet_lpacf(x, max_lag=4)
    shapes = []  # the order of each gufunc call's systems

    def record(name, M, out):
        shapes.append(M.shape[-1])

    _spy_lapack(monkeypatch, record)
    grid = wavelet_lpacf(x, max_lag=4)
    assert grid.estimates.tobytes() == want.estimates.tobytes()
    # the n >= 2 gates and solves ran, and no 1x1 one: division solves those
    assert shapes and min(shapes) > 1


def test_wavelet_lpacf_gates_and_solves_each_stack_in_one_lapack_call(monkeypatch):
    # a random walk's blocks fail Cholesky at ridge 0 and above
    x = np.cumsum(np.random.default_rng(0).standard_normal(1024))
    want = wavelet_lpacf(x, max_lag=4)
    calls = []  # per _gated_solve call: its gufunc calls, each (name, stack, failures)
    real_gated_solve = estimators._gated_solve

    def gated_solve(*args):
        calls.append([])
        return real_gated_solve(*args)

    def record(name, M, out):
        assert M.ndim == 3  # a stack, never one member
        calls[-1].append((name, len(M), int(np.isnan(out[:, 0, -1]).sum())))

    monkeypatch.setattr(estimators, "_gated_solve", gated_solve)
    _spy_lapack(monkeypatch, record)
    grid = wavelet_lpacf(x, max_lag=4)
    assert grid.estimates.tobytes() == want.estimates.tobytes()
    assert grid.dropped_points.tobytes() == want.dropped_points.tobytes()
    for gufuncs in calls:
        names = [name for name, _, _ in gufuncs]
        assert names in ([], ["cholesky_lo", "solve"])
    # the premise: members failed the gate, inside stacks of more than one
    failed = [(size, fails) for g in calls for name, size, fails in g if name == "cholesky_lo"]
    assert sum(fails for _, fails in failed) > 0
    assert any(0 < fails < size for size, fails in failed)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 11), st.integers(0, 2**32 - 1))
def test_gated_solve_keeps_numpys_verdict_and_bits_member_by_member(n, seed):
    rng = np.random.default_rng(seed)
    M = _near_singular_batch(rng, n, 64)
    if n >= 4:
        # singular members that pass Cholesky: only their LU solve fails
        M[:4] = np.eye(n)
        M[:4, :4, :4] = _SINGULAR_PASSING_CHOLESKY
    r = rng.standard_normal((len(M), n))
    passes = np.array([_passes_cholesky(A) for A in M])
    want = np.full(r.shape, np.nan)
    for i in np.flatnonzero(passes):
        try:
            want[i] = np.linalg.solve(M[i], r[i])
        except np.linalg.LinAlgError:
            pass
    assert not passes.all()  # the premise: members fail the gate
    if n >= 4:
        assert passes[:4].all() and np.isnan(want[:4]).all()
    # the gate's reading of the stacked gufunc is the public verdict ...
    with np.errstate(all="ignore"):
        corner = estimators._umath_linalg.cholesky_lo(M)[:, 0, -1]
    assert np.array_equal(~np.isnan(corner), passes)
    # ... and every solution has the bits of a public solve of its member
    with np.errstate(all="ignore"):
        assert _gated_solve(M, r).tobytes() == want.tobytes()


def test_wavelet_lpacf_with_failing_gate_members_matches_scalar_loop(monkeypatch):
    # the lacv grid of a random walk: members of the ridge-0 stacks and of
    # the ridge rounds fail the Cholesky gate, next to members that pass
    x = np.cumsum(np.random.default_rng(1).standard_normal(256))
    lacv = local_autocovariance(smooth_and_correct(raw_wavelet_periodogram(x)), 6)
    failed = []

    def record(name, M, out):
        if name == "cholesky_lo":
            failed.append((len(M), int(np.isnan(out[:, 0, -1]).sum())))

    _spy_lapack(monkeypatch, record)
    grid = _assert_matches_scalar_loop(lacv, 6)
    assert any(0 < fails < size for size, fails in failed)
    assert len(grid.points) and len(grid.dropped_points) > 6


def test_wavelet_lpacf_keeps_the_sign_of_a_zero_estimate(monkeypatch):
    # signed zeros in the grid give the LAPACK stage phi_22 = -0.0 at zT=1;
    # the lattice's Delta there is C(1, 3) - a_1(3) C(1, 2) = -0.0 - 0.0 *
    # -0.0 = +0.0, so the estimate it serves is +0.0
    vals = np.array(
        [
            [1.0] * 8,
            [0.0, -0.0, -0.0, 0.0, -0.25, -0.25, 0.0, -0.25],
            [-0.25, -0.0, -0.0, 0.5, 0.5, -0.0, 0.0, -0.25],
        ]
    )
    lacv = LocalAcvGrid(vals, 0)
    grid = _assert_matches_scalar_loop(lacv, 2)
    assert grid.points[1] == 1 and _served(lacv, [1], 2)[0]
    assert grid.estimates[1, 1] == 0.0 and not np.signbit(grid.estimates[1, 1])
    monkeypatch.setattr(estimators, "_lattice", _serve_nothing)
    grid = wavelet_lpacf(np.ones(8), max_lag=2, lacv=lacv)
    assert grid.points[1] == 1 and np.signbit(grid.estimates[1, 1])


def test_wavelet_lpacf_drops_point_with_non_positive_mspe():
    # the forecast MSPE at zT=5, lag 1, is the lag-0 entry at time 6
    vals = np.vstack([np.ones(12), np.full(12, 0.3)])
    vals[0, 6] = -0.5
    grid = _assert_matches_scalar_loop(LocalAcvGrid(vals, 0), 1)
    assert list(grid.dropped_points) == [5, 6, 11]


def test_wavelet_lpacf_drops_the_blocks_of_an_infinite_entry_without_a_warning():
    # the blocks holding the infinite lag-0 entry at time 10 go to the LAPACK
    # stage, whose ridge sums (inf * 0) and MSPE products raise floating-point
    # flags: it drops them, and pyproject makes a leaked RuntimeWarning fail
    T = 40
    vals = np.array([1.0, 0.5, 0.2, 0.1])[:, None] * np.ones(T)
    vals[0, 10] = np.inf
    grid = wavelet_lpacf(np.ones(T), max_lag=3, lacv=LocalAcvGrid(vals, 0))
    assert grid.dropped_points.tolist() == [7, 8, 9, 10, 37, 38, 39]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
@pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "inf beside -inf"])
def test_wavelet_lpacf_drops_each_block_that_reads_a_non_finite_entry(entry, seed, max_lag, hits):
    # a given grid of AR(1)-shaped covariances, which both stages keep, with
    # non-finite entries at random lags and times: both stages drop exactly
    # the points whose blocks read one, keep finite estimates elsewhere, and
    # leak no RuntimeWarning (pyproject makes one fail)
    rng = np.random.default_rng(seed)
    T = 32
    vals = 0.5 ** np.arange(max_lag + 1)[:, None] * np.ones(T)
    d = rng.integers(0, max_lag + 1, hits)
    t = rng.integers(0, T - 1, hits)
    if entry == "inf beside -inf":  # their midpoint average is NaN
        vals[d, t], vals[d, t + 1] = np.inf, -np.inf
    else:
        vals[d, t] = float(entry)
    lacv = LocalAcvGrid(vals, 0)
    with np.errstate(all="ignore"):  # midpoint's own inf - inf
        bad = [
            zT > T - 1 - max_lag
            or not np.isfinite(_pair_cov_matrix(lacv, np.arange(zT, zT + max_lag + 1))).all()
            for zT in range(T)
        ]
    for grid in _both_stages(lacv, max_lag, None):
        assert grid.dropped_points.tolist() == np.flatnonzero(bad).tolist()
        assert np.isfinite(grid.estimates).all()

def test_wavelet_lpacf_rejects_grid_shorter_than_series():
    lacv = _constant_grid([1.0, 0.5, 0.25], T=32)
    with pytest.raises(InvalidArgumentError, match="T=32 times, fewer than the series T=40"):
        wavelet_lpacf(np.ones(40), max_lag=2, lacv=lacv)


def test_wavelet_lpacf_rejects_grid_with_too_few_lags():
    lacv = _constant_grid([1.0, 0.5, 0.25], T=32)
    with pytest.raises(InvalidArgumentError, match="lags up to 2 < max_lag=3"):
        wavelet_lpacf(np.ones(32), max_lag=3, lacv=lacv)


def test_wavelet_lpacf_refuses_a_stacked_grid():
    lacv = LocalAcvGrid(np.ones((2, 3, 32)), 0)
    with pytest.raises(InvalidArgumentError, match="not one series' grid"):
        wavelet_lpacf(np.ones(32), max_lag=2, lacv=lacv)


def test_wavelet_lpacf_white_noise_null():
    # under the null, estimates should mostly sit inside a +-1.96/sqrt(128)
    # band around zero (128 = the coverage-study window for T=1024)
    hits = total = 0
    for seed in range(3):
        ts = simulate_tvar(ArPathSpec.constant([0.0]), 1024, 100 + seed)
        grid = wavelet_lpacf(ts, max_scale=6, span=24, max_lag=4)
        interior = grid.boundary == 0
        est = grid.estimates[interior]
        hits += int(np.sum(np.abs(est) <= 1.96 / np.sqrt(128)))
        total += est.size
    assert hits / total >= 0.85


def test_wavelet_lpacf_tracks_tvar_ramp():
    spec = ArPathSpec.linear_ramp([0.9], [-0.9])
    ts = simulate_tvar(spec, 512, 3)
    grid = wavelet_lpacf(ts, max_scale=6, span=24, max_lag=2)
    interior = grid.boundary == 0
    pts = grid.points[interior]
    truth = 0.9 - 1.8 * pts / 512
    corr = np.corrcoef(grid.estimates[interior, 0], truth)[0, 1]
    assert corr > 0.75


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([96, 128]), st.booleans(), st.data())
def test_estimates_do_not_depend_on_a_power_of_two_scale(seed, T, demean, data):
    x = simulate_tvar(ArPathSpec.linear_ramp([0.9], [-0.9]), T, seed).values
    # every k for which x * 2**k is exact: finite, and no value subnormal
    lowest = -1021 - int(np.frexp(np.min(np.abs(x)))[1])
    highest = 1024 - int(np.frexp(np.max(np.abs(x)))[1])
    y = np.ldexp(x, data.draw(st.integers(lowest, highest)))
    for estimate in (
        lambda v: windowed_lpacf(v, L=24, max_lag=3, demean=demean),
        lambda v: wavelet_lpacf(v, max_scale=4, max_lag=2, demean=demean, pad=T != 128),
    ):
        a, b = estimate(x), estimate(y)
        assert b.points.tobytes() == a.points.tobytes()
        assert b.dropped_points.tobytes() == a.dropped_points.tobytes()
        assert b.estimates.tobytes() == a.estimates.tobytes()
    a, b = classical_pacf(x, 5, demean=demean), classical_pacf(y, 5, demean=demean)
    assert b.tobytes() == a.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.9, 0.9), st.integers(2, 6))
def test_true_ar1_accessor_cutoff_property(rho, tau):
    # AR(1)-shaped covariances always cut off beyond lag one
    if abs(rho) < 1e-3:
        rho = 0.5
    lacv = _constant_grid(rho ** np.arange(tau + 1))
    for grid in _both_stages(lacv, tau, [10]):
        assert grid.estimates[0, 0] == pytest.approx(rho, abs=1e-12)
        assert np.all(np.abs(grid.estimates[0, 1:]) < 1e-9)

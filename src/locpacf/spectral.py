"""Evolutionary wavelet spectrum estimation.

Pipeline: non-decimated Haar transform -> raw periodogram (squared
coefficients) -> running-mean smoothing over time -> inverse-A correction
-> local autocovariance synthesis c_hat(z, tau) = sum_j S_hat_j(z) Psi_j(tau).
Each stage takes a stack of series along leading axes, time the last axis,
and treats every series on its own, so a series keeps the bits of a run on
it alone: one forward FFT of every scale's filter and one inverse FFT of
every series and scale give the transform, one ``kernels._window_sums``
call the running mean of every scale of every series, one stacked solve
the inverse-A correction and one broadcasting matmul the synthesis, whose
table of Psi_j(tau) is one expression.  The grids of a stack keep its
leading axes.

Boundary policy: the non-decimated transform wraps periodically (dyadic
convention).  A tapered local periodogram whose window leaves the series
raises BoundaryError by default (``boundary="strict"``); with the opt-in
``boundary="clip"`` it clips the window and recomputes the normalizer over
the retained points.  Per-time-point computations are independent; all
grids are write-once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DataError, InvalidArgumentError, _check_int
from .haar import _check_window, a_matrix, haar_value
from .kernels import RECTANGULAR, TaperKernel, _window_sums
from .series import as_series

__all__ = [
    "nondecimated_haar_transform",
    "raw_wavelet_periodogram",
    "local_wavelet_periodogram_tapered",
    "integrated_periodogram",
    "smooth_and_correct",
    "local_autocovariance",
    "EwsGrid",
    "LocalAcvGrid",
    "default_max_scale",
    "default_smoothing_span",
]


def default_max_scale(T: int) -> int:
    """min(log2 T, 8); deeper scales are noise-dominated at desk-scale T."""
    return min(int(np.log2(T)), 8)


def _dyadic_length(T: int) -> int:
    """The least power of two >= T: T itself if T is a power of two."""
    return 1 << (T - 1).bit_length()


def _checked_max_scale(max_scale: int | None, T: int) -> int:
    """The transform's max_scale for a series of T points: the default
    ``default_max_scale(T)`` for None, else an integer in [1, log2 N], N
    the dyadic length of T (T itself, or the length it is padded to)."""
    if max_scale is None:
        return default_max_scale(T)
    N = _dyadic_length(T)
    J = N.bit_length() - 1
    return _check_int(max_scale, f"max_scale={max_scale}", 1, J, f"outside [1, {J}] for T={N}")


def _check_lacv_lag(max_lag: int, max_scale: int) -> None:
    """A local autocovariance of scales 1..max_scale has lags below 2^max_scale."""
    rule = "must satisfy 0 <= max_lag < 2^max_scale"
    _check_int(max_lag, f"max_lag={max_lag}", 0, (1 << max_scale) - 1, rule)


def default_smoothing_span(T: int) -> int:
    """Default running-mean half-span s = ceil(T^(1/3))."""
    return int(np.ceil(T ** (1.0 / 3.0)))


def _checked_span(span: int | None, T: int) -> int:
    """The running mean's half-span for T times: the default
    ``default_smoothing_span(T)`` for None, else an integer in [0, T - 1]:
    a longer span reflects the series more than once, and its padded rows
    grow with the span, not with T."""
    if span is None:
        return default_smoothing_span(T)
    rule = f"must be nonnegative and <= {T - 1} for T={T}"
    return _check_int(span, f"span={span}", 0, T - 1, rule)


def nondecimated_haar_transform(ts, max_scale: int | None = None, pad: bool = False):
    """Coefficients d_{j,k} = sum_t X_t psi_{j,(t-k) mod T}, scales 1..max_scale.

    ``ts`` is a series, or an array of series of one length along its last
    axis; returns an array of shape (..., max_scale, T).  Linear in the
    input; periodic boundary.  ``pad`` reflect-pads a non-dyadic T to the
    next power of two N as ``np.pad(x, (0, N - T), mode="reflect")`` does;
    the coefficients are reported at the original T times only, and the
    default max_scale is ``default_max_scale(T)``, the estimator's.

    The max_scale filters, zero-padded to N, are one (max_scale, N) array
    with one rfft; every series' spectrum times every filter's conjugate
    is one (..., max_scale, N/2+1) array with one irfft.  Each row has the
    bits of its own FFT pair, and a series those of a stack that holds it.
    """
    x = np.asarray(getattr(ts, "values", ts), dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1 or not np.isfinite(x).all():
        raise DataError(f"series must be non-empty and finite, got shape {x.shape}")
    T = x.shape[-1]
    N = _dyadic_length(T)
    if N != T:
        if not pad:
            raise InvalidArgumentError(
                f"series length T={T} is not a power of two; enable padding"
            )
        x = np.concatenate([x, x[..., -2 : -2 - (N - T) : -1]], axis=-1)
    max_scale = _checked_max_scale(max_scale, T)
    # circular cross-correlation: d[j-1, k] = sum_t X_t psi_{j,(t-k) mod N}.
    # np.multiply, not *: numpy's SIMD complex product rounds a * b and
    # b * a differently, and * swaps them to reuse a temporary right operand
    # of 256 KiB or more whose shape is the product's.  The filters' spectra
    # are freed before the irfft, which holds the product and d.
    XP = np.multiply(np.fft.rfft(x)[..., None, :], _conj_haar_spectra(max_scale, N))
    return np.fft.irfft(XP, N)[..., :T]


def _conj_haar_spectra(max_scale: int, N: int) -> np.ndarray:
    """The conjugate rfft of psi_{j,.} zero-padded to N for j = 1..max_scale,
    a (max_scale, N/2+1) array: one rfft of every filter."""
    p = np.zeros((max_scale, N))  # row j-1: psi_{j,.}
    for j in range(1, max_scale + 1):
        half, amp = 1 << (j - 1), 2.0 ** (-j / 2)  # haar_value's values
        p[j - 1, :half] = amp
        p[j - 1, half : 2 * half] = -amp
    spectra = np.fft.rfft(p)
    return np.conjugate(spectra, out=spectra)


def raw_wavelet_periodogram(ts, max_scale: int | None = None, pad: bool = False):
    """Squared non-decimated coefficients I_{j,k} = d_{j,k}^2."""
    d = nondecimated_haar_transform(ts, max_scale, pad)
    return d * d


def local_wavelet_periodogram_tapered(
    ts,
    zT: int,
    N: int,
    j: int,
    kernel: TaperKernel = RECTANGULAR,
    boundary: str = "strict",
) -> float:
    """Uncorrected tapered local wavelet periodogram I*_N(zT/T, j).

    I* = H_N^{-1} | sum_{t<N} h(t/N) X_{zT+t-N/2+1} psi_{j,(t-N/2+1) mod N} |^2.
    The wavelet anchor is chosen so that with a rectangular kernel and
    N = T the value reproduces the global non-decimated periodogram at the
    center point (up to the H_N normalizer).

    With ``boundary="strict"`` a window leaving [0, T-1] raises
    BoundaryError; with ``boundary="clip"`` the window is clipped and H
    recomputed over the retained points.
    """
    ts = as_series(ts)
    T = ts.T
    N, zT = _check_window(N, zT)
    if not 1 <= j <= int(np.log2(N)):
        raise InvalidArgumentError(f"scale j={j} needs 2^j <= N={N}")
    if boundary not in ("strict", "clip"):
        raise InvalidArgumentError(f"unknown boundary policy {boundary!r}")
    t = np.arange(N)
    s = zT + t - N // 2 + 1
    if boundary == "strict":
        if s[0] < 0 or s[-1] > T - 1:
            raise BoundaryError(
                f"window [{s[0]}, {s[-1]}] exceeds series bounds [0, {T - 1}]"
            )
        keep = slice(None)
    else:
        keep = (s >= 0) & (s <= T - 1)
        if not np.any(keep):
            raise BoundaryError(f"window around zT={zT} has no overlap with the series")
    h = kernel.h(t / N)[keep]
    wav = haar_value(j, (t - N // 2 + 1) % N)[keep]
    hn = float(np.sum(h * h))
    if hn <= 0.0:
        raise BoundaryError("no taper mass left after clipping")
    inner = float(np.sum(h * ts.values[s[keep]] * wav))
    return inner * inner / hn


def integrated_periodogram(
    ts,
    zT: int,
    N: int,
    phi,
    kernel: TaperKernel = RECTANGULAR,
    boundary: str = "strict",
) -> float:
    """J_N(z, phi) = sum_j phi_j I*_N(z, j) for a finite weight sequence."""
    phi = np.asarray(phi, dtype=float)
    total = 0.0
    for j, w in enumerate(phi, start=1):
        if w == 0.0:
            continue
        total += w * local_wavelet_periodogram_tapered(ts, zT, N, j, kernel, boundary)
    return total


@dataclass(frozen=True)
class EwsGrid:
    """Evolutionary wavelet spectrum estimates on a scale x time grid.

    ``spectrum[..., j-1, k]`` holds S_hat_j(k/T), the leading axes those of
    a stack of series.  Entries may be negative after the inverse-A
    correction; ``negative_cells`` counts them, over the whole stack.
    Synthesis into autocovariances floors them at zero.
    """

    spectrum: np.ndarray
    negative_cells: int

    @property
    def max_scale(self) -> int:
        return self.spectrum.shape[-2]

    @property
    def T(self) -> int:
        return self.spectrum.shape[-1]


def smooth_and_correct(raw: np.ndarray, span: int | None = None) -> EwsGrid:
    """Running-mean smooth each scale over 2*span+1 neighbors, then apply A^{-1}.

    ``raw`` is (..., J, T): one (J, T) periodogram, or a stack of them.
    Edges are reflected for the smoothing, so the span is at most T - 1.
    span=0 leaves the raw values untouched before correction.
    """
    raw = np.asarray(raw, dtype=float)
    J, T = raw.shape[-2:]
    span = _checked_span(span, T)
    sm = raw
    if span > 0:
        ker = np.full(2 * span + 1, 1.0 / (2 * span + 1))
        padded = np.pad(raw, [(0, 0)] * (raw.ndim - 1) + [(span, span)], mode="reflect")
        sm = _window_sums(padded, ker, 0, T)  # every scale in one call
    spectrum = np.linalg.solve(a_matrix(J), sm)  # A against every (J, T) matrix
    spectrum.setflags(write=False)
    return EwsGrid(spectrum, int(np.sum(spectrum < 0.0)))


@dataclass(frozen=True)
class LocalAcvGrid:
    """Local autocovariance estimates c_hat(z, tau) on a time x lag grid.

    ``values[..., tau, k]`` holds c_hat(k/T, tau) for tau = 0..max_lag, the
    leading axes those of a stack of series.  Negative lags follow by
    symmetry.  ``floored_cells`` counts spectrum cells set to zero before
    synthesis, over the whole stack.  ``at`` and ``midpoint`` read the grid
    of one series, and refuse a stacked grid.
    """

    values: np.ndarray
    floored_cells: int

    @property
    def max_lag(self) -> int:
        return self.values.shape[-2] - 1

    @property
    def T(self) -> int:
        return self.values.shape[-1]

    def _one_series(self) -> np.ndarray:
        """``values`` of a one-series grid; a stacked grid is refused."""
        if self.values.ndim != 2:
            raise InvalidArgumentError(
                f"a stacked grid of shape {self.values.shape} is not one series' grid"
            )
        return self.values

    def _time(self, k, name: str) -> int:
        """k if it is an integer time of the grid."""
        return _check_int(k, f"time {name}={k}", 0, self.T - 1, f"outside [0, {self.T - 1}]")

    def at(self, k: int, tau: int) -> float:
        """c_hat(k/T, tau) at an integer time k of the grid and an integer
        lag tau of either sign, |tau| <= ``max_lag``."""
        values, m = self._one_series(), self.max_lag
        tau = _check_int(tau, f"lag tau={tau}", -m, m, f"outside [-{m}, {m}]")
        return float(values[abs(tau), self._time(k, "k")])

    def midpoint(self, ta: int, tb: int) -> float:
        """c_hat at the rescaled midpoint of the index pair (ta, tb).

        The lag is |ta - tb|; a half-integer midpoint averages the two
        adjacent integer-time entries.  Both are integer times of the grid,
        at most ``max_lag`` apart.
        """
        values = self._one_series()
        ta, tb = self._time(ta, "ta"), self._time(tb, "tb")
        lag = abs(ta - tb)
        if lag > self.max_lag:
            raise InvalidArgumentError(
                f"times ta={ta} and tb={tb} lie {lag} apart, beyond max_lag={self.max_lag}"
            )
        twice = ta + tb
        if twice % 2 == 0:
            return float(values[lag, twice // 2])
        lo = twice // 2
        return 0.5 * float(values[lag, lo] + values[lag, lo + 1])


def local_autocovariance(ews: EwsGrid, max_lag: int) -> LocalAcvGrid:
    """Synthesize c_hat(z, tau) = sum_j max(S_hat_j(z), 0) Psi_j(tau), for one
    spectrum or a stack of them; the floored cells are ``ews.negative_cells``."""
    _check_lacv_lag(max_lag, ews.max_scale)
    S = np.maximum(ews.spectrum, 0.0)
    # psi_auto(j, tau) of every scale j and lag tau in one expression
    u = np.arange(max_lag + 1.0) * np.ldexp(1.0, -np.arange(1, ews.max_scale + 1)[:, None])
    psi = np.where(u <= 0.5, 1.0 - 3.0 * u, np.where(u <= 1.0, u - 1.0, 0.0))
    values = psi.T @ S
    values.setflags(write=False)
    return LocalAcvGrid(values, ews.negative_cells)

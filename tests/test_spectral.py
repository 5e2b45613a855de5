"""Non-decimated transform, local periodograms, correction, local autocovariance."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpacf import (
    BoundaryError,
    DataError,
    EPANECHNIKOV,
    EwsGrid,
    InvalidArgumentError,
    LocalAcvGrid,
    RECTANGULAR,
    a_matrix,
    haar_coefficients,
    haar_value,
    integrated_periodogram,
    local_autocovariance,
    local_wavelet_periodogram_tapered,
    nondecimated_haar_transform,
    psi_auto,
    raw_wavelet_periodogram,
    smooth_and_correct,
)
from locpacf.spectral import default_max_scale


def test_transform_of_zero_series_is_zero():
    assert np.all(nondecimated_haar_transform(np.zeros(16), 3) == 0.0)


def test_transform_of_constant_series_is_zero():
    d = nondecimated_haar_transform(np.full(32, 7.3), 4)
    assert np.abs(d).max() < 1e-12


def test_transform_recovers_unit_coefficient():
    T, k0 = 16, 5
    x = np.zeros(T)
    x[k0 : k0 + 2] = haar_coefficients(1)
    d = nondecimated_haar_transform(x, 2)
    assert d[0, k0] == pytest.approx(1.0, abs=1e-12)


def test_transform_requires_dyadic_length():
    with pytest.raises(InvalidArgumentError):
        nondecimated_haar_transform(np.ones(20), 2)
    for bad in ([], [1.0, np.nan, 0.0, 2.0], np.ones((2, 0))):
        with pytest.raises(DataError, match="non-empty and finite"):
            nondecimated_haar_transform(bad, 1, pad=True)
    d = nondecimated_haar_transform(np.arange(20.0), 2, pad=True)
    assert d.shape == (2, 20)  # reported on original indices only


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transform_linearity(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 32))
    dx = nondecimated_haar_transform(x, 4)
    dy = nondecimated_haar_transform(y, 4)
    dxy = nondecimated_haar_transform(x + y, 4)
    assert np.allclose(dxy, dx + dy, atol=1e-12)


def direct_haar_transform(x, max_scale):
    """The definition d_{j,k} = sum_t X_t psi_{j,(t-k) mod T} as a direct circular sum."""
    T = len(x)
    d = np.zeros((max_scale, T))
    for j in range(1, max_scale + 1):
        psi = np.zeros(T)
        psi[: 1 << j] = haar_coefficients(j)
        for k in range(T):
            d[j - 1, k] = sum(x[t] * psi[(t - k) % T] for t in range(T))
    return d


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
def test_transform_matches_direct_circular_sum(log2_T, seed, data):
    max_scale = data.draw(st.integers(1, log2_T))
    x = np.random.default_rng(seed).standard_normal(1 << log2_T)
    d = nondecimated_haar_transform(x, max_scale)
    assert np.abs(d - direct_haar_transform(x, max_scale)).max() <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 255).filter(lambda T: T & (T - 1)), st.integers(0, 2**32 - 1), st.data())
def test_padded_transform_matches_direct_circular_sum(T, seed, data):
    x = np.random.default_rng(seed).standard_normal(T)
    N = 1 << (T - 1).bit_length()
    padded = np.pad(x, (0, N - T), mode="reflect")
    max_scale = data.draw(st.integers(1, int(np.log2(N))))
    d = nondecimated_haar_transform(x, max_scale, pad=True)
    ref = direct_haar_transform(padded, max_scale)[:, :T]
    assert np.abs(d - ref).max() <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("T", [100, 200, 300])
def test_padded_transform_takes_the_default_scale_of_the_series_length(T):
    # the estimator's rule: J* = min(log2 T, 8) of the series' own T, not
    # of the padded length N = 128, 256, 512, which would give 7, 8 and 8
    x = np.random.default_rng(T).standard_normal(T)
    d = nondecimated_haar_transform(x, pad=True)
    assert d.shape == (default_max_scale(T), T) == ({100: 6, 200: 7, 300: 8}[T], T)
    assert raw_wavelet_periodogram(x, pad=True).shape == d.shape


def per_scale_haar_transform(x, max_scale):
    """The transform one scale at a time: each filter from ``haar_value``,
    one rfft and one irfft per scale.  ``x`` is a stack (R, N) of dyadic
    length, so the product X * conj(P) never has the shape of its
    temporary right operand and numpy computes it as written."""
    N = x.shape[-1]
    X = np.fft.rfft(x)
    d = np.empty(x.shape[:-1] + (max_scale, N))
    for j in range(1, max_scale + 1):
        p = haar_value(j, np.arange(N))  # psi_{j,.} zero-padded to N
        d[..., j - 1, :] = np.fft.irfft(X * np.conj(np.fft.rfft(p)), N)
    return d


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("T", [2, 16, 1024, 32768, 3, 100, 2560, 20000])
def test_transform_is_the_per_scale_loop_bit_for_bit(T, R):
    # every scale at every max_scale, dyadic and reflect-padded.  R=1 is one
    # series, not a stack: at N=32768 (T=32768 and 20000) it keeps the bits
    # of a stack, which the per-scale loop run on one series did not, as
    # numpy swapped the operands of its X * temporary to reuse the temporary
    x = np.random.default_rng(T + R).standard_normal((R, T))
    N = 1 << (T - 1).bit_length()
    padded = np.pad(x, [(0, 0), (0, N - T)], mode="reflect")
    for max_scale in range(1, N.bit_length()):
        d = nondecimated_haar_transform(x[0] if R == 1 else x, max_scale, pad=True)
        ref = per_scale_haar_transform(padded, max_scale)[..., :T]
        assert d.shape == (ref[0] if R == 1 else ref).shape
        assert d.tobytes() == ref.tobytes()


@pytest.mark.parametrize("max_scale", [1, 2, 3, 8, 12])
def test_psi_table_is_psi_auto_row_by_row(max_scale):
    # the spectrum of max_scale times whose time j-1 holds scale j alone
    # synthesizes the table itself: values[tau, j-1] = Psi_j(tau)
    for max_lag in sorted({0, 1, (1 << max_scale) - 1}):
        lacv = local_autocovariance(EwsGrid(np.eye(max_scale), 0), max_lag)
        for j in range(1, max_scale + 1):
            row = psi_auto(j, np.arange(max_lag + 1))
            assert lacv.values[:, j - 1].tobytes() == row.tobytes()


def test_periodogram_scaling_and_nonnegativity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(64)
    I1 = raw_wavelet_periodogram(x, 4)
    I3 = raw_wavelet_periodogram(3.0 * x, 4)
    assert np.all(I1 >= 0.0)
    assert np.allclose(I3, 9.0 * I1, rtol=1e-12)


def test_tapered_periodogram_zero_series():
    assert local_wavelet_periodogram_tapered(np.zeros(32), 16, 16, 2) == 0.0


def test_tapered_periodogram_aligned_wavelet():
    # series equal to the window-anchored wavelet: inner sum is 1, value 1/N
    N, zT, j, T = 16, 24, 2, 64
    x = np.zeros(T)
    t = np.arange(N)
    idx = (t - N // 2 + 1) % N
    wav = np.zeros(N)
    wav[: 2**j] = haar_coefficients(j)
    x[zT + t - N // 2 + 1] = wav[idx]
    val = local_wavelet_periodogram_tapered(x, zT, N, j, RECTANGULAR)
    assert val == pytest.approx(1.0 / N, abs=1e-14)


def test_tapered_periodogram_nonnegative_random():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(128)
    for j in (1, 2, 3):
        for zT in (20, 64, 100):
            assert local_wavelet_periodogram_tapered(x, zT, 32, j, EPANECHNIKOV) >= 0.0


def test_taper_reduction_to_global_periodogram():
    rng = np.random.default_rng(3)
    T = 64
    x = rng.standard_normal(T)
    d = nondecimated_haar_transform(x, 5)
    zT = T // 2 - 1
    for j in (1, 3, 5):
        val = local_wavelet_periodogram_tapered(x, zT, T, j, RECTANGULAR)
        assert T * val == pytest.approx(d[j - 1, zT] ** 2, abs=1e-10)


def test_boundary_policies():
    x = np.arange(64.0)
    with pytest.raises(BoundaryError):
        local_wavelet_periodogram_tapered(x, 2, 16, 1, boundary="strict")
    # clipping recomputes H over retained points; compare to direct sum
    N, zT, j = 16, 2, 1
    t = np.arange(N)
    s = zT + t - N // 2 + 1
    keep = (s >= 0) & (s < 64)
    wav = np.zeros(N)
    wav[: 2**j] = haar_coefficients(j)
    w = np.ones(N)
    inner = np.sum(w[keep] * x[s[keep]] * wav[(t - N // 2 + 1) % N][keep])
    expected = inner**2 / np.sum(w[keep] ** 2)
    got = local_wavelet_periodogram_tapered(x, zT, N, j, RECTANGULAR, boundary="clip")
    assert got == pytest.approx(expected, abs=1e-12)


def test_integrated_periodogram_definitional_cases():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(128)
    zT, N = 64, 32
    assert integrated_periodogram(x, zT, N, np.zeros(4)) == 0.0
    ind = np.array([0.0, 0.0, 1.0])
    assert integrated_periodogram(x, zT, N, ind) == pytest.approx(
        local_wavelet_periodogram_tapered(x, zT, N, 3), abs=1e-14
    )
    # phi = (1,1,...) equals an explicit double-loop recomputation
    phi = np.ones(4)
    total = 0.0
    for j in range(1, 5):
        wav = np.zeros(N)
        wav[: 2**j] = haar_coefficients(j)
        inner = 0.0
        for t in range(N):
            inner += x[zT + t - N // 2 + 1] * wav[(t - N // 2 + 1) % N]
        total += inner**2 / N
    assert integrated_periodogram(x, zT, N, phi, RECTANGULAR) == pytest.approx(
        total, abs=1e-12
    )


def test_smoothing_span_zero_is_identity_before_correction():
    rng = np.random.default_rng(5)
    raw = rng.random((3, 32))
    ews = smooth_and_correct(raw, span=0)
    ref = np.linalg.solve(a_matrix(3), raw)
    assert np.allclose(ews.spectrum, ref, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 64), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_smooth_and_correct_matches_reflected_running_mean(data, T, J, seed):
    # the definition: mean over the 2s+1 neighbours, the index reflected at
    # both ends (period 2(T-1)), then A^{-1}; a span of T or more, which
    # would reflect more than once, is refused
    span = data.draw(st.integers(0, T - 1), label="span")
    raw = np.random.default_rng(seed).random((J, T))
    period = 2 * (T - 1)
    sm = np.empty_like(raw)
    for k in range(T):
        idx = np.arange(k - span, k + span + 1) % period
        sm[:, k] = raw[:, np.where(idx > T - 1, period - idx, idx)].mean(axis=1)
    ref = np.linalg.solve(a_matrix(J), sm)
    got = smooth_and_correct(raw, span=span).spectrum
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    too_long = data.draw(st.integers(T, 3 * T + 1), label="too long")
    with pytest.raises(InvalidArgumentError, match=rf"<= {T - 1} for T={T}$"):
        smooth_and_correct(raw, span=too_long)


@pytest.mark.parametrize("span", [1, 2, 5, 6, 8, 20])
def test_smooth_and_correct_is_the_per_scale_convolve_bit_for_bit(span):
    # spans up to 5 (at most 11 taps) take the unrolled sums, longer ones
    # the BLAS dot; every T above the span, down to span + 1, where the
    # padding reflects the whole series
    rng = np.random.default_rng(span)
    ker = np.full(2 * span + 1, 1.0 / (2 * span + 1))
    for T, J in ((span + 1, 1), (span + 2, 2), (33, 4), (64, 6), (257, 8), (4096, 8)):
        raw = rng.standard_normal((J, T)) ** 2 * 10.0 ** rng.integers(-8, 8)
        padded = np.pad(raw, ((0, 0), (span, span)), mode="reflect")
        sm = np.vstack([np.convolve(row, ker, "valid") for row in padded])
        ref = np.linalg.solve(a_matrix(J), sm)
        assert smooth_and_correct(raw, span=span).spectrum.tobytes() == ref.tobytes()


def test_constant_grid_correction_is_direct_solve():
    mu = 2.5
    raw = np.full((4, 16), mu)
    ews = smooth_and_correct(raw, span=3)
    ref = np.linalg.solve(a_matrix(4), np.full(4, mu))
    assert np.allclose(ews.spectrum, ref[:, None], atol=1e-12)


def test_single_scale_correction_value():
    ews = smooth_and_correct(np.full((1, 16), 1.0), span=0)
    assert ews.spectrum[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_local_autocovariance_synthesis():
    T = 16
    spectrum = np.vstack([np.ones(T), np.zeros((2, T))])
    ews = EwsGrid(spectrum, 0)
    lacv = local_autocovariance(ews, 3)
    assert lacv.values[0, 0] == pytest.approx(1.0)
    assert lacv.values[1, 0] == pytest.approx(-0.5)  # Psi_1(1)
    # negative lags by symmetry through the accessor
    assert lacv.at(0, -1) == lacv.at(0, 1)
    # lag-0 synthesis is the scale sum
    spectrum2 = np.random.default_rng(6).random((3, T))
    lacv2 = local_autocovariance(EwsGrid(spectrum2, 0), 2)
    assert np.allclose(lacv2.values[0], spectrum2.sum(axis=0), atol=1e-12)
    # all-zero spectrum synthesizes to zero
    lacv3 = local_autocovariance(EwsGrid(np.zeros((3, T)), 0), 2)
    assert np.all(lacv3.values == 0.0)


def test_negative_spectrum_cells_are_floored_and_counted():
    spectrum = np.vstack([np.full(8, -1.0), np.ones((1, 8))])
    lacv = local_autocovariance(EwsGrid(spectrum, 8), 1)
    assert lacv.floored_cells == 8
    assert np.allclose(lacv.values[0], 1.0)  # only the positive scale remains


@settings(max_examples=30, deadline=None)
@given(
    st.integers(8, 80),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_spectral_stage_of_a_stack_is_the_stage_of_each_series(T, R, span, max_lag, seed):
    # leading axes hold series: every stage of a stack has the bits of the
    # same stage run on each series alone
    x = np.random.default_rng(seed).standard_normal((R, T))
    raw = raw_wavelet_periodogram(x, 3, pad=True)
    ews = smooth_and_correct(raw, span)
    lacv = local_autocovariance(ews, max_lag)
    assert (raw.shape, ews.T, ews.max_scale, lacv.T, lacv.max_lag) == (
        (R, 3, T), T, 3, T, max_lag
    )
    negative = floored = 0
    for r in range(R):
        raw_r = raw_wavelet_periodogram(x[r], 3, pad=True)
        ews_r = smooth_and_correct(raw_r, span)
        lacv_r = local_autocovariance(ews_r, max_lag)
        assert raw[r].tobytes() == raw_r.tobytes()
        assert ews.spectrum[r].tobytes() == ews_r.spectrum.tobytes()
        assert lacv.values[r].tobytes() == lacv_r.values.tobytes()
        negative += ews_r.negative_cells
        floored += lacv_r.floored_cells
    assert (ews.negative_cells, lacv.floored_cells) == (negative, floored)


def test_stacked_lacv_grid_refuses_one_series_accessors():
    spectrum = np.random.default_rng(7).random((2, 3, 16))
    lacv = local_autocovariance(EwsGrid(spectrum, 0), 2)
    assert lacv.values.shape == (2, 3, 16)
    for read in (lambda: lacv.at(0, 1), lambda: lacv.midpoint(0, 1)):
        with pytest.raises(InvalidArgumentError, match="not one series' grid"):
            read()


_GRID = LocalAcvGrid(np.arange(48.0).reshape(3, 16), 0)  # lags 0..2, times 0..15


@pytest.mark.parametrize(
    "read, needle",
    [
        (lambda: _GRID.at(-1, 0), "time k=-1 outside [0, 15]"),
        (lambda: _GRID.at(16, 0), "time k=16 outside [0, 15]"),
        (lambda: _GRID.at(1.5, 0), "time k=1.5 must be an integer"),
        (lambda: _GRID.at(True, 0), "time k=True must be an integer"),
        (lambda: _GRID.at(3, 1.5), "lag tau=1.5 must be an integer"),
        (lambda: _GRID.at(3, 3), "lag tau=3 outside [-2, 2]"),
        (lambda: _GRID.at(3, -3), "lag tau=-3 outside [-2, 2]"),
        (lambda: _GRID.midpoint(-1, 0), "time ta=-1 outside [0, 15]"),
        (lambda: _GRID.midpoint(0, -1), "time tb=-1 outside [0, 15]"),
        (lambda: _GRID.midpoint(15, 16), "time tb=16 outside [0, 15]"),
        (lambda: _GRID.midpoint(2.5, 3), "time ta=2.5 must be an integer"),
        (lambda: _GRID.midpoint(2, False), "time tb=False must be an integer"),
        (lambda: _GRID.midpoint(2, 5), "times ta=2 and tb=5 lie 3 apart, beyond max_lag=2"),
    ],
)
def test_lacv_grid_refuses_times_and_lags_outside_it(read, needle):
    # a negative time read the grid from its end, and a float was truncated
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}$"):
        read()


def test_lacv_grid_reads_lags_of_either_sign_and_numpy_integers():
    assert _GRID.at(3, -2) == _GRID.at(3, 2) == _GRID.at(np.int64(3), np.int64(2)) == 35.0
    assert _GRID.midpoint(15, 14) == _GRID.midpoint(np.int64(14), 15) == 0.5 * (30.0 + 31.0)
    assert _GRID.midpoint(0, 2) == _GRID.at(1, 2)


def _lacv_of(x, max_lag):
    return local_autocovariance(smooth_and_correct(raw_wavelet_periodogram(x, 3)), max_lag)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda x: local_wavelet_periodogram_tapered(x, 20.5, 16, 2), "zT=20.5 must be"),
        (lambda x: local_wavelet_periodogram_tapered(x, True, 16, 2), "zT=True must be"),
        (lambda x: local_wavelet_periodogram_tapered(x, 20, 16.0, 2), "window length N=16.0 must be"),
        (lambda x: raw_wavelet_periodogram(x, 2.5), "max_scale=2.5 must be"),
        (lambda x: smooth_and_correct(raw_wavelet_periodogram(x, 3), 1.5), "span=1.5 must be"),
        (lambda x: _lacv_of(x, 2.5), "max_lag=2.5 must be"),
        (lambda x: _lacv_of(x, True), "max_lag=True must be"),
    ],
)
def test_spectral_stages_refuse_integer_arguments_that_are_not_integers(call, needle):
    # a float zT raised IndexError, N=16.0 went on, and a float max_lag read
    # lags 0..3 for 2.5
    x = np.random.default_rng(3).standard_normal(64)
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}"):
        call(x)

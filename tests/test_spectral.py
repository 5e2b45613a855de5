"""Non-decimated transform, local periodograms, correction, local autocovariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpacf import (
    BoundaryError,
    EPANECHNIKOV,
    EwsGrid,
    InvalidArgumentError,
    RECTANGULAR,
    TimeSeries,
    a_matrix,
    haar_coefficients,
    integrated_periodogram,
    local_autocovariance,
    local_wavelet_periodogram_tapered,
    nondecimated_haar_transform,
    raw_wavelet_periodogram,
    smooth_and_correct,
)


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
    padded, _ = TimeSeries(x).pad_to_dyadic()
    max_scale = data.draw(st.integers(1, int(np.log2(padded.T))))
    d = nondecimated_haar_transform(x, max_scale, pad=True)
    ref = direct_haar_transform(padded.values, max_scale)[:, :T]
    assert np.abs(d - ref).max() <= 1e-12 * np.linalg.norm(x)


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
    # both ends (period 2(T-1), so a span >= T reflects more than once),
    # then A^{-1}
    span = data.draw(st.integers(0, 3 * T + 1), label="span")
    raw = np.random.default_rng(seed).random((J, T))
    period = 2 * (T - 1)
    sm = np.empty_like(raw)
    for k in range(T):
        idx = np.arange(k - span, k + span + 1) % period
        sm[:, k] = raw[:, np.where(idx > T - 1, period - idx, idx)].mean(axis=1)
    ref = np.linalg.solve(a_matrix(J), sm)
    got = smooth_and_correct(raw, span=span).spectrum
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    ews = EwsGrid(spectrum, 0, 0)
    lacv = local_autocovariance(ews, 3)
    assert lacv.values[0, 0] == pytest.approx(1.0)
    assert lacv.values[1, 0] == pytest.approx(-0.5)  # Psi_1(1)
    # negative lags by symmetry through the accessor
    assert lacv.at(0, -1) == lacv.at(0, 1)
    # lag-0 synthesis is the scale sum
    spectrum2 = np.random.default_rng(6).random((3, T))
    lacv2 = local_autocovariance(EwsGrid(spectrum2, 0, 0), 2)
    assert np.allclose(lacv2.values[0], spectrum2.sum(axis=0), atol=1e-12)
    # all-zero spectrum synthesizes to zero
    lacv3 = local_autocovariance(EwsGrid(np.zeros((3, T)), 0, 0), 2)
    assert np.all(lacv3.values == 0.0)


def test_negative_spectrum_cells_are_floored_and_counted():
    spectrum = np.vstack([np.full(8, -1.0), np.ones((1, 8))])
    lacv = local_autocovariance(EwsGrid(spectrum, 0, 8), 1)
    assert lacv.floored_cells == 8
    assert np.allclose(lacv.values[0], 1.0)  # only the positive scale remains

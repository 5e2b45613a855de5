"""Haar wavelet layer: coefficients, cross-correlations, core function, A matrix."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpacf import (
    InvalidArgumentError,
    a_matrix,
    haar_coefficients,
    haar_value,
    i_windowed,
    i_windowed_support,
    lemma_bound_thresholds,
    omega_core,
    psi_auto,
    psi_cross_bruteforce,
    psi_cross_closed,
)
from locpacf.haar import _a_matrix

SQ2 = 2.0**-0.5


def test_haar_coefficients_values():
    assert np.allclose(haar_coefficients(1), [SQ2, -SQ2])
    w2 = haar_coefficients(2)
    assert w2[3] == -0.5
    assert np.allclose(w2, [0.5, 0.5, -0.5, -0.5])


@pytest.mark.parametrize("j", range(1, 11))
def test_haar_sum_and_energy(j):
    w = haar_coefficients(j)
    assert len(w) == 2**j
    assert abs(w.sum()) < 1e-14
    assert abs((w**2).sum() - 1.0) < 1e-12


def test_haar_value_outside_support_is_zero():
    assert haar_value(3, 8) == 0.0
    assert haar_value(3, -1) == 0.0
    assert np.all(haar_value(2, np.array([4, 5, -2])) == 0.0)


def test_haar_scale_validation():
    with pytest.raises(InvalidArgumentError):
        haar_coefficients(0)
    with pytest.raises(InvalidArgumentError):
        haar_coefficients(31)


@pytest.mark.parametrize(
    "call",
    [haar_coefficients, lambda j: psi_auto(j, 0), lambda j: haar_value(j, 1)],
    ids=["haar_coefficients", "psi_auto", "haar_value"],
)
@pytest.mark.parametrize("j", [2.7, 1.5, 3.0, True, np.float64(2.0), np.bool_(True)])
def test_haar_scale_must_be_an_integer(call, j):
    # a float scale was truncated, and a bool taken for 0 or 1
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        call(j)


def test_haar_scale_may_be_a_numpy_integer():
    j = np.int64(3)
    assert haar_coefficients(j).tobytes() == haar_coefficients(3).tobytes()
    assert psi_auto(j, 2) == psi_auto(3, 2)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: omega_core(1.5, 0.3), "order i=1.5 must be an integer"),
        (lambda: omega_core(True, 0.3), "order i=True must be an integer"),
        (lambda: omega_core(31, 0.3), "order i=31 outside [0, 30]"),
        (lambda: psi_cross_bruteforce(2, 3, 1.5), "lag tau=1.5 must be an integer"),
        (lambda: psi_cross_bruteforce(2, 3, True), "lag tau=True must be an integer"),
        (lambda: psi_cross_closed(2, 3, 1.5), "lag tau=1.5 must be an integer"),
        (lambda: psi_cross_closed(2, 3, np.float64(-2.0)), "lag tau=-2.0 must be an integer"),
        (lambda: i_windowed(8, 3.5, 2, 2, 1), "zT=3.5 must be an integer"),
        (lambda: i_windowed(8, 3, 2, 2, 1.5), "k=1.5 must be an integer"),
        (lambda: i_windowed(8, 3, 2, 2, False), "k=False must be an integer"),
        (lambda: i_windowed(8.0, 3, 2, 2, 1), "N=8.0 must be a positive even integer"),
        (lambda: i_windowed_support(8, 3.5, 2), "zT=3.5 must be an integer"),
        (lambda: i_windowed_support(8, 3, 2.5), "scale l=2.5 must be an integer"),
        (lambda: i_windowed_support(7, 3, 2), "N=7 must be a positive even integer"),
        (lambda: lemma_bound_thresholds(8.0, 3, 2), "N=8.0 must be a positive even integer"),
        (lambda: lemma_bound_thresholds(8, True, 2), "zT=True must be an integer"),
        (lambda: lemma_bound_thresholds(8, 3, 1.0), "scale l=1.0 must be an integer"),
        (lambda: haar_value(2, 1.5), "positions k must be integers, not dtype float64"),
        (lambda: haar_value(2, [0.5, True]), "positions k must be integers, not dtype float64"),
        (lambda: haar_value(2, True), "positions k must be integers, not dtype bool"),
        (lambda: haar_value(2, np.nan), "positions k must be integers, not dtype float64"),
        (lambda: psi_auto(2, 1.5), "lags tau must be integers, not dtype float64"),
        (lambda: psi_auto(2, True), "lags tau must be integers, not dtype bool"),
        (lambda: psi_auto(2, np.nan), "lags tau must be integers, not dtype float64"),
        (lambda: psi_auto(2, np.array([1.0, 2.0])), "lags tau must be integers, not dtype float64"),
        (lambda: haar_value(2, [1, True]), "positions k must be integers, not bools"),
        (lambda: haar_value(2, [[1], [np.bool_(True)]]), "positions k must be integers, not bools"),
        (lambda: psi_auto(2, [0, True]), "lags tau must be integers, not bools"),
        (lambda: psi_auto(2, (0, np.bool_(True))), "lags tau must be integers, not bools"),
    ],
)
def test_haar_helpers_refuse_orders_lags_and_times_that_are_not_integers(call, needle):
    # each was truncated, or went on with a fractional or float result, or
    # raised TypeError
    with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
        call()


def test_haar_helpers_take_numpy_integer_lags_and_times():
    i = np.int64
    assert omega_core(i(1), 0.3) == omega_core(1, 0.3)
    assert psi_cross_bruteforce(2, 3, i(-2)) == psi_cross_bruteforce(2, 3, -2)
    assert psi_cross_closed(2, 3, i(-2)) == psi_cross_closed(2, 3, -2)
    assert i_windowed(i(8), i(3), 2, 2, i(1)) == i_windowed(8, 3, 2, 2, 1)
    assert i_windowed_support(i(8), i(3), i(2)) == i_windowed_support(8, 3, 2) == (0, 10)
    assert lemma_bound_thresholds(i(8), i(3), i(2)) == lemma_bound_thresholds(8, 3, 2) == (8, 10)
    assert haar_value(2, np.array([1, 3], np.uint8)).tolist() == [0.5, -0.5]
    assert psi_auto(2, i(1)) == psi_auto(2, 1) == 0.25
    assert haar_value(3, 2**70) == psi_auto(3, -(2**70)) == 0.0  # beyond int64
    assert haar_value(2, []).size == psi_auto(2, []).size == 0


def test_psi_cross_bruteforce_examples():
    # j=l, tau=0 is the energy
    assert psi_cross_bruteforce(3, 3, 0) == pytest.approx(1.0, abs=1e-15)
    # direct summation over k in {1,2} of psi_{2,k} psi_{1,k-1}
    assert psi_cross_bruteforce(2, 1, -1) == pytest.approx(SQ2, abs=1e-15)
    # single term psi_{2,0} psi_{1,1}
    assert psi_cross_bruteforce(2, 1, 1) == pytest.approx(-(2.0**-1.5), abs=1e-15)


def test_psi_auto_values():
    assert psi_auto(1, 0) == 1.0
    assert psi_auto(1, 1) == -0.5  # Psi_H(1/2) = 1 - 3/2
    assert psi_auto(3, 8) == 0.0
    # matches the j = l brute force everywhere
    for j in range(1, 7):
        for tau in range(-(2**j) - 2, 2**j + 3):
            assert psi_auto(j, tau) == pytest.approx(
                psi_cross_bruteforce(j, j, tau), abs=1e-13
            )


def test_psi_cross_closed_examples():
    assert psi_cross_closed(2, 1, -1) == pytest.approx(SQ2, abs=1e-15)
    assert psi_cross_closed(1, 2, 1) == pytest.approx(SQ2, abs=1e-15)
    for tau in range(6, 12):
        assert psi_cross_closed(2, 1, tau) == 0.0
    with pytest.raises(InvalidArgumentError):
        psi_cross_closed(2, 2, 0)


def test_psi_cross_closed_bits_are_pinned():
    # verify's grid, j != l in 1..8 and tau over both supports plus 2 (7 420
    # values), hashed bit for bit, signed zeros included: the l > j half comes
    # from the l < j form by symmetry, and the tolerance check would not see a
    # change in the last bit
    digest = hashlib.sha256()
    for j in range(1, 9):
        for l in range(1, 9):
            if j != l:
                for tau in range(-(1 << l) - 2, (1 << j) + 3):
                    digest.update(struct.pack("<d", psi_cross_closed(j, l, tau)))
    assert digest.hexdigest() == (
        "ff37e067765443355c744206d4919f93f3036ec6d900f0fba35d3a778c799383"
    )


def test_psi_cross_closed_bits_are_pinned_at_deep_scales():
    # every j != l in 1..30 (23 490 values): each breakpoint of the piecewise
    # form and the lags 1 on either side of it.  With c the coarser and f the
    # finer scale, the form in t has its breakpoints at -N_f, -N_f/2, 0,
    # N_c/2 - N_f, N_c/2 - N_f/2, N_c/2, N_c - N_f, N_c - N_f/2 and N_c;
    # t = -tau for l < j and t = tau for l > j, hashed with signed zeros
    digest = hashlib.sha256()
    for j in range(1, 31):
        for l in range(1, 31):
            if j == l:
                continue
            nc, nf = 1 << max(j, l), 1 << min(j, l)
            breaks = (-nf, -nf // 2, 0, nc // 2 - nf, nc // 2 - nf // 2, nc // 2,
                      nc - nf, nc - nf // 2, nc)
            for b in breaks:
                for t in (b - 1, b, b + 1):
                    tau = -t if l < j else t
                    digest.update(struct.pack("<d", psi_cross_closed(j, l, tau)))
    assert digest.hexdigest() == (
        "8db566a4d6fb568fa70adff111c82aab45d093039ebea302b53105643e37a1cd"
    )


def test_closed_equals_bruteforce_full_grid(verify_run):
    # j != l in 1..8, tau over both supports plus 2, within CLOSED_FORM_TOL = 1e-12
    res = verify_run.check("closed form vs brute force")
    assert res.passed, res.detail


@settings(max_examples=200, deadline=None)
@given(
    j=st.integers(1, 8),
    l=st.integers(1, 8),
    tau=st.integers(-300, 300),
)
def test_symmetry_property(j, l, tau):
    assert psi_cross_bruteforce(j, l, tau) == psi_cross_bruteforce(l, j, -tau)


def test_omega_examples():
    assert omega_core(1, 2.0) == 0.0
    assert omega_core(1, -0.75) == pytest.approx(-SQ2 / 4, abs=1e-15)
    assert omega_core(2, 0.0) == 0.0


def test_omega_zero_order_is_continuous_autocorrelation():
    # Omega_0(u) = Psi_H(u); cross-check against numerical quadrature of
    # int psi_H(x) psi_H(x-u) dx on an oversampled grid
    xs = np.linspace(-2, 3, 50001)
    dx = xs[1] - xs[0]

    def psi_h(x):
        return np.where((x >= 0) & (x < 0.5), -1.0, np.where((x >= 0.5) & (x < 1), 1.0, 0.0))

    for u in (-0.75, -0.4, -0.25, 0.2, 0.5, 0.8):
        ref = float(np.sum(psi_h(xs) * psi_h(xs - u)) * dx)
        assert omega_core(0, u) == pytest.approx(ref, abs=2e-4)


def test_omega_one_matches_scaled_quadrature():
    # Omega_1(u) = int psi_1(x) psi(x-u) dx with psi_1(x) = 2^{-1/2} psi(x/2)
    xs = np.linspace(-2, 4, 60001)
    dx = xs[1] - xs[0]

    def psi_h(x):
        return np.where((x >= 0) & (x < 0.5), -1.0, np.where((x >= 0.5) & (x < 1), 1.0, 0.0))

    for u in (-0.75, -0.3, 0.4, 0.9, 1.4, 1.9):
        ref = float(np.sum(SQ2 * psi_h(xs / 2) * psi_h(xs - u)) * dx)
        assert omega_core(1, u) == pytest.approx(ref, abs=2e-4)


def test_omega_consistency_with_closed_form():
    for l in range(1, 8):
        for j in range(l + 1, 9):
            for tau in range(-(2**l) - 2, 2**j + 3):
                assert psi_cross_closed(j, l, tau) == pytest.approx(
                    omega_core(j - l, 2.0 ** (-l) * (-tau)), abs=1e-13
                )


def test_a_matrix_values():
    assert a_matrix(1)[0, 0] == pytest.approx(1.5, abs=1e-14)
    A = a_matrix(2)
    assert A[1, 1] == pytest.approx(1.75, abs=1e-14)
    assert A[0, 1] == A[1, 0]
    assert A[0, 1] == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("J", [1, 3, 6, 8])
def test_a_matrix_diagonal_identity_and_invertibility(J):
    A = a_matrix(J)
    for l in range(1, J + 1):
        assert A[l - 1, l - 1] == pytest.approx(
            (2 ** (2 * l) + 5) * 2.0 ** (-l) / 3.0, abs=1e-10
        )
    assert np.all(np.linalg.eigvalsh(A) > 0)


@pytest.mark.parametrize("J", [1, 4, 9])
def test_a_matrix_is_built_once_per_scale_and_read_only(J):
    A = a_matrix(J)
    assert a_matrix(J) is A
    assert np.array_equal(A, _a_matrix.__wrapped__(J))  # a fresh, uncached build
    with pytest.raises(ValueError, match="read-only"):
        A[0, 0] = 0.0

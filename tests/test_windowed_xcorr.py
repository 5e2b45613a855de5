"""Windowed cross-scale autocorrelation wavelets and their bounds."""

import pytest

from locpacf import (
    RECTANGULAR,
    i_windowed,
    i_windowed_support,
    lemma_bound_thresholds,
    psi_cross_bruteforce,
)


def test_support_invariants():
    N, zT = 8, 16
    for j in range(1, 4):
        for l in range(1, 4):
            kmin, kmax = i_windowed_support(N, zT, l)
            assert kmin == zT - N // 2 + 1
            assert kmax == zT + N // 2 + 2**l - 1
            for k in (kmin - 1, kmin - 5, kmax + 1, kmax + 7):
                assert i_windowed(N, zT, j, l, k) == 0.0


def test_direct_summation_matches_definition():
    # independent evaluation of the defining sum, term by term
    N, zT, j, l = 8, 16, 1, 1
    k = zT - N // 2 + 2
    expected = 0.0
    for t in range(N):
        s = zT - t
        r = k - 2 * zT + N // 2 - 1
        if 0 <= s < 2**j and 0 <= s + r < 2**l:
            pj = 2.0 ** (-j / 2) * (1 if s < 2 ** (j - 1) else -1)
            pl = 2.0 ** (-l / 2) * (1 if s + r < 2 ** (l - 1) else -1)
            expected += pj * pl
    assert i_windowed(N, zT, j, l, k) == pytest.approx(expected, abs=1e-15)
    # a window that genuinely overlaps the supports gives nonzero values
    total = sum(
        abs(i_windowed(16, 8, 2, 1, k)) for k in range(*i_windowed_support(16, 8, 1))
    )
    assert total > 0.0


def test_covering_window_reduces_to_full_cross_correlation():
    N, zT = 64, 31  # window [-32, 31] covers supports of scales <= 5
    for j in range(1, 5):
        for l in range(1, 5):
            kmin, kmax = i_windowed_support(N, zT, l)
            for k in range(kmin, kmax + 1):
                ref = psi_cross_bruteforce(j, l, k - 2 * zT + N // 2 - 1)
                assert i_windowed(N, zT, j, l, k, RECTANGULAR) == pytest.approx(
                    ref, abs=1e-14
                )


def test_kernel_weighting_changes_values():
    from locpacf import EPANECHNIKOV

    N, zT, j, l = 16, 8, 2, 1
    diffs = [
        abs(i_windowed(N, zT, j, l, k, EPANECHNIKOV) - i_windowed(N, zT, j, l, k))
        for k in range(*i_windowed_support(N, zT, l))
    ]
    assert max(diffs) > 0.0


def test_lemma_thresholds():
    b1, b2 = lemma_bound_thresholds(16, 100, 3)
    assert b1 == 100 + 8 + 1
    assert b2 == 100 + 8 + 8 - 1


# The lemma 1 and lemma 2 grids run once, in the shared ``locpacf verify`` run.


def test_lemma1_bounds_on_stated_grid(verify_run):
    res = verify_run.check("windowed-wavelet bounds (stated grid)")
    assert res.passed, res.detail


def test_lemma1_bounds_on_overlapping_grid(verify_run):
    res = verify_run.check("windowed-wavelet bounds (overlapping windows)")
    assert res.passed, res.detail


def test_windowed_equals_psi_check(verify_run):
    res = verify_run.check("windowed equals full cross-correlation when covering")
    assert res.passed, res.detail


def test_energy_growth_bounded(verify_run):
    res = verify_run.check("windowed-wavelet energy growth")
    assert res.passed, res.detail

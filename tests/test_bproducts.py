"""B-product closed forms against brute-force summation."""

from collections import Counter

import pytest

from locpacf import b_product

GRID = [(l, j, i) for l in range(1, 9) for j in range(1, 9) for i in range(j, 9)]


@pytest.fixture(scope="module")
def brute_table():
    return {(l, j, i): b_product(l, j, i, "bruteforce").value for (l, j, i) in GRID}


def test_examples():
    # both scales above l, equal: 2^{-j}(2^{2l-1}+1)
    assert b_product(1, 2, 2).value == pytest.approx(0.75, abs=1e-14)
    # all equal: (1/3) 2^{-l} (2^{2l}+5)
    for l in (1, 2, 3):
        assert b_product(l, l, l).value == pytest.approx(
            (2 ** (2 * l) + 5) * 2.0 ** (-l) / 3.0, abs=1e-13
        )
    # well-separated scales above l match brute force
    got = b_product(2, 3, 4)
    assert got.kind == "exact"
    assert got.value == pytest.approx(b_product(2, 3, 4, "bruteforce").value, abs=1e-12)


def test_symmetry_in_upper_scales(brute_table):
    for l in range(1, 9):
        for j in range(1, 9):
            for i in range(j, 9):
                swapped = b_product(l, i, j, "bruteforce").value
                assert swapped == pytest.approx(brute_table[(l, j, i)], abs=1e-12)


# The closed forms are compared with brute force on GRID once, by the
# "B-product closed forms" and "B-product overall bound" checks of the shared
# ``locpacf verify`` run; the tests below also count the closed-form cases,
# so that no kind of case can drop out of that comparison unnoticed.


def _closed_kinds():
    return Counter(b_product(l, j, i).kind for (l, j, i) in GRID)


def test_exact_cases_match_bruteforce(verify_run):
    res = verify_run.check("B-product closed forms")
    assert res.passed, res.detail
    assert _closed_kinds()["exact"] > 100


def test_approx_cases_within_published_envelope(verify_run):
    # one scale equals l, the other c > l: the closed value is the stated
    # large-scale approximation with |error| <= 5 * 2^{-l} * 2^{-(c-l)/2}
    res = verify_run.check("B-product closed forms")
    assert res.passed, res.detail
    assert _closed_kinds()["approx"] > 0


def test_bound_cases_hold(verify_run):
    res = verify_run.check("B-product closed forms")
    assert res.passed, res.detail
    assert _closed_kinds()["bound"] > 0


def test_overall_bound_single_constant(verify_run):
    res = verify_run.check("B-product overall bound")  # measured K = 0.75 on GRID
    assert res.passed, res.detail


def test_part_c_sandwich_case(brute_table):
    # i < l < j with j - l > 1: third Part A case does not apply; value is
    # 2^{-j/2} 2^{3i/2} (2 - 2^{i-l}) / 8
    got = b_product(2, 4, 1)
    assert got.kind == "exact"
    assert got.value == pytest.approx(brute_table[(2, 1, 4)], abs=1e-12)

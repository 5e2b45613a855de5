"""Self-contained verification suites for the deterministic wavelet layer.

Each check returns a (name, passed, detail) triple; ``run_all`` collects
them.  The CLI's ``verify`` subcommand prints one line per check and exits
nonzero if any fails.  These suites intentionally re-derive everything
they assert (brute-force summation, quadrature), independent of the
closed forms they test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .haar import (
    a_matrix,
    b_product,
    haar_coefficients,
    i_windowed,
    i_windowed_support,
    lemma_bound_thresholds,
    omega_core,
    psi_auto,
    psi_cross_bruteforce,
    psi_cross_closed,
)

__all__ = ["CheckResult", "cos_ratio_integral", "run_all"]

CLOSED_FORM_TOL = 1e-12
B_PRODUCT_TOL = 1e-10
INTEGRAL_TOL = 1e-6
OVERALL_B_CONSTANT = 1.0
LEMMA2_CONSTANT = 8.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def cos_ratio_integral(a: float, b: float) -> float:
    """Gauss-Legendre quadrature of the trigonometric ratio integral

    int_{-pi}^{pi} (1-cos(2a w))(1-cos(2b w)) / (1-cos(w)) dw.

    A fixed rule of n = max(64, ceil(4(a+b))) nodes per half, on [-pi, 0]
    and on [0, pi]; the integrand is even, so the two halves are one sum,
    counted twice.  w = 0 is an endpoint, never a node, so the removable
    singularity is never evaluated.  Closed value: 4*pi*min(a, b); the rule
    agrees with it to a relative 1e-10 for every 2a, 2b in 1..128.
    """
    x, wts = np.polynomial.legendre.leggauss(max(64, math.ceil(4 * (a + b))))
    w = np.pi / 2 * (x + 1)  # the nodes on (0, pi)
    f = (1 - np.cos(2 * a * w)) * (1 - np.cos(2 * b * w)) / (1 - np.cos(w))
    return float(np.pi * (wts @ f))


def check_haar_basics(max_scale: int = 10) -> CheckResult:
    worst = 0.0
    for j in range(1, max_scale + 1):
        w = haar_coefficients(j)
        worst = max(worst, abs(float(np.sum(w))), abs(float(np.sum(w * w)) - 1.0))
    ok = worst < 1e-12
    return CheckResult("haar sum/energy", ok, f"max deviation {worst:.2e}")


def check_closed_vs_brute(max_scale: int = 8) -> CheckResult:
    worst = 0.0
    for j in range(1, max_scale + 1):
        for l in range(1, max_scale + 1):
            if j == l:
                continue
            for tau in range(-(1 << l) - 2, (1 << j) + 3):
                diff = abs(psi_cross_closed(j, l, tau) - psi_cross_bruteforce(j, l, tau))
                worst = max(worst, diff)
    return CheckResult(
        "closed form vs brute force", worst <= CLOSED_FORM_TOL, f"max |diff| {worst:.2e}"
    )


def check_symmetry(max_scale: int = 8) -> CheckResult:
    for j in range(1, max_scale + 1):
        for l in range(1, max_scale + 1):
            for tau in range(-(1 << max(j, l)), (1 << max(j, l)) + 1):
                if psi_cross_bruteforce(j, l, tau) != psi_cross_bruteforce(l, j, -tau):
                    return CheckResult(
                        "cross-correlation symmetry", False, f"fails at {(j, l, tau)}"
                    )
    return CheckResult("cross-correlation symmetry", True, "exact over grid")


def check_omega_consistency(max_scale: int = 8) -> CheckResult:
    worst = 0.0
    for l in range(1, max_scale):
        for j in range(l + 1, max_scale + 1):
            for tau in range(-(1 << l) - 2, (1 << j) + 3):
                core = omega_core(j - l, 2.0 ** (-l) * (-tau))
                worst = max(worst, abs(core - psi_cross_closed(j, l, tau)))
    return CheckResult(
        "core-function consistency", worst <= CLOSED_FORM_TOL, f"max |diff| {worst:.2e}"
    )


def check_psi_auto_matches_brute(max_scale: int = 8) -> CheckResult:
    worst = 0.0
    for j in range(1, max_scale + 1):
        for tau in range(-(1 << j) - 2, (1 << j) + 3):
            worst = max(worst, abs(psi_auto(j, tau) - psi_cross_bruteforce(j, j, tau)))
    return CheckResult(
        "autocorrelation wavelet vs brute force",
        worst <= CLOSED_FORM_TOL,
        f"max |diff| {worst:.2e}",
    )


def check_a_matrix(J: int = 8) -> CheckResult:
    A = a_matrix(J)
    sym = float(np.max(np.abs(A - A.T)))
    diag = max(
        abs(A[l - 1, l - 1] - (2 ** (2 * l) + 5) * 2.0 ** (-l) / 3.0)
        for l in range(1, J + 1)
    )
    posdef = bool(np.all(np.linalg.eigvalsh(A) > 0))
    ok = sym == 0.0 and diag <= 1e-10 and posdef
    return CheckResult(
        "A-matrix symmetry/diagonal/positive-definite",
        ok,
        f"sym {sym:.1e}, diag dev {diag:.2e}, posdef {posdef}",
    )


def check_b_products(max_scale: int = 8) -> CheckResult:
    worst_exact = 0.0
    worst_env = 0.0
    for l in range(1, max_scale + 1):
        for j in range(1, max_scale + 1):
            for i in range(j, max_scale + 1):
                brute = b_product(l, j, i, "bruteforce").value
                closed = b_product(l, j, i, "closed")
                if closed.kind == "exact":
                    worst_exact = max(worst_exact, abs(brute - closed.value))
                elif closed.kind == "approx":
                    c = max(i, j)
                    envelope = 5.0 * 2.0 ** (-l) * 2.0 ** (-(c - l) / 2)
                    worst_env = max(worst_env, abs(brute - closed.value) - envelope)
                else:
                    if brute > closed.value + B_PRODUCT_TOL:
                        return CheckResult(
                            "B-product closed forms", False, f"bound violated at {(l, j, i)}"
                        )
    ok = worst_exact <= B_PRODUCT_TOL and worst_env <= 0.0
    return CheckResult(
        "B-product closed forms",
        ok,
        f"exact max |diff| {worst_exact:.2e}; approx within envelope: {worst_env <= 0}",
    )


def check_b_overall_bound(max_scale: int = 8) -> CheckResult:
    worst = 0.0
    for l in range(1, max_scale + 1):
        for j in range(1, max_scale + 1):
            for i in range(j, max_scale + 1):
                brute = b_product(l, j, i, "bruteforce").value
                worst = max(worst, brute / (2.0 ** (-(j + i) / 2) * 2.0 ** (2 * l)))
    return CheckResult(
        "B-product overall bound",
        worst <= OVERALL_B_CONSTANT,
        f"fitted K = {worst:.4f} <= {OVERALL_B_CONSTANT}",
    )


def check_integral_identity() -> CheckResult:
    worst = 0.0
    for ta in range(1, 17):  # 2a = ta
        for tb in range(ta, 17):
            a, b = ta / 2.0, tb / 2.0
            worst = max(worst, abs(cos_ratio_integral(a, b) - 4.0 * np.pi * min(a, b)))
    return CheckResult(
        "trigonometric ratio integral", worst <= INTEGRAL_TOL, f"max |diff| {worst:.2e}"
    )


def _lemma1_violations(N: int, zT: int, max_scale: int) -> int:
    bad = 0
    for j in range(1, max_scale + 1):
        for l in range(1, max_scale + 1):
            b1, b2 = lemma_bound_thresholds(N, zT, l)
            kmin, kmax = i_windowed_support(N, zT, l)
            for k in range(kmin - 3, kmax + 4):
                val = abs(i_windowed(N, zT, j, l, k))
                if (k < b1 and zT > (1 << j) - 2) or k > b2:
                    cap = abs(psi_auto(j, k - 2 * zT + N // 2 - 1)) if j == l else abs(
                        psi_cross_bruteforce(j, l, k - 2 * zT + N // 2 - 1)
                    )
                    if val > cap + 1e-12:
                        bad += 1
                if b1 <= k <= b2:
                    cap = 2.0 ** (-(j + l) / 2) * (min(1 << l, 1 << j) + (1 << l))
                    if val > cap + 1e-12:
                        bad += 1
                if (k < kmin or k > kmax) and val != 0.0:
                    bad += 1
    return bad


def check_lemma1_spec_grid() -> CheckResult:
    bad = 0
    for N in (8, 16, 32):
        for zT in (64, 128):
            bad += _lemma1_violations(N, zT, 5)
    return CheckResult("windowed-wavelet bounds (stated grid)", bad == 0, f"{bad} violations")


def check_lemma1_overlapping_grid() -> CheckResult:
    # windows that genuinely intersect the wavelet supports
    bad = 0
    for N in (8, 16, 32, 64):
        for zT in (4, 8, 16, 24, 31):
            bad += _lemma1_violations(N, zT, 5)
    return CheckResult(
        "windowed-wavelet bounds (overlapping windows)", bad == 0, f"{bad} violations"
    )


def check_windowed_equals_psi() -> CheckResult:
    # window covering both supports: i reduces to Psi at the shifted lag
    N, zT = 64, 31
    worst = 0.0
    for j in range(1, 5):
        for l in range(1, 5):
            kmin, kmax = i_windowed_support(N, zT, l)
            for k in range(kmin, kmax + 1):
                ref = psi_cross_bruteforce(j, l, k - 2 * zT + N // 2 - 1)
                worst = max(worst, abs(i_windowed(N, zT, j, l, k) - ref))
    return CheckResult(
        "windowed equals full cross-correlation when covering",
        worst <= 1e-12,
        f"max |diff| {worst:.2e}",
    )


def check_lemma2_growth() -> CheckResult:
    # sum_k sum_{j<=J} i^2 / 2^{2l} bounded by one constant over l = 1..6
    N, zT, J = 64, 31, 8
    worst = 0.0
    for l in range(1, 7):
        kmin, kmax = i_windowed_support(N, zT, l)
        total = 0.0
        for j in range(1, J + 1):
            for k in range(kmin, kmax + 1):
                total += i_windowed(N, zT, j, l, k) ** 2
        worst = max(worst, total / 2.0 ** (2 * l))
    return CheckResult(
        "windowed-wavelet energy growth",
        worst <= LEMMA2_CONSTANT,
        f"max ratio {worst:.4f} <= {LEMMA2_CONSTANT}",
    )


def run_all() -> list[CheckResult]:
    return [
        check_haar_basics(),
        check_closed_vs_brute(),
        check_symmetry(),
        check_omega_consistency(),
        check_psi_auto_matches_brute(),
        check_a_matrix(),
        check_b_products(),
        check_b_overall_bound(),
        check_integral_identity(),
        check_lemma1_spec_grid(),
        check_lemma1_overlapping_grid(),
        check_windowed_equals_psi(),
        check_lemma2_growth(),
    ]

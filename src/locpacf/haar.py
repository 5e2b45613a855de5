"""Discrete non-decimated Haar wavelets and derived deterministic objects.

The canonical cross-scale autocorrelation wavelet here is the discrete sum
Psi_{j,l}(tau) = sum_k psi_{j,k} psi_{l,k+tau}.  Its one closed form, for
l < j, is the core function Omega_{j-l}(u) of the continuous convolution
read at the reflected, rescaled lag u = -tau/2^l; ``psi_cross_closed``
evaluates exactly that.  The case l > j follows from the symmetry
Psi_{j,l}(tau) = Psi_{l,j}(-tau), giving Omega_{l-j}(tau/2^j).  The
continuous mother wavelet is -1 then +1 while the discrete sequence is +
then -; products of two wavelets are unaffected, so no further correction
is needed.

All sums over "infinite" lag ranges are computed exactly over the finite
supports (N_j = 2^j); no truncation tolerance exists anywhere in this
module.  Everything is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, _check_int, _holds_bool, _is_int
from .kernels import RECTANGULAR, TaperKernel

__all__ = [
    "haar_coefficients",
    "haar_value",
    "psi_auto",
    "psi_cross_bruteforce",
    "psi_cross_closed",
    "omega_core",
    "i_windowed",
    "i_windowed_support",
    "lemma_bound_thresholds",
    "a_matrix",
    "b_product",
    "BProduct",
]

MAX_SCALE = 30


def _check_scale(j: int, name: str = "j", limit: int = MAX_SCALE) -> int:
    """j as an int if it is an integer (``_is_int``) in [1, limit]."""
    return _check_int(j, f"scale {name}={j}", 1, limit, f"outside [1, {limit}]")


def haar_coefficients(j: int) -> np.ndarray:
    """Discrete Haar wavelet psi_{j,.} of length N_j = 2^j.

    psi_{j,k} = +2^{-j/2} for 0 <= k < 2^{j-1}, -2^{-j/2} for
    2^{j-1} <= k < 2^j.  Memory grows as 2^j; prefer :func:`haar_value`
    for pointwise evaluation at deep scales.
    """
    j = _check_scale(j)
    return haar_value(j, np.arange(1 << j))


def _check_ints(values, what: str) -> np.ndarray:
    """values as an array if it is an integer (``_is_int``), an array of
    integer dtype or empty; a float, bool or NaN is refused, also a bool
    inside a list (``_holds_bool``)."""
    a = np.asarray(values)
    if not (a.dtype.kind in "iu" or a.size == 0 or _is_int(values)):
        raise InvalidArgumentError(f"{what} must be integers, not dtype {a.dtype}")
    if _holds_bool(values):
        raise InvalidArgumentError(f"{what} must be integers, not bools")
    return a


def haar_value(j: int, k) -> np.ndarray:
    """psi_{j,k} evaluated pointwise (0 outside the support [0, 2^j)) at
    integer positions k."""
    j = _check_scale(j)
    k = _check_ints(k, "positions k")
    half, full = 1 << (j - 1), 1 << j
    amp = 2.0 ** (-j / 2)
    return np.where(
        (k >= 0) & (k < half), amp, np.where((k >= half) & (k < full), -amp, 0.0)
    )


def psi_auto(j: int, tau) -> np.ndarray | float:
    """Regular Haar autocorrelation wavelet Psi_j(tau) = Psi_H(2^{-j}|tau|).

    Psi_H(u) is 1 - 3|u| on |u| <= 1/2 and |u| - 1 on 1/2 < |u| <= 1, and
    tau is an integer lag or an array of them.
    """
    j = _check_scale(j)
    u = np.abs(_check_ints(tau, "lags tau").astype(float)) * 2.0 ** (-j)
    val = np.where(u <= 0.5, 1.0 - 3.0 * u, np.where(u <= 1.0, u - 1.0, 0.0))
    return float(val) if val.ndim == 0 else val


def psi_cross_bruteforce(j: int, l: int, tau: int) -> float:
    """Psi_{j,l}(tau) = sum_k psi_{j,k} psi_{l,k+tau} by exact summation."""
    j = _check_scale(j, "j")
    l = _check_scale(l, "l")
    tau = _check_int(tau, f"lag tau={tau}")
    lo = max(0, -tau)
    hi = min(1 << j, (1 << l) - tau)
    if hi <= lo:
        return 0.0
    k = np.arange(lo, hi)
    return float(np.sum(haar_value(j, k) * haar_value(l, k + tau)))


def omega_core(i: int, u: float) -> float:
    """Core function Omega_i(u); Omega_0(u) = Psi_H(u).

    Six linear pieces with prefactor 2^{-i/2}, on the half-open intervals
    [-1, -1/2), [-1/2, 0), [2^{i-1} - 1, 2^{i-1} - 1/2), [2^{i-1} - 1/2,
    2^{i-1}), [2^i - 1, 2^i - 1/2) and [2^i - 1/2, 2^i), and 0 elsewhere.
    For i >= 1 the pieces do not overlap and u takes the one it lies in; at
    i = 0 the second and third pieces share [-1/2, 0), the fourth and fifth
    share [0, 1/2), and each such pair adds up to Psi_H(u).
    """
    i = _check_int(i, f"order i={i}", 0, MAX_SCALE, f"outside [0, {MAX_SCALE}]")
    u = float(u)
    half = 2.0 ** (i - 1)
    full = 2.0**i
    pieces = (
        (-1.0, -0.5, -(u + 1.0)),
        (-0.5, 0.0, u),
        (half - 1.0, half - 0.5, 2.0 * u - full + 2.0),
        (half - 0.5, half, full - 2.0 * u),
        (full - 1.0, full - 0.5, full - u - 1.0),
        (full - 0.5, full, u - full),
    )
    # u lies in at most one piece, or in two at i = 0, whose values add
    values = [v for a, b, v in pieces if a <= u < b]
    return 2.0 ** (-i / 2) * (sum(values[1:], values[0]) if values else 0.0)


def psi_cross_closed(j: int, l: int, tau: int) -> float:
    """Closed-form Psi_{j,l}(tau) in the discrete lag convention.

    For l < j it is the core function Omega_{j-l}(-tau/2^l); for l > j the
    symmetry Psi_{j,l}(tau) = Psi_{l,j}(-tau) makes it Omega_{l-j}(tau/2^j)
    (see module docstring).  Requires j != l; use :func:`psi_auto` for j = l.
    """
    j = _check_scale(j, "j")
    l = _check_scale(l, "l")
    if j == l:
        raise InvalidArgumentError("psi_cross_closed requires j != l; use psi_auto")
    tau = _check_int(tau, f"lag tau={tau}")
    if l < j:
        return omega_core(j - l, 2.0 ** (-l) * -tau)
    return omega_core(l - j, 2.0 ** (-j) * tau)


def _check_window(N: int, zT: int) -> tuple[int, int]:
    """N and zT as ints if N is a positive even integer and zT an integer."""
    if not _is_int(N) or N <= 0 or N % 2:
        raise InvalidArgumentError(f"window length N={N} must be a positive even integer")
    return int(N), _check_int(zT, f"zT={zT}")


def i_windowed_support(N: int, zT: int, l: int) -> tuple[int, int]:
    """Smallest and largest k with possibly nonzero i_{N,z}(., l, k)."""
    N, zT = _check_window(N, zT)
    return zT - N // 2 + 1, zT + N // 2 + (1 << _check_scale(l, "l")) - 1


def lemma_bound_thresholds(N: int, zT: int, l: int) -> tuple[int, int]:
    """Thresholds b1 = zT + N/2 + 1 and b2 = zT + N/2 + N_l - 1."""
    N, zT = _check_window(N, zT)
    return zT + N // 2 + 1, zT + N // 2 + (1 << _check_scale(l, "l")) - 1


def i_windowed(
    N: int,
    zT: int,
    j: int,
    l: int,
    k: int,
    kernel: TaperKernel = RECTANGULAR,
) -> float:
    """Windowed cross-scale autocorrelation wavelet i_{N,z}(j, l, k).

    Direct evaluation of
    sum_{s=zT-N+1}^{zT} psi_{j,s} psi_{l,s+k-2*zT+N/2-1} h((zT-s)/N)
    over the window of N positions ending at zT.
    """
    N, zT = _check_window(N, zT)
    j = _check_scale(j, "j")
    l = _check_scale(l, "l")
    k = _check_int(k, f"k={k}")
    r = k - 2 * zT + N // 2 - 1
    lo = max(zT - N + 1, 0, -r)
    hi = min(zT, (1 << j) - 1, (1 << l) - 1 - r)
    if hi < lo:
        return 0.0
    s = np.arange(lo, hi + 1)
    w = kernel.h((zT - s) / N)
    return float(np.sum(haar_value(j, s) * haar_value(l, s + r) * w))


def a_matrix(J: int) -> np.ndarray:
    """Gram matrix A_{j,l} = sum_tau Psi_j(tau) Psi_l(tau), J x J.

    Symmetric positive definite; diagonal entries satisfy
    A_{l,l} = (1/3) 2^{-l} (2^{2l} + 5).  Built once per J and returned
    read-only, so every caller shares that one array.
    """
    return _a_matrix(_check_scale(J, "J", limit=20))


@lru_cache(maxsize=None)  # J <= 20, so at most 20 entries
def _a_matrix(J: int) -> np.ndarray:
    A = np.zeros((J, J))
    for j in range(1, J + 1):
        for l in range(j, J + 1):
            m = 1 << max(j, l)
            taus = np.arange(-m + 1, m)
            s = float(np.sum(psi_auto(j, taus) * psi_auto(l, taus)))
            A[j - 1, l - 1] = A[l - 1, j - 1] = s
    A.setflags(write=False)
    return A


@dataclass(frozen=True)
class BProduct:
    """A B-product value plus how the closed form supports it.

    kind is "exact" when the closed form is an equality, "approx" when it
    is the stated large-scale approximation (error bounded by
    5 * 2^{-l} * 2^{-(c-l)/2}, c the non-equal scale), and "bound" when
    only an upper bound is available.
    """

    value: float
    kind: str


def _psi_xcorr_vector(j: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    # full Psi_{j,l}(tau) over its support, via one correlation
    pj, pl = haar_coefficients(j), haar_coefficients(l)
    vals = np.correlate(pl, pj, "full")
    taus = np.arange(-(len(pj) - 1), len(pl))
    return taus, vals


def b_product(l: int, j: int, i: int, method: str = "closed") -> BProduct:
    """Fourth-order absolute product B_l(j, i) = sum_p |Psi_{j,l}(p) Psi_{i,l}(p)|.

    ``method="bruteforce"`` computes the exact finite sum (cost grows with
    2^max(scale); scales are capped at 14).  ``method="closed"`` evaluates
    the applicable closed-form case; see :class:`BProduct` for how equality
    versus bound-only cases are reported.
    """
    if method not in ("closed", "bruteforce"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    limit = 14 if method == "bruteforce" else MAX_SCALE
    l = _check_scale(l, "l", limit=limit)
    j = _check_scale(j, "j", limit=limit)
    i = _check_scale(i, "i", limit=limit)

    if method == "bruteforce":
        t1, v1 = _psi_xcorr_vector(j, l)
        t2, v2 = _psi_xcorr_vector(i, l)
        lo, hi = max(t1[0], t2[0]), min(t1[-1], t2[-1])
        if hi < lo:
            return BProduct(0.0, "exact")
        a = v1[lo - t1[0] : hi - t1[0] + 1]
        b = v2[lo - t2[0] : hi - t2[0] + 1]
        return BProduct(float(np.sum(np.abs(a * b))), "exact")

    a, b = min(i, j), max(i, j)
    if a == l and b == l:
        # all indices equal: B = A_{l,l}
        return BProduct((1.0 / 3.0) * 2.0 ** (-l) * (2 ** (2 * l) + 5), "exact")
    if a > l:
        if a == b:
            return BProduct(2.0 ** (-b) * (2 ** (2 * l - 1) + 1), "exact")
        if b == a + 1:
            return BProduct(2.0 ** (-a) * (2 ** (2 * l - 1) + 1) * 2.0**-1.5, "exact")
        return BProduct(
            2.0 ** (-a / 2) * 2.0 ** (-b / 2) * (2 ** (2 * l - 1) + 1) / 6.0, "exact"
        )
    if b < l:
        if a == b:
            return BProduct(2.0 ** (-l) * (2 ** (2 * a - 1) + 1), "exact")
        return BProduct(1.5 * 2.0 ** (-l) * 2.0 ** (-b / 2) * 2.0 ** (2.5 * a - 1), "exact")
    if a < l < b:
        if b == l + 1:
            return BProduct(
                0.125 * 2.0 ** (-(l + 1) / 2) * 2.0 ** (1.5 * a) * (2.0 ** (a - l) + 2),
                "exact",
            )
        return BProduct(
            0.125 * 2.0 ** (-b / 2) * 2.0 ** (1.5 * a) * (2.0 - 2.0 ** (a - l)), "exact"
        )
    # one scale equals l
    c = b if a == l else a
    if c > l:
        # large-scale approximation, not an equality at finite l
        factor = 17.0 / 9.0 if c == l + 1 else 17.0 / 27.0
        return BProduct(2.0 ** (-(c - l) / 2) * factor * 2.0 ** (l - 3), "approx")
    return BProduct(2.0 ** (1.5 * c) * 2.0 ** (-l / 2), "bound")

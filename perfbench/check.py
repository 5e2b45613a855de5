"""Output checks behind the benchmark's failed-op count, and the reference format.

A long-format CSV (``t,z,lag,estimate,ci_lower,ci_upper,boundary_flag``)
is checked against a reference when one was recorded for the op: the rows
must match exactly in t, lag, boundary flag and both CI fields, and every
estimate must agree to within ``EST_TOL`` absolute.  An RMSE CSV must
match its reference in replicates and excluded exactly and in rmse and
stderr to within ``RMSE_RTOL`` relative.  Without a reference the
invariant checks run instead: finite estimates in [-1, 1], complete and
ordered rows, consistent CI fields and the expected row count.

References are stored as an lzma-compressed ``.npz`` per workload and
seed.  Estimates are kept as integers on a 2^-32 grid (error at most
2^-33, about 1.2e-10), delta-coded along time; everything else is exact.
"""

from __future__ import annotations

import io
import lzma
import math
from dataclasses import dataclass

import numpy as np

LONG_HEADER = "t,z,lag,estimate,ci_lower,ci_upper,boundary_flag"
RMSE_HEADER = "estimator,lag,rmse,stderr,replicates,excluded,bandwidth,elapsed_seconds"
EST_TOL = 1e-9
RMSE_RTOL = 1e-9
QUANTUM = 2.0**32


class CheckFailed(Exception):
    """An op's output disagrees with its reference or breaks an invariant."""


@dataclass(frozen=True)
class LongCsv:
    t: np.ndarray
    z: np.ndarray
    lag: np.ndarray
    est: np.ndarray
    ci_lo: np.ndarray  # NaN where the field is empty
    ci_hi: np.ndarray
    flag: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.t)


def parse_long_csv(path: str) -> LongCsv:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head, _, body = text.partition("\n")
    if head != LONG_HEADER:
        raise CheckFailed(f"{path}: header {head!r}")
    nrows = body.count("\n")
    if nrows == 0:
        raise CheckFailed(f"{path}: no rows")
    try:
        if body.count(",,,") == nrows:  # both CI fields empty on every row
            a = np.loadtxt(io.StringIO(body), delimiter=",", usecols=(0, 1, 2, 3, 6), ndmin=2)
            nan = np.full(nrows, np.nan)
            cols = (a[:, 0], a[:, 1], a[:, 2], a[:, 3], nan, nan, a[:, 4])
        else:
            a = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            cols = tuple(a[:, i] for i in range(7))
    except ValueError as exc:
        raise CheckFailed(f"{path}: unparsable rows: {exc}") from None
    if len(cols[0]) != nrows:
        raise CheckFailed(f"{path}: {len(cols[0])} parsed rows of {nrows}")
    t, z, lag, est, lo, hi, flag = cols
    return LongCsv(t.astype(np.int64), z, lag.astype(np.int64), est, lo, hi, flag.astype(np.int64))


def parse_rmse_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RMSE_HEADER:
        raise CheckFailed(f"{path}: header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 8:
            raise CheckFailed(f"{path}: bad row {line!r}")
        try:
            rows.append(
                {
                    "estimator": f[0],
                    "lag": int(f[1]),
                    "rmse": float(f[2]),
                    "stderr": float(f[3]),
                    "replicates": int(f[4]),
                    "excluded": int(f[5]),
                    "bandwidth": int(f[6]) if f[6] else None,
                }
            )
        except ValueError:
            raise CheckFailed(f"{path}: bad row {line!r}") from None
    return rows


def _lags_per_point(out: LongCsv) -> int:
    k = int(out.lag.max()) if out.rows else 0
    if k < 1 or out.rows % k:
        raise CheckFailed(f"{out.rows} rows do not split into points of {k} lags")
    return k


def check_long_invariants(out: LongCsv, T: int, points: tuple[int, int], windowed: bool) -> None:
    """Invariants of a long-format output of a series of length T whose
    point count must lie in ``points`` (inclusive)."""
    k = _lags_per_point(out)
    n = out.rows // k
    if not points[0] <= n <= points[1]:
        raise CheckFailed(f"{n} points, expected {points[0]}..{points[1]}")
    lag = out.lag.reshape(n, k)
    if np.any(lag != np.arange(1, k + 1)):
        raise CheckFailed("lags are not 1..K within every point")
    t = out.t.reshape(n, k)
    if np.any(t != t[:, :1]) or np.any(np.diff(t[:, 0]) <= 0):
        raise CheckFailed("time indices are not constant per point and increasing")
    if t[0, 0] < 0 or t[-1, 0] > T - 1:
        raise CheckFailed(f"time indices outside [0, {T - 1}]")
    if np.any(out.z != out.t / T):
        raise CheckFailed("z differs from t/T")
    if not np.all(np.isfinite(out.est)) or np.any(np.abs(out.est) > 1.0):
        raise CheckFailed("estimate not finite or outside [-1, 1]")
    if np.any((out.flag != 0) & (out.flag != 1)):
        raise CheckFailed("boundary flag not 0/1")
    if windowed:
        if not (np.all(out.ci_hi > 0.0) and np.all(out.ci_lo == -out.ci_hi)):
            raise CheckFailed("CI fields are not a positive symmetric band")
    elif not (np.all(np.isnan(out.ci_lo)) and np.all(np.isnan(out.ci_hi))):
        raise CheckFailed("CI fields present on a wavelet output")


def check_long_reference(out: LongCsv, ref: dict) -> None:
    if out.rows != len(ref["t"]):
        raise CheckFailed(f"{out.rows} rows, reference has {len(ref['t'])}")
    for key in ("t", "lag", "flag"):
        bad = np.flatnonzero(getattr(out, key) != ref[key])
        if bad.size:
            raise CheckFailed(f"{key} differs from the reference at row {bad[0]}")
    for key in ("ci_lo", "ci_hi"):
        a, b = getattr(out, key), ref[key]
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        if not np.all(same):
            raise CheckFailed(f"{key} differs from the reference at row {np.flatnonzero(~same)[0]}")
    err = np.abs(out.est - ref["est"])
    if not np.all(err <= EST_TOL):  # also catches NaN
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        raise CheckFailed(f"estimate at row {i} is {err[i]:.3g} from the reference")


def check_rmse(rows: list[dict], ref: list[dict] | None, reps: int, binwidth: int, lags: int) -> None:
    if [r["lag"] for r in rows] != list(range(1, lags + 1)):
        raise CheckFailed(f"rmse rows cover lags {[r['lag'] for r in rows]}")
    for r in rows:
        if r["estimator"] != "windowed" or r["bandwidth"] != binwidth:
            raise CheckFailed(f"row {r} is not the windowed estimator at L={binwidth}")
        if r["replicates"] + r["excluded"] != reps or r["replicates"] < 2:
            raise CheckFailed(f"replicates {r['replicates']} + excluded {r['excluded']} != {reps}")
        if not (math.isfinite(r["rmse"]) and 0.0 < r["rmse"] <= 2.0):
            raise CheckFailed(f"rmse {r['rmse']} outside (0, 2]")
        if not (math.isfinite(r["stderr"]) and r["stderr"] >= 0.0):
            raise CheckFailed(f"stderr {r['stderr']} not a nonnegative number")
    if ref is None:
        return
    for r, e in zip(rows, ref):
        for key in ("replicates", "excluded"):
            if r[key] != e[key]:
                raise CheckFailed(f"lag {r['lag']} {key} {r[key]} != reference {e[key]}")
        for key in ("rmse", "stderr"):
            if not abs(r[key] - e[key]) <= RMSE_RTOL * abs(e[key]):
                raise CheckFailed(f"lag {r['lag']} {key} {r[key]!r} != reference {e[key]!r}")


# ---------------------------------------------------------------- storage


def encode_long(out: LongCsv) -> dict:
    k = _lags_per_point(out)
    q = np.round(out.est * QUANTUM).astype(np.int64).reshape(-1, k)
    return {
        "dt": np.diff(out.t, prepend=0).astype(np.int32),
        "lag": out.lag.astype(np.int8),
        "flag": out.flag.astype(np.int8),
        "ci_lo": out.ci_lo,
        "ci_hi": out.ci_hi,
        "dq": np.diff(q, axis=0, prepend=0),
    }


def decode_long(arrs: dict) -> dict:
    return {
        "t": np.cumsum(arrs["dt"].astype(np.int64)),
        "lag": arrs["lag"].astype(np.int64),
        "flag": arrs["flag"].astype(np.int64),
        "ci_lo": arrs["ci_lo"],
        "ci_hi": arrs["ci_hi"],
        "est": np.cumsum(arrs["dq"], axis=0).reshape(-1) / QUANTUM,
    }


def save_arrays(path: str, arrays: dict) -> None:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with open(path, "wb") as fh:
        fh.write(lzma.compress(buf.getvalue(), preset=9 | lzma.PRESET_EXTREME))


def load_arrays(path: str) -> dict:
    with open(path, "rb") as fh:
        data = lzma.decompress(fh.read())
    with np.load(io.BytesIO(data), allow_pickle=False) as z:
        return {k: z[k] for k in z.files}

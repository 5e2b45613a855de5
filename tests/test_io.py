"""The chunked CSV writers and the one-pass reader against per-row references."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpacf import DataError, TimeSeries, read_series, write_series
from locpacf.estimators import LpacfGrid
from locpacf.io import _CHUNK_POINTS, _CHUNK_VALUES, LONG_HEADER, write_long_csv


def _fmt(x):
    return format(float(x), ".17g")


def reference_long_csv(path, grid, T):
    """The per-row writer the chunked one replaces: one record per (point, lag)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LONG_HEADER + "\n")
        for p, t in enumerate(grid.points):
            z = t / T
            if grid.ci_halfwidth is None:
                lo_s = hi_s = ""
            else:
                hw = grid.ci_halfwidth[p]
                lo_s, hi_s = _fmt(-hw), _fmt(hw)
            flag = int(grid.boundary[p])
            for li, lag in enumerate(grid.lags):
                fh.write(
                    f"{int(t)},{_fmt(z)},{int(lag)},{_fmt(grid.estimates[p, li])},"
                    f"{lo_s},{hi_s},{flag}\n"
                )


def reference_read_series(path):
    """The line-by-line scan the one-pass reader replaces on clean input."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            fields = [f for f in fields if f != ""]
            if not fields:
                raise DataError(f"{path}: line {lineno}, column 1: no value")
            if len(fields) > 1:
                raise DataError(
                    f"{path}: line {lineno}, column 2: expected a single column, "
                    f"found {len(fields)}"
                )
            token = fields[0]
            try:
                val = float(token)
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header row
                raise DataError(
                    f"{path}: line {lineno}, column 1: could not parse {token!r}"
                ) from None
            if not np.isfinite(val):
                raise DataError(
                    f"{path}: line {lineno}, column 1: non-finite value {token!r}"
                )
            values.append(val)
    if not values:
        raise DataError(f"{path}: no numeric data found")
    return TimeSeries(np.array(values), origin=path)


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e-300, 1e300])
_FLOATS = st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def grids(draw):
    n = draw(
        st.one_of(
            st.integers(0, 12),
            st.sampled_from([_CHUNK_POINTS - 1, _CHUNK_POINTS, _CHUNK_POINTS + 1]),
        )
    )
    max_lag = draw(st.integers(1, 3))
    spacing = draw(st.integers(1, 9))
    points = draw(st.integers(0, 20)) + spacing * np.arange(n)
    T = draw(st.integers(1, 10 * (n + 1) * spacing + 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    estimates = rng.uniform(-1.0, 1.0, (n, max_lag))
    if estimates.size:
        for v in draw(st.lists(_FLOATS, max_size=6)):
            estimates.flat[rng.integers(estimates.size)] = v
    dtype = draw(st.sampled_from([np.uint8, np.bool_]))
    boundary = (rng.random(n) < 0.2).astype(dtype)
    ci = None
    if draw(st.booleans()):
        # few distinct half-widths, as for a windowed grid, plus specials
        levels = draw(st.lists(_FLOATS, min_size=1, max_size=4))
        ci = np.array(levels, dtype=float)[rng.integers(len(levels), size=n)]
    return T, LpacfGrid(
        kind="windowed",
        points=points,
        estimates=estimates,
        boundary=boundary,
        bandwidth=None,
        kernel=None,
        ci_halfwidth=ci,
        clamp_count=0,
    )


@settings(max_examples=60, deadline=None)
@given(grids())
def test_write_long_csv_matches_per_row_reference(tmp_path_factory, case):
    T, grid = case
    d = tmp_path_factory.mktemp("long")
    reference_long_csv(str(d / "ref.csv"), grid, T)
    write_long_csv(str(d / "new.csv"), grid, T)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2, _CHUNK_VALUES - 1, _CHUNK_VALUES, _CHUNK_VALUES + 1])
def test_write_series_matches_per_value_format(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    values[: min(n, 3)] = [-0.0, 5e-324, 1.0][: min(n, 3)]
    p = tmp_path / "s.csv"
    write_series(str(p), TimeSeries(values))
    assert p.read_text(encoding="utf-8") == "".join(_fmt(v) + "\n" for v in values)


_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(_fmt),
    st.integers(-(10**6), 10**6).map(lambda i: f" {i}\t"),
    st.sampled_from(
        ["", "  ", "value", "x", "nan", "inf", "-inf", "1.5,", " 2 , ", "1.0,2.0",
         "3,,", ",", " , ", "abc", "1e5", "-0"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINES, max_size=12),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
)
def test_read_series_matches_reference_scan(tmp_path_factory, lines, newline, trailing):
    p = tmp_path_factory.mktemp("read") / "x.csv"
    text = newline.join(lines) + (newline if trailing else "")
    p.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_read_series(str(p)).values
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_series(str(p))
        assert str(got.value) == str(exc)
    else:
        got = read_series(str(p)).values
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "text, values",
    [("1.5\n2.5\n3.5\n", [1.5, 2.5, 3.5]), ("value\n1.5\n2.5\n", [1.5, 2.5])],
)
def test_read_series_skips_a_utf8_bom(tmp_path, text, values):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_series(str(p)).values.tolist() == values


def test_write_long_csv_memory_is_bounded_by_the_chunk(tmp_path):
    # a writer that joins the whole file first peaks near 40 MB here
    n, max_lag = 32768, 4
    rng = np.random.default_rng(0)
    grid = LpacfGrid(
        kind="windowed",
        points=np.arange(n),
        estimates=rng.uniform(-1.0, 1.0, (n, max_lag)),
        boundary=(np.arange(n) < 100).astype(np.uint8),
        bandwidth=64,
        kernel="epanechnikov",
        ci_halfwidth=np.full(n, 1.96 / 8.0),
        clamp_count=0,
    )
    tracemalloc.start()
    try:
        write_long_csv(str(tmp_path / "big.csv"), grid, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

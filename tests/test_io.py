"""The CSV writers and the one-pass reader against per-value and per-row references."""

import os
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpacf import (
    ArPathSpec,
    DataError,
    TimeSeries,
    read_series,
    simulate_tvar,
    svg_plot,
    wavelet_lpacf,
    windowed_lpacf,
    write_series,
)
from locpacf.estimators import LpacfGrid
from locpacf.io import (
    _CHUNK_POINTS,
    LONG_HEADER,
    _format17,
    write_long_csv,
)


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
    return TimeSeries(np.array(values))


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
    points = draw(st.integers(-20, 20)) + spacing * np.arange(n)
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


def _formatted(x):
    return [bytes(row[row != 0]).decode() for row in _format17(np.asarray(x))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_format17_matches_format_on_any_bit_pattern(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _formatted(x) == [_fmt(v) for v in x]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=40),
       st.booleans())
def test_format17_matches_format_on_the_fast_range(values, negate):
    x = -np.array(values) if negate else np.array(values)
    assert _formatted(x) == [_fmt(v) for v in x]


def _edge_values():
    powers = 10.0 ** np.arange(-8, 18)
    fixed = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), np.nextafter(1.0, 0),
             0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf]
    ticks = [np.arange(T) / T for T in (1024, 2560, 4096, 32768)]
    # odd multiples of 2**(e-17) in [10**e, 10**(e+1)) have 18 significant
    # digits, the last a 5: exact ties at 17 digits
    ties = []
    for e in range(-4, 0):
        unit = 2.0 ** (e - 17)
        odd = np.linspace(np.ceil(10.0**e / unit), 10.0 ** (e + 1) / unit - 2, 100)
        ties.append((odd.astype(np.int64) | 1) * unit)
    neighbours = [np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    x = np.concatenate([powers, *neighbours, fixed, *ticks, *ties])
    return np.concatenate([x, -x])


def test_format17_matches_format_on_edge_values():
    x = _edge_values()
    assert _formatted(x) == [_fmt(v) for v in x]


def _tvar(T):
    return simulate_tvar(ArPathSpec.linear_ramp([0.9], [-0.9]), T, 0)


@pytest.mark.parametrize(
    "T, estimate",
    [
        (4096, lambda ts: wavelet_lpacf(ts, max_lag=4)),
        (32768, lambda ts: windowed_lpacf(ts, L=64)),
        (32768, lambda ts: windowed_lpacf(ts, L=64, points=np.arange(0, 32768, 64))),
    ],
    ids=["wavelet-4096", "windowed-32768", "windowed-32768-stride-64"],
)
def test_write_long_csv_of_estimator_grids_matches_per_row_reference(
    tmp_path, T, estimate
):
    grid = estimate(_tvar(T))
    reference_long_csv(str(tmp_path / "ref.csv"), grid, T)
    write_long_csv(str(tmp_path / "new.csv"), grid, T)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_long_csv_of_out_of_range_values_warns_nothing(tmp_path):
    special = np.array([1e308, -1e308, 5e-324, np.nan, -0.0, np.inf])
    grid = LpacfGrid(
        kind="windowed",
        points=np.arange(special.size),
        estimates=special[:, None],
        boundary=np.zeros(special.size, dtype=np.uint8),
        bandwidth=None,
        ci_halfwidth=special[::-1].copy(),
        clamp_count=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_long_csv(str(tmp_path / "new.csv"), grid, 1)
    reference_long_csv(str(tmp_path / "ref.csv"), grid, 1)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# around the end of the first chunk and of the fourth
@pytest.mark.parametrize(
    "n", [1, 2] + [k * _CHUNK_POINTS + d for k in (1, 4) for d in (-1, 0, 1)]
)
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


def test_svg_plot_escapes_its_title(tmp_path):
    grid = LpacfGrid(
        kind="windowed",
        points=np.arange(4),
        estimates=np.array([[0.1], [0.2], [-0.3], [0.0]]),
        boundary=np.zeros(4, dtype=np.uint8),
        bandwidth=None,
        ci_halfwidth=None,
        clamp_count=0,
    )
    path = tmp_path / "plot.svg"
    title = "AR(1) & TVAR <ramp>"
    svg_plot(str(path), grid, 4, title=title)
    root = ET.parse(path).getroot()
    assert title in [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]


def test_svg_plot_draws_each_lag_in_time_order(tmp_path):
    # the grid keeps the requested order, unordered and with a repeat; the
    # lines must still run left to right
    grid = LpacfGrid(
        kind="windowed",
        points=np.array([200, 10, 100, 100]),
        estimates=np.array([[0.1, -0.2], [0.5, 0.3], [0.4, 0.0], [0.4, 0.0]]),
        boundary=np.zeros(4, dtype=np.uint8),
        bandwidth=None,
        ci_halfwidth=None,
        clamp_count=0,
    )
    path = tmp_path / "plot.svg"
    svg_plot(str(path), grid, 256)
    root = ET.parse(path).getroot()
    lines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    assert len(lines) == 2
    for line in lines:
        xs = [float(pair.split(",")[0]) for pair in line.get("points").split()]
        assert len(xs) == 4
        assert xs == sorted(xs)

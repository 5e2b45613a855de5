"""CSV ingestion, long-format output, and minimal SVG plotting.

Series output uses 17 significant digits so write-then-read round-trips
reproduce every value; estimate output is the long format

    t,z,lag,estimate,ci_lower,ci_upper,boundary_flag

with one record per (point, lag) and empty ci fields exactly when the
estimator provides no confidence band.

The long CSV is written in chunks of ``_CHUNK_POINTS`` points, so memory
stays bounded by the chunk rather than by the length of the file.  Each
chunk is one uint8 matrix with a row per record and every field at a
fixed width, 0 bytes wherever nothing is printed; dropping the 0 bytes
(no text byte is 0) leaves the chunk's text, written with one call.
Every float field carries the bytes of ``format(v, ".17g")``: values with
|v| in [1e-4, 1), which covers z = t/T, the CI bounds and nearly every
estimate, are formatted exactly in numpy from Dekker's error-free
product, and every other value by ``format`` itself.  Series output
goes through the same formatter, one value per row and ``_CHUNK_POINTS``
values per chunk.
Reading is one pass over the file, ``_CHUNK_POINTS`` lines at a time:
each chunk is parsed with one ``np.array(lines, dtype=float)`` call,
which converts every line with ``float``, and only a chunk with a line
that does not parse or is not finite is scanned line by line, to skip a
header or a blank line or to name the bad line.  Either way the Python
objects of one chunk are alive at a time.
"""

from __future__ import annotations

import os
from itertools import islice

import numpy as np

from .errors import DataError
from .estimators import LpacfGrid, confidence_halfwidth
from .series import _CHUNK_POINTS, TimeSeries

__all__ = [
    "read_series",
    "write_series",
    "write_long_csv",
    "write_rmse_csv",
    "svg_plot",
    "LONG_HEADER",
]

LONG_HEADER = "t,z,lag,estimate,ci_lower,ci_upper,boundary_flag"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_series(path: str) -> TimeSeries:
    """Read one value per line, or a single-column CSV with optional header.

    One pass, ``_CHUNK_POINTS`` lines at a time: a chunk whose every line
    ``float`` parses to a finite value is taken as one array, and any
    other chunk goes through ``_scan_lines``.  ``float`` accepts a line
    only where the scan takes it with the same value, so the first error
    in file order is the one a scan of the whole file would name.  NaN and
    infinities are rejected; parse failures name the offending line and
    column.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    chunks = []
    lineno = 1  # of the chunk's first line
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            while lines := list(islice(fh, _CHUNK_POINTS)):
                try:
                    values = np.array(lines, dtype=float)
                    clean = np.isfinite(values).all()
                except ValueError:
                    clean = False
                if not clean:
                    values = np.array(_scan_lines(path, lines, lineno), dtype=float)
                chunks.append(values)
                lineno += len(lines)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    values = np.concatenate([np.empty(0), *chunks])
    del chunks  # TimeSeries copies the values: hold two arrays, not three
    if not values.size:
        raise DataError(f"{path}: no numeric data found")
    return TimeSeries(values)


def _scan_lines(path: str, lines, first: int) -> list[float]:
    """Line-by-line parse of lines numbered from ``first``: skips blank
    lines and a header on line 1, names the first bad line."""
    values = []
    for lineno, rawline in enumerate(lines, start=first):
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
            if lineno == 1:
                continue  # header row
            raise DataError(
                f"{path}: line {lineno}, column 1: could not parse {token!r}"
            ) from None
        if not np.isfinite(val):
            raise DataError(
                f"{path}: line {lineno}, column 1: non-finite value {token!r}"
            )
        values.append(val)
    return values


def write_series(path: str, ts: TimeSeries) -> None:
    values = np.asarray(ts.values)
    with open(path, "wb") as fh:
        for start in range(0, values.size, _CHUNK_POINTS):
            chunk = values[start : start + _CHUNK_POINTS]
            fh.write(_rows(chunk.size, 1, _format17(chunk)[:, None], b"\n"))


# Widest ``%.17g`` text, "-1.2345678901234567e-308"; every float field of
# a row is laid out at this width, zero-padded.
_FIELD = 24
# Veltkamp's splitter for float64: a = hi + lo with 26-bit halves.
_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# 10**(17 + k) for k = -1 - e = 0..3: exact doubles (5**20 < 2**53).
_SCALE = 10.0 ** np.arange(17, 21)
_SCALE_HI, _SCALE_LO = _split(_SCALE)


# A fast field is 8 prefix bytes "[-]0." + k zeros (0 bytes for the rest
# of three) + the lead digit + a 0 byte, then four groups of four digits.
_PREFIX = np.frombuffer(
    b"".join(
        sign + b"0." + b"0" * k + bytes(3 - k) + bytes([48 + lead, 0])
        for sign in (b"\0", b"-")
        for k in range(4)
        for lead in range(10)
    ),
    np.uint64,
)


def _digit_table() -> np.ndarray:
    """Every 0000..9999 as four ASCII bytes in one uint32, then each again
    with its trailing zeros as 0 bytes."""
    g = np.arange(10000)[:, None]
    text = g // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = g % np.array([10000, 1000, 100, 10]) == 0  # digits from here on all 0
    text = np.concatenate([text, np.where(trailing, 0, text)]).astype(np.uint8)
    return text.view(np.uint32)[:, 0]


_DIGITS4 = _digit_table()


def _format17(x) -> np.ndarray:
    """``format(v, ".17g")`` of every v in x, as an (n, _FIELD) uint8
    matrix: the nonzero bytes of row i, in order, are the text of x[i].

    A value with |v| in [1e-4, 1) prints as "0.", -e-1 zeros and the 17
    digits of |v| * 10**(16-e) rounded half to even, trailing zeros
    dropped, where e = floor(log10 |v|).  Comparing |v| with the doubles
    0.1, 0.01 and 0.001, each just above its power of ten, gives e
    exactly.  Dekker's two-product gives the scaled value exactly as
    hi + lo, and hi >= 1e16 > 2**53 is an even integer, so the digits are
    int(hi) + rint(lo).  Every other value, and one whose digits would
    round up to 10**17, is formatted by ``format`` itself.
    """
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.5  # any in-range value: no overflow, no NaN, no warning
    k = (a < 0.1).astype(np.intp)
    k += a < 0.01
    k += a < 0.001
    hi = a * _SCALE[k]
    ah, al = _split(a)
    sh, sl = _SCALE_HI[k], _SCALE_LO[k]
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= digits < 10**17

    upper = digits // 10**8  # the lead digit and the next eight
    lower = (digits - upper * 10**8).astype(np.uint32)
    upper = upper.astype(np.uint32)
    lead = upper // 10**8
    upper -= lead * 10**8
    g1, g2 = np.divmod(upper, 10000)
    g3, g4 = np.divmod(lower, 10000)
    out = np.empty((x.size, 3), np.uint64)
    out[:, 0] = _PREFIX[(x < 0.0) * 40 + k * 10 + lead]
    # a group's trailing zeros are blanked when every later digit is 0
    words = out.view(np.uint32)
    words[:, 2] = _DIGITS4[g1 + 10000 * ((g2 == 0) & (lower == 0))]
    words[:, 3] = _DIGITS4[g2 + 10000 * (lower == 0)]
    words[:, 4] = _DIGITS4[g3 + 10000 * (g4 == 0)]
    words[:, 5] = _DIGITS4[g4 + 10000]
    out = out.view(np.uint8)

    slow = ~fast
    if slow.any():
        text = [format(v, ".17g").encode() for v in x[slow].tolist()]
        out[slow] = np.array(text, f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out


def _format_int(v) -> np.ndarray:
    """``"%d" % k`` of every k in v, as an (n, 1, width) uint8 matrix
    whose nonzero bytes are the text."""
    v = np.asarray(v, dtype=np.int64).ravel()
    a = np.abs(v)
    width = len(str(a.max(initial=0)))
    out = np.zeros((v.size, 1, width + 1), np.uint8)
    out[:, 0, 0] = (v < 0) * ord("-")
    for j in range(width):
        place = 10 ** (width - 1 - j)
        digit = a // place % 10 + ord("0")
        out[:, 0, j + 1] = digit if place == 1 else np.where(a >= place, digit, 0)
    return out


def _rows(n: int, m: int, *fields) -> bytearray:
    """The text of n x m rows: the fields side by side, each an (n or 1,
    m or 1, width) uint8 matrix or a bytes constant, with the 0 bytes
    dropped."""
    parts = [
        np.frombuffer(f, np.uint8)[None, None] if isinstance(f, bytes) else f
        for f in fields
    ]
    width = sum(f.shape[-1] for f in parts)
    rows = bytearray(n * m * width)  # the matrix is built in place, not copied
    np.concatenate(
        [np.broadcast_to(f, (n, m, f.shape[-1])) for f in parts],
        axis=2,
        out=np.frombuffer(rows, np.uint8).reshape(n, m, width),
    )
    return rows.translate(None, b"\0")


def write_long_csv(path: str, grid: LpacfGrid, T: int) -> None:
    """One record per (point, lag), ordered by point then lag."""
    m = grid.max_lag
    lags = _format_int(grid.lags).transpose(1, 0, 2)
    points = np.asarray(grid.points)
    hw = grid.ci_halfwidth
    with open(path, "wb") as fh:
        fh.write(LONG_HEADER.encode() + b"\n")
        for start in range(0, points.size, _CHUNK_POINTS):
            chunk = slice(start, start + _CHUNK_POINTS)
            t = points[chunk]
            bounds = [] if hw is None else [-hw[chunk], hw[chunk]]
            # one formatter call per chunk: z, the CI bounds, the estimates
            values = np.column_stack([t / T, *bounds, grid.estimates[chunk]])
            text = _format17(values).reshape(t.size, -1, _FIELD)
            ci = [b",,"] if hw is None else [b",", text[:, 1:2], b",", text[:, 2:3]]
            estimates = text[:, 1 + len(bounds) :]
            fh.write(
                _rows(
                    t.size, m, _format_int(t), b",", text[:, :1], b",", lags, b",",
                    estimates, *ci, b",", _format_int(grid.boundary[chunk]), b"\n",
                )
            )


def write_rmse_csv(path: str, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("estimator,lag,rmse,stderr,replicates,excluded,bandwidth,elapsed_seconds\n")
        for r in report.rows:
            bw = "" if r.bandwidth is None else str(r.bandwidth)
            fh.write(
                f"{r.estimator},{r.lag},{_fmt(r.rmse)},{_fmt(r.stderr)},"
                f"{r.replicates},{r.excluded},{bw},{_fmt(r.elapsed_seconds)}\n"
            )


_PALETTE = ("#000000", "#c0392b", "#2471a3", "#1e8449", "#7d3c98", "#b7950b")


def svg_plot(path: str, grid: LpacfGrid, T: int, title: str = "") -> None:
    """Minimal SVG line plot: one polyline per lag, dashed CI rules, axes."""
    # imported here: html loads html.entities, about 0.4 MB and 3 ms that
    # every command would pay for at start-up
    from html import escape

    width, height = 720, 420
    ml, mr, mt, mb = 60, 20, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    if grid.points.size == 0:
        raise DataError("nothing to plot: grid has no points")
    pts = grid.points
    x0, x1 = float(pts.min()), float(max(pts.max(), pts.min() + 1))
    ymax = max(1.0, float(np.max(np.abs(grid.estimates))))
    y0, y1 = -ymax, ymax

    def sx(t):
        return ml + (t - x0) / (x1 - x0) * pw

    def sy(v):
        return mt + (y1 - v) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{sy(0):.2f}" x2="{ml + pw}" y2="{sy(0):.2f}" '
        'stroke="#888" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="#333"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = x0 + frac * (x1 - x0)
        out.append(
            f'<text x="{sx(t):.1f}" y="{height - 18}" font-size="11" '
            f'text-anchor="middle">{t:.0f}</text>'
        )
        v = y0 + frac * (y1 - y0)
        out.append(
            f'<text x="{ml - 8}" y="{sy(v) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{v:.2f}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2}" y="{height - 4}" font-size="12" '
        'text-anchor="middle">time index t</text>'
    )
    if title:
        out.append(
            f'<text x="{ml + pw / 2}" y="18" font-size="13" text-anchor="middle">'
            f"{escape(title, quote=False)}</text>"
        )
    if grid.ci_halfwidth is not None and grid.bandwidth:
        hw = confidence_halfwidth(grid.bandwidth)
        for v in (-hw, hw):
            out.append(
                f'<line x1="{ml}" y1="{sy(v):.2f}" x2="{ml + pw}" y2="{sy(v):.2f}" '
                'stroke="#c0392b" stroke-width="1" stroke-dasharray="6 4"/>'
            )
    # the grid keeps the requested order; each line is drawn in time order
    order = np.argsort(pts, kind="stable")
    for li, lag in enumerate(grid.lags):
        col = _PALETTE[li % len(_PALETTE)]
        coords = " ".join(f"{sx(pts[p]):.2f},{sy(grid.estimates[p, li]):.2f}" for p in order)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{col}" stroke-width="1.3"/>'
        )
        out.append(
            f'<text x="{ml + pw - 6}" y="{mt + 14 * (li + 1)}" font-size="11" '
            f'text-anchor="end" fill="{col}">lag {int(lag)}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")

"""CSV ingestion, long-format output, and minimal SVG plotting.

Series output uses 17 significant digits so write-then-read round-trips
reproduce every value; estimate output is the long format

    t,z,lag,estimate,ci_lower,ci_upper,boundary_flag

with one record per (point, lag) and empty ci fields exactly when the
estimator provides no confidence band.

Output is formatted in chunks: each chunk of ``_CHUNK_POINTS`` points
(``_CHUNK_VALUES`` series values) becomes one string built by a single
``%`` call, so the per-row Python loop is gone while every byte is the
same as formatting each value with ``format(v, ".17g")``, and memory
stays bounded by the chunk size rather than by the length of the file.
Reading parses every line with ``float`` in one pass and falls back to a
line-by-line scan only to skip a header or to name a bad line.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError
from .estimators import LpacfGrid, confidence_halfwidth
from .series import TimeSeries

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


# Points per chunk of the long CSV (the chunk's string holds this many
# times max_lag rows) and values per chunk of a written series.
_CHUNK_POINTS = 2048
_CHUNK_VALUES = 8192
# One long-CSV row: "t,z," + "lag," + estimate + ",lo,hi,flag\n".
_ROW = "%s%s%.17g%s"


def read_series(path: str) -> TimeSeries:
    """Read one value per line, or a single-column CSV with optional header.

    NaN and infinities are rejected; parse failures name the offending
    line and column.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                values = np.array([float(line) for line in fh])
                clean = values.size > 0 and bool(np.isfinite(values).all())
            except ValueError:
                clean = False
            if not clean:
                fh.seek(0)
                values = np.array(_scan_lines(path, fh))
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    return TimeSeries(values)


def _scan_lines(path: str, lines) -> list[float]:
    """Line-by-line parse: skips blank lines and a header, names bad lines."""
    values = []
    for lineno, rawline in enumerate(lines, start=1):
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
    return values


def write_series(path: str, ts: TimeSeries) -> None:
    values = np.asarray(ts.values)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, values.size, _CHUNK_VALUES):
            chunk = values[start : start + _CHUNK_VALUES].tolist()
            fh.write(("%.17g\n" * len(chunk)) % tuple(chunk))


def _ci_suffix(hw, flag) -> str:
    ci = ",," if hw is None else f",{_fmt(-hw)},{_fmt(hw)}"
    return f"{ci},{int(flag)}\n"


def write_long_csv(path: str, grid: LpacfGrid, T: int) -> None:
    """One record per (point, lag), ordered by point then lag."""
    lag_fields = ["%d," % lag for lag in grid.lags.tolist()]
    points = np.asarray(grid.points)
    z = points / T
    hw = grid.ci_halfwidth
    # ",lo,hi,flag\n" is formatted once per distinct (half-width, flag);
    # the sign bit is part of the key because 0.0 == -0.0 format apart.
    suffixes: dict = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LONG_HEADER + "\n")
        for start in range(0, points.size, _CHUNK_POINTS):
            stop = start + _CHUNK_POINTS
            flags = grid.boundary[start:stop].tolist()
            if hw is None:
                halves = signs = [None] * len(flags)
            else:
                halves = hw[start:stop].tolist()
                signs = np.signbit(hw[start:stop]).tolist()
            sfx = []
            for key in zip(halves, signs, flags):
                s = suffixes.get(key)
                if s is None:
                    s = suffixes[key] = _ci_suffix(key[0], key[2])
                sfx.append(s)
            pre = [
                "%d,%.17g," % tz
                for tz in zip(points[start:stop].tolist(), z[start:stop].tolist())
            ]
            rows = len(pre) * len(lag_fields)
            args = [None] * (4 * rows)
            args[0::4] = [p for p in pre for _ in lag_fields]
            args[1::4] = lag_fields * len(pre)
            args[2::4] = grid.estimates[start:stop].ravel().tolist()
            args[3::4] = [s for s in sfx for _ in lag_fields]
            fh.write((_ROW * rows) % tuple(args))


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
    for li, lag in enumerate(grid.lags):
        col = _PALETTE[li % len(_PALETTE)]
        coords = " ".join(
            f"{sx(t):.2f},{sy(grid.estimates[p, li]):.2f}" for p, t in enumerate(pts)
        )
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

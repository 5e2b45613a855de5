"""Command-line front end.

Subcommands: ``simulate tvar``, ``simulate piecewise-ar``, ``estimate``,
``pacf``, ``benchmark``, ``sweep-bandwidth``, ``verify``.  Estimates are
written as long-format CSV (``t,z,lag,estimate,ci_lower,ci_upper,
boundary_flag``) with an optional SVG line plot.  Command-line flags
override an optional ``--config`` key=value file, which overrides
defaults.

Exit codes: 0 success, 1 usage error, 2 data error (including an estimate
that keeps no point, an output path that cannot be written and an array
that cannot be allocated), 3 numerical failure, 4 verification failure.
No subcommand reaches 3: no library function raises ``NumericalError``,
and an estimate whose every point fails numerically keeps no point, so it
exits 2 and writes no file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io as _io
from .errors import DataError, InvalidArgumentError, NumericalError
from .estimators import (
    EstimatorConfig,
    LpacfGrid,
    _check_bandwidth,
    classical_pacf,
    confidence_halfwidth,
)
from .simulate import (
    ArPathSpec,
    monte_carlo_rmse,
    simulate_piecewise_ar,
    simulate_tvar,
)
from .verify import run_all

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

# The two Monte-Carlo studies of ``benchmark``; by default ``simulate``
# draws one series of either.
TVAR_STUDY = {"T": 512, "phi_start": 0.9, "phi_end": -0.9}  # AR(1), linear ramp
PIECEWISE_STUDY = "85:-0.2;86:0.5,0.2;85:-0.2"  # length:coef[,coef...] per segment


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidArgumentError(message)


def _add_estimator_flags(p):
    p.add_argument("--method", choices=("windowed", "wavelet"), default="windowed")
    p.add_argument("--binwidth", type=int, help="window width L (windowed)")
    p.add_argument(
        "--kernel", choices=("rectangular", "epanechnikov"), default="epanechnikov"
    )
    p.add_argument("--max-lag", type=int, default=4)
    p.add_argument("--smooth-span", type=int, help="running-mean half-span s (wavelet)")
    p.add_argument("--max-scale", type=int, help="deepest wavelet scale J* (wavelet)")


def _estimator(args) -> EstimatorConfig:
    """The estimator that the flags of ``_add_estimator_flags`` choose."""
    return EstimatorConfig(
        args.method, args.binwidth, args.kernel,
        args.smooth_span, args.max_scale, args.max_lag,
    )


def build_parser() -> _Parser:
    top = _Parser(prog="locpacf", description=__doc__)
    top.add_argument("--config", type=str, help="key=value file of flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a test process")
    simsub = sim.add_subparsers(dest="process", required=True)
    tv = simsub.add_parser("tvar", help="time-varying AR(1) with a linear ramp")
    tv.add_argument("--T", type=int, default=TVAR_STUDY["T"])
    tv.add_argument("--phi-start", type=float, default=TVAR_STUDY["phi_start"])
    tv.add_argument("--phi-end", type=float, default=TVAR_STUDY["phi_end"])
    tv.add_argument("--sigma", type=float, default=1.0)
    tv.add_argument("--seed", type=int, default=0)
    tv.add_argument("--output", type=str, required=True)
    pw = simsub.add_parser("piecewise-ar", help="piecewise-constant AR segments")
    pw.add_argument(
        "--segments",
        type=str,
        default=PIECEWISE_STUDY,
        help="length:coef,coef;length:... (default: the three-segment AR study)",
    )
    pw.add_argument("--sigma", type=float, default=1.0)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--output", type=str, required=True)

    est = sub.add_parser("estimate", help="local partial autocorrelation of a series")
    est.add_argument("--input", type=str, required=True)
    est.add_argument("--output", type=str, required=True)
    _add_estimator_flags(est)
    est.add_argument(
        "--demean",
        action="store_true",
        help="subtract a mean first: the kernel-weighted local mean (windowed) "
        "or the whole-series mean (wavelet)",
    )
    points = est.add_mutually_exclusive_group()  # neither: every index
    points.add_argument("--stride", type=int, help="estimate every n-th index")
    points.add_argument("--points", type=str, help="comma-separated explicit indices")
    est.add_argument(
        "--pad", action="store_true", help="reflect-pad non-dyadic input (wavelet)"
    )
    est.add_argument("--plot", type=str, help="also write an SVG line plot")

    pac = sub.add_parser("pacf", help="classical whole-series partial autocorrelation")
    pac.add_argument("--input", type=str, required=True)
    pac.add_argument("--output", type=str, required=True)
    pac.add_argument("--max-lag", type=int, default=10)
    pac.add_argument("--demean", action="store_true")

    ben = sub.add_parser("benchmark", help="Monte-Carlo RMSE study")
    ben.add_argument("--study", choices=("tvar", "piecewise-ar"), default="tvar")
    ben.add_argument("--T", type=int, help="series length (tvar study only)")
    ben.add_argument("--reps", type=int, default=100)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--output", type=str, required=True)
    _add_estimator_flags(ben)

    sw = sub.add_parser("sweep-bandwidth", help="windowed estimates at several widths")
    sw.add_argument("--input", type=str, required=True)
    sw.add_argument("--output", type=str, required=True, help="output path stem")
    sw.add_argument("--widths", type=str, required=True, help="e.g. 160,80,40")
    sw.add_argument(
        "--kernel", choices=("rectangular", "epanechnikov"), default="epanechnikov"
    )
    sw.add_argument("--max-lag", type=int, default=4)
    sw.add_argument("--demean", action="store_true")
    sw.add_argument("--plot", type=str, help="SVG path stem (one per width)")

    ver = sub.add_parser("verify", help="run the wavelet formula/property suites")
    ver.add_argument("--output", type=str, help="also write the results as CSV")
    for leaf, run in (
        (tv, _cmd_tvar), (pw, _cmd_piecewise), (est, _cmd_estimate), (pac, _cmd_pacf),
        (ben, _cmd_benchmark), (sw, _cmd_sweep), (ver, _cmd_verify),
    ):
        leaf.set_defaults(leaf=leaf, run=run)
    return top


def _load_config(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InvalidArgumentError(
                        f"{path}: line {lineno}: expected key=value"
                    )
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError:
        raise InvalidArgumentError(f"config file {path}: not UTF-8 text") from None
    return out


_POINT_DESTS = ("stride", "points")


def _apply_config(parser, args, argv):
    """Parse argv again with the config file's values as the subcommand's defaults.

    Each value is converted and checked like the flag it names, whether or
    not the command line overrides it; a flag on the command line, in any
    spelling, still wins.  Keys the subcommand does not take are ignored,
    as are the config's point options when the command line chooses the
    points.
    """
    path, leaf = args.config, args.leaf
    options = {a.dest: a for a in leaf._actions if a.option_strings and a.dest != "help"}
    points_given = any(getattr(args, d, None) is not None for d in _POINT_DESTS)
    defaults = {}
    for key, text in _load_config(path).items():
        action = options.get(key)
        if action is None or (key in _POINT_DESTS and points_given):
            continue
        if action.nargs == 0:  # a switch such as --demean
            if text.lower() not in ("true", "false"):
                raise InvalidArgumentError(
                    f"{path}: {key} must be true or false, not {text!r}"
                )
            defaults[key] = text.lower() == "true"
            continue
        try:
            val = text if action.type is None else action.type(text)
        except ValueError:
            raise InvalidArgumentError(
                f"{path}: {key}: invalid {action.type.__name__} value {text!r}"
            ) from None
        if action.choices is not None and val not in action.choices:
            raise InvalidArgumentError(
                f"{path}: {key} must be one of {', '.join(action.choices)}, not {text!r}"
            )
        defaults[key] = val
    leaf.set_defaults(**defaults)
    return parser.parse_args(argv)


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of ``flag``'s comma-separated list; blank items are skipped."""
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InvalidArgumentError(f"{flag} must be comma-separated integers") from None
    if not values:
        raise InvalidArgumentError(f"{flag} is empty")
    return values


def _parse_segments(text: str):
    segments = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            length, coefs = part.split(":")
            segments.append(
                (int(length), [float(c) for c in coefs.split(",") if c.strip() != ""])
            )
        except ValueError:
            raise InvalidArgumentError(
                f"bad segment {part!r}; expected length:coef[,coef...]"
            ) from None
    if not segments:
        raise InvalidArgumentError("--segments is empty")
    return segments


def _write_grid(grid: LpacfGrid, T: int, output: str, plot=None, title="") -> None:
    """Write the long CSV and, given a plot path, the SVG.  A grid with no
    points is a data error before any file is written, and an SVG that
    cannot be written takes the CSV with it."""
    if grid.points.size == 0:
        raise DataError(
            f"no estimate to write: all points were dropped ({grid.dropped_points.size})"
        )
    _io.write_long_csv(output, grid, T)
    if plot:
        try:
            _io.svg_plot(plot, grid, T, title=title)
        except OSError:
            os.remove(output)
            raise


def _cmd_tvar(args) -> int:
    spec = ArPathSpec.linear_ramp(args.phi_start, args.phi_end, sigma=args.sigma)
    _io.write_series(args.output, simulate_tvar(spec, args.T, args.seed))
    return EXIT_OK


def _cmd_piecewise(args) -> int:
    ts = simulate_piecewise_ar(_parse_segments(args.segments), args.seed, args.sigma)
    _io.write_series(args.output, ts)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    ts = _io.read_series(args.input)
    points = None  # every index
    if args.points is not None:
        points = _int_list(args.points, "--points")
    elif args.stride is not None:
        if args.stride < 1:
            raise InvalidArgumentError(f"stride={args.stride} must be >= 1")
        points = np.arange(0, ts.T, min(args.stride, ts.T))
    grid = _estimator(args).estimate(ts, points, args.demean, args.pad)
    _write_grid(grid, ts.T, args.output, args.plot, f"local pacf ({grid.kind})")
    return EXIT_OK


def _cmd_pacf(args) -> int:
    ts = _io.read_series(args.input)
    vals = classical_pacf(ts, args.max_lag, demean=args.demean)
    grid = LpacfGrid(
        kind="classical",
        points=np.array([ts.T // 2]),
        estimates=vals[None, :],
        boundary=np.array([0], dtype=np.uint8),
        bandwidth=ts.T,
        ci_halfwidth=confidence_halfwidth(np.array([ts.T])),
        clamp_count=0,
    )
    _write_grid(grid, ts.T, args.output)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    if args.study == "tvar":
        spec = ArPathSpec.linear_ramp(TVAR_STUDY["phi_start"], TVAR_STUDY["phi_end"])
        T = TVAR_STUDY["T"] if args.T is None else args.T
    else:
        segments = _parse_segments(PIECEWISE_STUDY)
        T = sum(n for n, _ in segments)
        if args.T is not None:
            raise InvalidArgumentError(
                f"--T applies to the tvar study only (piecewise-ar has T={T})"
            )
        spec = ArPathSpec.piecewise(segments)
    lags = range(1, args.max_lag + 1)  # no list: the study checks max_lag first
    report = monte_carlo_rmse(spec, _estimator(args), args.reps, lags, args.seed, T)
    _io.write_rmse_csv(args.output, report)
    for r in report.rows:
        print(
            f"{r.estimator} lag {r.lag}: rmse*100 = {100 * r.rmse:.3f} "
            f"(se {100 * r.stderr:.3f}), reps {r.replicates}, excluded {r.excluded}"
        )
    return EXIT_OK


def _stem_with_suffix(stem: str, suffix: str) -> str:
    if "." in stem.rsplit("/", 1)[-1]:
        base, ext = stem.rsplit(".", 1)
        return f"{base}_{suffix}.{ext}"
    return f"{stem}_{suffix}"


def _cmd_sweep(args) -> int:
    ts = _io.read_series(args.input)
    widths = _int_list(args.widths, "--widths")
    # every width is checked before the first output file is written
    for L in widths:
        _check_bandwidth(ts.T, L, args.max_lag)
    for L in widths:
        config = EstimatorConfig("windowed", L, args.kernel, max_lag=args.max_lag)
        # one grid at a time: each is written and dropped before the next
        _write_grid(
            config.estimate(ts, demean=args.demean),
            ts.T,
            _stem_with_suffix(args.output, f"L{L}"),
            args.plot and _stem_with_suffix(args.plot, f"L{L}"),
            f"windowed local pacf, L={L}",
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("check,passed,detail\n")
            for r in results:
                fh.write(f"{r.name},{int(r.passed)},\"{r.detail}\"\n")
    if not all(r.passed for r in results):
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every call without ``--config``: parsing leaves it as
    it was, and building it costs about twenty times a parse."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _shared_parser().parse_args(argv)
        # flags override config-file values, which override defaults; the
        # config's defaults go on a parser of this call's own
        if args.config:
            parser = build_parser()
            args = _apply_config(parser, parser.parse_args(argv), argv)
        return args.run(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed
        print(f"data error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""CSV ingestion, long-format output, SVG plotting, and the CLI surface."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locpacf
from locpacf import (
    DataError,
    TimeSeries,
    read_series,
    wavelet_lpacf,
    windowed_lpacf,
    write_long_csv,
    write_series,
)
from locpacf import estimators, simulate
from locpacf.cli import main
from locpacf.errors import MAX_LENGTH
from locpacf.io import LONG_HEADER


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_read_series_plain_values(tmp_path):
    p = _write(tmp_path, "x.csv", "1.0\n2.0\n3.0\n")
    ts = read_series(p)
    assert list(ts.values) == [1.0, 2.0, 3.0]
    assert ts.T == 3


def test_read_series_skips_header(tmp_path):
    p = _write(tmp_path, "x.csv", "value\n1.5\n2.5\n")
    assert list(read_series(p).values) == [1.5, 2.5]


def test_read_series_crlf_and_blank_lines(tmp_path):
    p = _write(tmp_path, "x.csv", "1.0\r\n\r\n2.0\r\n")
    assert list(read_series(p).values) == [1.0, 2.0]


def test_read_series_parse_error_names_line(tmp_path):
    p = _write(tmp_path, "x.csv", "1.0\nabc\n3.0\n")
    with pytest.raises(DataError, match="line 2, column 1"):
        read_series(p)


def test_read_series_rejects_nan_inf(tmp_path):
    p = _write(tmp_path, "x.csv", "1.0\nnan\n")
    with pytest.raises(DataError, match="line 2"):
        read_series(p)
    p = _write(tmp_path, "y.csv", "inf\n1.0\n")
    with pytest.raises(DataError, match="line 1"):
        read_series(p)


def test_read_series_comma_only_line_is_data_error(tmp_path):
    p = _write(tmp_path, "x.csv", "1.0\n,\n2.0")
    with pytest.raises(DataError, match="line 2, column 1"):
        read_series(p)
    assert main(["estimate", "--input", p, "--output", str(tmp_path / "o.csv")]) == 2


def test_read_series_undecodable_bytes_are_data_error(tmp_path):
    p = tmp_path / "x.csv"
    p.write_bytes(b"1.0\n\xff\n2.0\n")
    with pytest.raises(DataError, match="not UTF-8 text"):
        read_series(str(p))


def test_read_series_rejects_multi_column(tmp_path):
    p = _write(tmp_path, "x.csv", "1.0,2.0\n")
    with pytest.raises(DataError, match="column 2"):
        read_series(p)


def test_write_read_roundtrip_17_digits(tmp_path):
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.standard_normal(64))
    p = str(tmp_path / "r.csv")
    write_series(p, ts)
    back = read_series(p)
    assert np.array_equal(back.values, ts.values)


def test_cli_simulate_estimate_end_to_end(tmp_path):
    sim = str(tmp_path / "sim.csv")
    est = str(tmp_path / "est.csv")
    plot = str(tmp_path / "est.svg")
    assert main(
        [
            "simulate", "tvar", "--T", "512", "--phi-start", "0.9",
            "--phi-end", "-0.9", "--seed", "1", "--output", sim,
        ]
    ) == 0
    assert main(
        [
            "estimate", "--input", sim, "--output", est, "--method", "windowed",
            "--binwidth", "40", "--kernel", "epanechnikov", "--max-lag", "4",
            "--plot", plot,
        ]
    ) == 0
    lines = Path(est).read_text().splitlines()
    assert lines[0] == LONG_HEADER
    svg = Path(plot).read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "dasharray" in svg
    # CI half-width for L=40 on any interior (unclipped) record
    interior = [r.split(",") for r in lines[1:] if r.endswith(",0")]
    assert interior
    assert float(interior[len(interior) // 2][5]) == pytest.approx(0.30990, abs=5e-6)
    # long-format completeness: one record per (point, lag)
    body = lines[1:]
    pts = {r.split(",")[0] for r in body}
    assert len(body) == 4 * len(pts)


def test_cli_estimate_wavelet_empty_ci(tmp_path):
    sim = str(tmp_path / "sim.csv")
    est = str(tmp_path / "est.csv")
    main(["simulate", "tvar", "--T", "256", "--seed", "3", "--output", sim])
    assert main(
        ["estimate", "--input", sim, "--output", est, "--method", "wavelet",
         "--max-lag", "2", "--max-scale", "5", "--smooth-span", "12"]
    ) == 0
    for line in Path(est).read_text().splitlines()[1:3]:
        parts = line.split(",")
        assert parts[4] == "" and parts[5] == ""


# every estimator flag set; the other method's knobs are ignored
_OTHER_KNOBS = ["--binwidth", "40", "--kernel", "rectangular"]


@pytest.mark.parametrize(
    "T, flags, direct",
    [
        pytest.param(
            1000,
            ["--method", "windowed", "--binwidth", "40", "--kernel", "rectangular",
             "--max-lag", "3", "--max-scale", "5", "--smooth-span", "3", "--demean",
             "--points", "5,900,17,17"],
            lambda ts: windowed_lpacf(
                ts, L=40, kernel="rectangular", max_lag=3, points=[5, 900, 17, 17],
                demean=True,
            ),
            id="windowed-points",
        ),
        pytest.param(
            1024,
            ["--method", "wavelet", "--max-scale", "5", "--smooth-span", "3",
             "--max-lag", "3", "--demean", "--stride", "7"] + _OTHER_KNOBS,
            lambda ts: wavelet_lpacf(
                ts, max_scale=5, span=3, max_lag=3, points=np.arange(0, 1024, 7),
                demean=True,
            ),
            id="wavelet-stride",
        ),
        pytest.param(
            1000,
            ["--method", "wavelet", "--max-scale", "5", "--smooth-span", "3",
             "--max-lag", "2", "--pad"] + _OTHER_KNOBS,
            lambda ts: wavelet_lpacf(ts, max_scale=5, span=3, max_lag=2, pad=True),
            id="wavelet-pad",
        ),
    ],
)
def test_cli_estimate_writes_the_direct_call_bytes(tmp_path, T, flags, direct):
    sim = str(tmp_path / "x.csv")
    write_series(sim, TimeSeries(np.random.default_rng(T).standard_normal(T)))
    out = tmp_path / "cli.csv"
    assert main(["estimate", "--input", sim, "--output", str(out)] + flags) == 0
    ref = tmp_path / "ref.csv"
    write_long_csv(str(ref), direct(read_series(sim)), T)
    assert out.read_bytes() == ref.read_bytes()


def test_cli_determinism_byte_identical(tmp_path):
    out = []
    for name in ("a", "b"):
        sim = str(tmp_path / f"{name}.csv")
        est = str(tmp_path / f"{name}_est.csv")
        main(["simulate", "piecewise-ar", "--seed", "7", "--output", sim])
        main(["estimate", "--input", sim, "--output", est, "--binwidth", "48",
              "--max-lag", "2", "--stride", "4"])
        out.append(Path(est).read_bytes())
    assert out[0] == out[1]


def test_cli_pacf_subcommand(tmp_path):
    sim = str(tmp_path / "sim.csv")
    out = str(tmp_path / "pacf.csv")
    main(["simulate", "tvar", "--T", "128", "--seed", "2", "--output", sim])
    assert main(["pacf", "--input", sim, "--output", out, "--max-lag", "6"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == LONG_HEADER
    assert len(lines) == 7


@pytest.mark.parametrize(
    "argv, factor",
    [(["estimate", "--method", "windowed", "--binwidth", "40"], 1e160),
     (["pacf", "--max-lag", "6"], 1e-200)],
    ids=["windowed-1e160", "pacf-1e-200"],
)
def test_cli_estimates_of_a_huge_or_tiny_series_match_the_unit_series(
    tmp_path, capsys, argv, factor
):
    sim = str(tmp_path / "unit.txt")
    main(["simulate", "tvar", "--T", "512", "--seed", "1", "--output", sim])
    scaled = str(tmp_path / "scaled.txt")
    write_series(scaled, TimeSeries(read_series(sim).values * factor))
    estimates = []
    for path in (sim, scaled):
        out = tmp_path / "est.csv"
        assert main(argv + ["--input", path, "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        estimates.append(np.array([float(r.split(",")[3]) for r in rows]))
    assert capsys.readouterr().err == ""
    assert np.all(np.isfinite(estimates[1]))
    np.testing.assert_allclose(estimates[1], estimates[0], rtol=0, atol=1e-9)


def test_cli_sweep_bandwidth(tmp_path):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "512", "--seed", "4", "--output", sim])
    stem = str(tmp_path / "sweep.csv")
    assert main(
        ["sweep-bandwidth", "--input", sim, "--output", stem,
         "--widths", "160,80,40", "--max-lag", "3"]
    ) == 0
    for L in (160, 80, 40):
        assert os.path.exists(str(tmp_path / f"sweep_L{L}.csv"))


def test_cli_usage_error_exit_code(tmp_path):
    assert main(["estimate", "--input"]) == 1
    assert main(["nonsense"]) == 1
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "128", "--seed", "0", "--output", sim])
    assert main(["estimate", "--input", sim, "--output",
                 str(tmp_path / "y.csv"), "--binwidth", "-5"]) == 1


def test_cli_data_error_exit_code(tmp_path):
    missing = str(tmp_path / "missing.csv")
    assert main(["estimate", "--input", missing, "--output", "o.csv"]) == 2
    bad = _write(tmp_path, "bad.csv", "1.0\nzzz\n")
    assert main(["estimate", "--input", bad, "--output", "o.csv"]) == 2
    short = _write(tmp_path, "short.csv", "1.0\n2.0\n3.0\n")
    assert main(["estimate", "--input", short, "--output", "o.csv"]) == 2


def test_cli_output_in_missing_directory_is_data_error(tmp_path):
    out = str(tmp_path / "nodir" / "x.csv")
    assert main(["simulate", "tvar", "--T", "64", "--output", out]) == 2


def test_cli_config_without_value_is_usage_error():
    assert main(["--config"]) == 1
    assert main(["verify", "--config"]) == 1


def test_cli_config_file_precedence(tmp_path):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "256", "--seed", "5", "--output", sim])
    cfg = _write(tmp_path, "run.cfg", "binwidth=64\nmax-lag=3\n")
    est1 = str(tmp_path / "e1.csv")
    est2 = str(tmp_path / "e2.csv")
    # config supplies binwidth and max-lag
    assert main(["--config", cfg, "estimate", "--input", sim, "--output", est1]) == 0
    lines = Path(est1).read_text().splitlines()
    assert len(lines[1:]) % 3 == 0

    def interior_ci(path):
        rows = [r.split(",") for r in Path(path).read_text().splitlines()[1:] if r.endswith(",0")]
        return float(rows[len(rows) // 2][5])

    assert interior_ci(est1) == pytest.approx(1.96 / np.sqrt(64), abs=1e-6)
    # explicit flag overrides the config value
    assert main(["--config", cfg, "estimate", "--input", sim, "--output", est2,
                 "--binwidth", "100"]) == 0
    assert interior_ci(est2) == pytest.approx(1.96 / np.sqrt(100), abs=1e-6)


def test_cli_flag_with_equals_overrides_config(tmp_path):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "256", "--seed", "5", "--output", sim])
    cfg = _write(tmp_path, "run.cfg", "max_lag=2\nbinwidth=64\ndemean=true\n")
    est = str(tmp_path / "e.csv")
    assert main(["--config", cfg, "estimate", "--input", sim, "--output", est,
                 "--max-lag=3"]) == 0
    lags = {r.split(",")[2] for r in Path(est).read_text().splitlines()[1:]}
    assert lags == {"1", "2", "3"}
    # a point flag on the command line replaces the config's point choice
    cfg = _write(tmp_path, "pts.cfg", "points=10,20\n")
    assert main(["--config", cfg, "estimate", "--input", sim, "--output", est,
                 "--binwidth", "64", "--stride=64"]) == 0
    points = {r.split(",")[0] for r in Path(est).read_text().splitlines()[1:]}
    assert points == {"0", "64", "128", "192"}


def test_cli_config_defaults_do_not_outlive_their_call(tmp_path):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "256", "--seed", "5", "--output", sim])
    cfg = _write(tmp_path, "run.cfg", "max-lag=2\nbinwidth=64\n")
    est = tmp_path / "e.csv"
    assert main(["--config", cfg, "estimate", "--input", sim, "--output", str(est)]) == 0
    assert {r.split(",")[2] for r in est.read_text().splitlines()[1:]} == {"1", "2"}
    assert main(["estimate", "--input", sim, "--output", str(est)]) == 0
    ref = tmp_path / "ref.csv"
    write_long_csv(str(ref), windowed_lpacf(read_series(sim)), 256)
    assert est.read_bytes() == ref.read_bytes()


def test_cli_bad_config_value_is_usage_error(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "128", "--seed", "0", "--output", sim])
    est = str(tmp_path / "e.csv")
    for line, needle in (
        ("binwidth=abc", "binwidth: invalid int value 'abc'"),
        ("method=spline", "method must be one of"),
        ("demean=yes", "demean must be true or false"),
    ):
        cfg = _write(tmp_path, "bad.cfg", line + "\n")
        assert main(["--config", cfg, "estimate", "--input", sim, "--output", est]) == 1
        assert needle in capsys.readouterr().err


def test_cli_config_with_bom_keeps_its_first_key(tmp_path):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "256", "--seed", "5", "--output", sim])
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfmax_lag=2\nbinwidth=64\n")
    est = str(tmp_path / "e.csv")
    assert main(["--config", str(cfg), "estimate", "--input", sim, "--output", est]) == 0
    lags = {r.split(",")[2] for r in Path(est).read_text().splitlines()[1:]}
    assert lags == {"1", "2"}


def test_cli_non_utf8_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"max_lag=2\n\xff\n")
    assert main(["--config", str(cfg), "verify"]) == 1
    assert f"config file {cfg}: not UTF-8 text" in capsys.readouterr().err


def test_cli_benchmark_small(tmp_path):
    out = str(tmp_path / "rmse.csv")
    assert main(
        ["benchmark", "--study", "tvar", "--T", "256", "--reps", "3",
         "--method", "windowed", "--binwidth", "48", "--max-lag", "2",
         "--seed", "0", "--output", out]
    ) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("estimator,lag,rmse")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "flags, bandwidth",
    [
        (["--method", "windowed", "--binwidth", "40"], "40"),
        (["--method", "windowed"], "148"),  # default_bandwidth(512)
        (["--method", "wavelet", "--max-scale", "6", "--binwidth", "40"], ""),
    ],
    ids=["windowed-binwidth", "windowed-default", "wavelet-binwidth"],
)
def test_cli_benchmark_reports_the_window_used(tmp_path, flags, bandwidth):
    out = str(tmp_path / "rmse.csv")
    argv = ["benchmark", "--reps", "2", "--max-lag", "1", "--output", out] + flags
    assert main(argv) == 0
    rows = [line.split(",") for line in Path(out).read_text().splitlines()]
    assert rows[0][6] == "bandwidth"
    assert [row[6] for row in rows[1:]] == [bandwidth]


def test_cli_benchmark_every_replicate_excluded(tmp_path, capsys):
    # max-lag 10 on T=64 drops the last 10 points, more than 10% of them;
    # J*=4 keeps the boundary margin, 2^3 + 10, clear of the middle
    out = str(tmp_path / "rmse.csv")
    assert main(
        ["benchmark", "--T", "64", "--method", "wavelet", "--max-lag", "10",
         "--max-scale", "4", "--reps", "3", "--output", out]
    ) == 2
    assert (
        "all 3 of 3 replicates were excluded: 0 with no point outside the boundary"
        " margin, 3 with more than 10% of points dropped"
    ) in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, margin, fits",
    [
        ([], 129, 7),
        (["--max-lag", "4"], 132, 7),
        (["--study", "tvar", "--T", "128", "--max-scale", "7", "--max-lag", "2"], 66, 6),
    ],
    ids=["piecewise-default", "piecewise-max-lag-4", "tvar-128"],
)
def test_cli_benchmark_wavelet_refuses_a_margin_that_covers_every_point(
    tmp_path, capsys, monkeypatch, flags, margin, fits
):
    # at T=256 the default J*=8 gives the margin 2^7 + max_lag >= T/2, so
    # no point lies outside it: the library refuses before a replicate is
    # simulated, naming the largest J* that leaves an interior point
    out = str(tmp_path / "rmse.csv")
    argv = ["benchmark", "--study", "piecewise-ar", "--method", "wavelet",
            "--max-lag", "1", "--reps", "2", "--output", out] + flags
    simulated = []
    monkeypatch.setattr(simulate, "_ar_recursion", lambda *a: simulated.append(a))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"gives a boundary margin of {margin} points at each end" in err
    assert f"max_scale={fits} is the largest that leaves an interior point" in err
    assert not simulated and not os.path.exists(out)
    monkeypatch.undo()
    assert main(argv + ["--max-scale", str(fits)]) == 0
    assert Path(out).read_text().splitlines()[1].startswith("wavelet,1,")


def test_cli_estimate_whose_every_solve_fails_exits_2_not_3(tmp_path, capsys, monkeypatch):
    # exit code 3 is not reached from the CLI: a point whose solve fails
    # numerically is dropped, and an estimate that keeps no point is a data
    # error; the lattice serves no point here, so every point reaches the solves
    sim = str(tmp_path / "s.csv")
    out = str(tmp_path / "w.csv")
    assert main(["simulate", "tvar", "--T", "256", "--seed", "0", "--output", sim]) == 0
    monkeypatch.setattr(
        estimators,
        "_lattice",
        lambda C, at, max_lag: (np.zeros((len(at), max_lag)), np.zeros(len(at), dtype=bool)),
    )
    monkeypatch.setattr(estimators, "_gated_solve", lambda M, r: np.full(r.shape, np.nan))
    assert main(["estimate", "--method", "wavelet", "--input", sim, "--output", out]) == 2
    assert (
        "data error: no estimate to write: all points were dropped (256)"
        in capsys.readouterr().err
    )
    assert not os.path.exists(out)


def test_cli_benchmark_wavelet_refuses_a_max_lag_no_scale_fits(
    tmp_path, capsys, monkeypatch
):
    # T=16: even J*=1 gives the margin 1 + 8, which covers every point
    out = str(tmp_path / "rmse.csv")
    argv = ["benchmark", "--T", "16", "--method", "wavelet", "--max-lag", "8",
            "--reps", "2", "--output", out]
    simulated = []
    monkeypatch.setattr(simulate, "_ar_recursion", lambda *a: simulated.append(a))
    assert main(argv) == 1
    assert "no max_scale leaves an interior point at max_lag=8" in capsys.readouterr().err
    assert not simulated and not os.path.exists(out)


def test_cli_benchmark_max_lag_zero_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "rmse.csv")
    assert main(["benchmark", "--max-lag", "0", "--reps", "3", "--output", out]) == 1
    assert "error: no lags requested" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("T", ["0", "256", "4096"])
def test_cli_benchmark_piecewise_refuses_T(tmp_path, capsys, T):
    # the piecewise-ar study has a fixed length; --T must not pass unnoticed
    out = str(tmp_path / "rmse.csv")
    argv = ["benchmark", "--study", "piecewise-ar", "--T", T, "--reps", "2",
            "--binwidth", "48", "--max-lag", "1", "--output", out]
    assert main(argv) == 1
    assert "--T applies to the tvar study only" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main([a for a in argv if a not in ("--T", T)]) == 0


def test_cli_zero_or_empty_value_is_not_taken_as_absent(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "128", "--seed", "0", "--output", sim])
    est = str(tmp_path / "e.csv")
    for argv, needle in (
        (["estimate", "--input", sim, "--output", est, "--stride", "0"],
         "stride=0 must be >= 1"),
        (["estimate", "--input", sim, "--output", est, "--points", ","],
         "--points is empty"),
        (["benchmark", "--T", "0", "--reps", "3", "--output", est],
         "T=0 must be positive"),
    ):
        assert main(argv) == 1
        assert needle in capsys.readouterr().err
        assert not os.path.exists(est)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["simulate", "tvar", "--seed", "-1"], "seed=-1 must be >= 0"),
        (["simulate", "piecewise-ar", "--seed", "-3"], "seed=-3 must be >= 0"),
        (["benchmark", "--seed", "-1", "--reps", "2"], "seed=-1 must be >= 0"),
        (["simulate", "tvar", "--sigma", "nan"], "sigma=nan must be finite and > 0"),
        (["simulate", "tvar", "--sigma", "inf"], "sigma=inf must be finite and > 0"),
        (["simulate", "tvar", "--sigma", "-1"], "sigma=-1.0 must be finite and > 0"),
    ],
)
def test_cli_bad_seed_or_sigma_is_usage_error(tmp_path, capsys, argv, needle):
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, sigma",
    [
        (["simulate", "tvar", "--T", "64", "--sigma", "1e308"], "1e+308"),
        (["simulate", "tvar", "--T", "64", "--sigma", "1.7e308"], "1.7e+308"),
        # the innovations are finite and the recursion reaches inf
        (["simulate", "piecewise-ar", "--segments", "64:1.9,-0.95", "--sigma", "1e307"],
         "1e+307"),
    ],
)
def test_cli_simulate_refuses_a_sigma_whose_path_overflows(tmp_path, capsys, argv, sigma):
    # a usage error naming sigma, with no RuntimeWarning (an error under
    # this suite's warning filter) and no file
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: sigma={sigma} is too large: the path overflows\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["--phi-start", "1e308", "--phi-end=-1e308"], ["--phi-start", "inf"]]
)
def test_cli_simulate_refuses_a_non_finite_coefficient_path(tmp_path, capsys, argv):
    # the path evaluates to nan at t=0 (inf * 0); the stationarity check
    # refuses it with no RuntimeWarning (an error under this suite's filter)
    out = tmp_path / "out.csv"
    assert main(["simulate", "tvar", *argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: coefficient path is not instantaneously stationary at t=0: phi=[nan]\n"
    )
    assert not out.exists()


def test_cli_pacf_of_a_series_too_short_for_any_lag_is_a_data_error(tmp_path, capsys):
    # as estimate says of the same file; a max_lag out of range for a
    # longer series stays a usage error
    src, out = tmp_path / "x.txt", tmp_path / "pacf.csv"
    src.write_text("1.5\n")
    assert main(["pacf", "--input", str(src), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "data error: series too short for estimation: T=1 < 4\n"
    src.write_text("1.5\n-0.5\n2.0\n0.25\n")
    assert main(["pacf", "--input", str(src), "--output", str(out), "--max-lag", "2"]) == 1
    assert "max_lag=2 outside [1, T/2) for T=4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T, method", [("1", "windowed"), ("7", "windowed"), ("4", "wavelet")])
def test_cli_benchmark_refuses_a_T_too_short_to_estimate(tmp_path, capsys, T, method):
    # a usage error before any replicate is simulated, like --T 0
    out = tmp_path / "rmse.csv"
    argv = ["benchmark", "--T", T, "--method", method, "--reps", "2"]
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: T={T} is too short for estimation: T < 8\n"
    assert not out.exists()


def test_cli_benchmark_wavelet_refuses_a_non_dyadic_T(tmp_path, capsys, monkeypatch):
    # a study does not pad, so the refusal names T, not padding
    out = tmp_path / "rmse.csv"
    argv = ["benchmark", "--method", "wavelet", "--T", "100", "--reps", "2"]
    simulated = []
    monkeypatch.setattr(simulate, "_ar_recursion", lambda *a: simulated.append(a))
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: T=100 is not a power of two, as the wavelet estimator needs without padding\n"
    )
    assert not simulated and not out.exists()


_HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["estimate", "--points", _HUGE + "999"], "points outside [0, 255]"),
        (["estimate", "--method", "wavelet", "--smooth-span", _HUGE],
         f"span={_HUGE} must be nonnegative and <= 255 for T=256"),
        (["simulate", "tvar", "--T", _HUGE], f"T={_HUGE} must be positive and <= {MAX_LENGTH}"),
        (["benchmark", "--T", _HUGE, "--reps", "2"],
         f"T={_HUGE} must be positive and <= {MAX_LENGTH}"),
        (["benchmark", "--T", "64", "--reps", "3", "--max-lag", _HUGE],
         f"max_lag={_HUGE} outside [1, L/2) for L=28"),
        (["benchmark", "--T", "64", "--reps", _HUGE],
         f"reps={_HUGE} must be >= 2 and <= {MAX_LENGTH}"),
        (["simulate", "piecewise-ar", "--segments", f"{_HUGE}:0.1"],
         f"segments total {_HUGE} samples, more than {MAX_LENGTH}"),
    ],
    ids=[
        "points", "smooth-span", "simulate-T", "benchmark-T", "benchmark-max-lag",
        "benchmark-reps", "segment",
    ],
)
def test_cli_refuses_a_point_or_length_beyond_any_array(
    tmp_path, capsys, monkeypatch, argv, needle
):
    # each is refused with its value before numpy is asked for such an array,
    # and before a study reads a lag of its range
    def lags_read(lags):
        raise AssertionError(f"lags read: {lags!r}")

    monkeypatch.setattr(simulate, "_checked_lags", lags_read)
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "tvar", "--T", "256", "--seed", "0", "--output", str(sim)]) == 0
    capsys.readouterr()
    if argv[0] == "estimate":
        argv = argv + ["--input", str(sim)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not out.exists()


def test_cli_refuses_a_smoothing_span_of_T_or_more(tmp_path, capsys, monkeypatch):
    # the reflect-padded smoothing rows grow with the span, not with T: a span
    # of T or more is a usage error naming the largest, T - 1, and writes no
    # file, padded or not; a study refuses it before it simulates
    sim, out = tmp_path / "sim.csv", tmp_path / "out.csv"
    for T in ("256", "300"):
        assert main(["simulate", "tvar", "--T", T, "--seed", "0", "--output", str(sim)]) == 0
        argv = ["estimate", "--input", str(sim), "--output", str(out), "--method", "wavelet"]
        argv += ["--pad"] if T == "300" else []
        for span in (T, "100000000"):
            capsys.readouterr()
            assert main(argv + ["--smooth-span", span]) == 1
            err = capsys.readouterr().err
            assert err == f"error: span={span} must be nonnegative and <= {int(T) - 1} for T={T}\n"
            assert not out.exists()
    # T - 1 still runs
    assert main(argv + ["--smooth-span", "299"]) == 0 and out.exists()
    simulated = []
    monkeypatch.setattr(simulate, "_ar_recursion", lambda *a: simulated.append(a))
    study = ["benchmark", "--method", "wavelet", "--T", "256", "--max-scale", "6", "--reps", "3"]
    rmse = tmp_path / "rmse.csv"
    capsys.readouterr()
    assert main(study + ["--smooth-span", "256", "--output", str(rmse)]) == 1
    assert capsys.readouterr().err == "error: span=256 must be nonnegative and <= 255 for T=256\n"
    assert not simulated and not rmse.exists()


def test_cli_stride_of_T_or_more_estimates_point_0_alone(tmp_path):
    # a stride of T or more, however large, keeps point 0 alone
    sim = str(tmp_path / "sim.csv")
    assert main(["simulate", "tvar", "--T", "256", "--seed", "0", "--output", sim]) == 0
    outs = []
    for flag in (["--points", "0"], ["--stride", "256"], ["--stride", _HUGE]):
        outs.append(tmp_path / f"{len(outs)}.csv")
        assert main(["estimate", "--input", sim, "--output", str(outs[-1])] + flag) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_cli_stride_one_is_every_point_and_overrides_config_points(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "tvar", "--T", "256", "--seed", "5", "--output", sim])
    outs = {}
    for name, extra in (("default", []), ("stride1", ["--stride", "1"])):
        outs[name] = tmp_path / f"{name}.csv"
        argv = ["estimate", "--input", sim, "--output", str(outs[name])]
        assert main(argv + extra) == 0
    cfg = _write(tmp_path, "st4.cfg", "stride=4\n")
    outs["cfg"] = tmp_path / "cfg.csv"
    assert main(["--config", cfg, "estimate", "--input", sim, "--output",
                 str(outs["cfg"]), "--stride", "1"]) == 0
    assert outs["default"].read_bytes() == outs["stride1"].read_bytes()
    assert outs["default"].read_bytes() == outs["cfg"].read_bytes()
    # --stride 0 chooses the points too: the config's points do not stand in for it
    cfg = _write(tmp_path, "pts.cfg", "points=10,20\n")
    assert main(["--config", cfg, "estimate", "--input", sim, "--output",
                 str(tmp_path / "e.csv"), "--stride", "0"]) == 1
    assert "stride=0 must be >= 1" in capsys.readouterr().err
    assert main(["estimate", "--input", sim, "--output", str(tmp_path / "e.csv"),
                 "--all-points"]) == 1
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize(
    "widths, message",
    [("64,8", "max_lag=4 outside [1, L/2) for L=8"), ("64,512", "bandwidth L=512 must lie in (1, T=512)")],
)
def test_cli_sweep_bandwidth_checks_every_width_before_writing(tmp_path, capsys, widths, message):
    sim = str(tmp_path / "sim.csv")
    assert main(["simulate", "tvar", "--T", "512", "--seed", "4", "--output", sim]) == 0
    stem = str(tmp_path / "sweep.csv")
    assert main(
        ["sweep-bandwidth", "--input", sim, "--output", stem, "--widths", widths]
    ) == 1
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["sim.csv"]


def test_cli_benchmark_refuses_demean(tmp_path, capsys):
    # the Monte-Carlo study never demeaned; the switch belongs to estimate only
    out = str(tmp_path / "rmse.csv")
    assert main(["benchmark", "--demean", "--reps", "2", "--output", out]) == 1
    assert "unrecognized arguments: --demean" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["estimate", "sweep-bandwidth"])
def test_cli_failed_plot_writes_no_csv(tmp_path, capsys, command):
    # a constant series has zero variance once demeaned, so no point survives
    sim = _write(tmp_path, "flat.csv", "1.0\n" * 128)
    argv = [command, "--input", sim, "--output", str(tmp_path / "e.csv"),
            "--demean", "--plot", str(tmp_path / "e.svg")]
    argv += ["--binwidth", "32"] if command == "estimate" else ["--widths", "32"]
    assert main(argv) == 2
    assert "no estimate to write: all points were dropped (128)" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["flat.csv"]


@pytest.mark.parametrize("command", ["estimate", "sweep-bandwidth", "pacf"])
@pytest.mark.parametrize("c", ["1.5", "0.3", "-7.25", "1e-3", "1e300"])
def test_cli_demeaned_constant_series_writes_nothing(tmp_path, capsys, command, c):
    # the demeaned series is rounding noise at every window width, and over
    # the whole series
    sim = _write(tmp_path, "flat.csv", f"{c}\n" * 128)
    argv = [command, "--input", sim, "--output", str(tmp_path / "e.csv"), "--demean"]
    argv += {"estimate": ["--binwidth", "28"], "sweep-bandwidth": ["--widths", "10,28,32"],
             "pacf": ["--max-lag", "3"]}[command]
    assert main(argv) == 2
    needle = {"pacf": "data error: series has zero sample variance"}.get(
        command, "no estimate to write: all points were dropped (128)"
    )
    assert needle in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["flat.csv"]
    # a variation at 1e-6 of the level is far above that rounding
    noise = np.random.default_rng(0).standard_normal(128)
    values = "".join(f"{float(c) * (1 + 1e-6 * v)!r}\n" for v in noise.tolist())
    varied = _write(tmp_path, "varied.csv", values)
    assert main([command, "--input", varied] + argv[3:]) == 0


@pytest.mark.parametrize("plot", [False, True], ids=["csv", "plot"])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--method", "windowed", "--binwidth", "32"],
        ["estimate", "--method", "wavelet"],
        ["sweep-bandwidth", "--widths", "32"],
    ],
    ids=["windowed", "wavelet", "sweep-bandwidth"],
)
def test_cli_grid_with_no_points_writes_nothing(tmp_path, capsys, argv, plot):
    # an all-zero series has zero variance everywhere, so no point is kept
    sim = _write(tmp_path, "zero.csv", "0.0\n" * 128)
    argv = argv + ["--input", sim, "--output", str(tmp_path / "e.csv")]
    if plot:
        argv += ["--plot", str(tmp_path / "e.svg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: no estimate to write: all points were dropped (128)")
    assert sorted(os.listdir(tmp_path)) == ["zero.csv"]


@pytest.mark.parametrize("command", ["estimate", "sweep-bandwidth"])
def test_cli_unwritable_plot_writes_no_csv(tmp_path, capsys, command):
    # the grid has points, but the SVG's directory does not exist
    values = np.random.default_rng(0).standard_normal(128).tolist()
    sim = _write(tmp_path, "x.csv", "".join(f"{v!r}\n" for v in values))
    argv = [command, "--input", sim, "--output", str(tmp_path / "e.csv"),
            "--plot", str(tmp_path / "missing" / "e.svg")]
    argv += ["--binwidth", "32"] if command == "estimate" else ["--widths", "32,40"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert sorted(os.listdir(tmp_path)) == ["x.csv"]


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 745. GiB for an array with shape (100000000000,)",
         "data error: Unable to allocate 745. GiB for an array with shape (100000000000,)"),
        ("", "data error: out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_cli_allocation_failure_is_a_data_error(tmp_path, capsys, monkeypatch, message, line):
    # a length below MAX_LENGTH passes every check and can still not fit in
    # memory: exit 2 with one line, no traceback and no file
    def simulate_tvar(*args):
        raise MemoryError(message)

    monkeypatch.setattr(locpacf.cli, "simulate_tvar", simulate_tvar)
    out = tmp_path / "big.csv"
    assert main(["simulate", "tvar", "--T", "100000000000", "--output", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert os.listdir(tmp_path) == []


def test_cli_verify_imports_no_scipy():
    # numpy is the one runtime dependency; no command may pull in scipy
    code = (
        "import sys; from locpacf.cli import main; assert main(['verify']) == 0; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(locpacf.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


# A fuzz of the data commands and of simulate: small argv drawn around each
# flag's valid range, on series that include huge, tiny, constant and
# all-zero ones.


@st.composite
def _fuzz_series(draw):
    T = draw(st.integers(1, 160), label="T")
    kind = draw(
        st.sampled_from(["normal", "huge", "tiny", "subnormal", "constant", "zeros", "spike"]),
        label="series",
    )
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal(T)
    if kind in ("huge", "tiny", "subnormal"):
        x *= {"huge": 1e300, "tiny": 1e-300, "subnormal": 1e-315}[kind]
    elif kind in ("constant", "zeros"):
        x[:] = x[0] if kind == "constant" else 0.0
    elif kind == "spike":
        x[:] = 0.0
        x[T // 2] = 1.0
    return x


# innovation scales from subnormal to overflowing, and the invalid ones
_FUZZ_SIGMAS = [
    "1e-320", "1e-300", "1", "1e150", "1e300", "1e307", "1e308", "0", "-1", "inf", "nan",
]

# mostly the small lags the commands take, now and then 0 or one too many
_FUZZ_MAX_LAG = st.sampled_from([0, 1, 1, 2, 2, 3, 4, 6])


def _maybe(draw, flag, strategy, label):
    value = draw(st.none() | strategy, label=label)
    return [] if value is None else [flag, str(value)]


@st.composite
def _fuzz_case(draw):
    """(argv without --input/--output, series or None, command)."""
    command = draw(
        st.sampled_from(["estimate", "sweep-bandwidth", "pacf", "benchmark", "simulate"]),
        label="command",
    )
    if command == "simulate":
        sigma = draw(st.sampled_from(_FUZZ_SIGMAS), label="sigma")
        argv = ["simulate"]
        if draw(st.booleans(), label="tvar"):
            coef = st.floats(-1.2, 1.2)
            argv += ["tvar", "--T", str(draw(st.integers(1, 192), label="T"))]
            argv += ["--phi-start", str(draw(coef, label="phi_start"))]
            argv += ["--phi-end", str(draw(coef, label="phi_end"))]
        else:
            # bounded lengths: the coefficient table has a row per step
            segment = st.tuples(st.integers(1, 64), st.lists(st.floats(-1.2, 1.2), max_size=3))
            segments = draw(st.lists(segment, min_size=1, max_size=3), label="segments")
            text = ";".join(f"{n}:{','.join(map(str, c))}" for n, c in segments)
            argv += ["piecewise-ar", "--segments", text]
        argv += ["--sigma", sigma, "--seed", str(draw(st.integers(-1, 1000), label="seed"))]
        return argv, None, command
    if command == "benchmark":
        study = draw(st.sampled_from(["tvar", "piecewise-ar"]), label="study")
        argv = ["benchmark", "--study", study, "--reps", str(draw(st.integers(2, 5)))]
        argv += ["--seed", str(draw(st.integers(0, 1000), label="seed"))]
        argv += ["--max-lag", str(draw(_FUZZ_MAX_LAG, label="max_lag"))]
        if study == "tvar":
            argv += ["--T", str(draw(st.integers(4, 192), label="bench T"))]
        if draw(st.booleans(), label="wavelet"):
            argv += ["--method", "wavelet"] + _maybe(
                draw, "--max-scale", st.integers(1, 8), "max_scale"
            )
        else:
            argv += _maybe(draw, "--binwidth", st.integers(2, 130), "binwidth")
            argv += ["--kernel", draw(st.sampled_from(["rectangular", "epanechnikov"]))]
        return argv, None, command
    x = draw(_fuzz_series())
    T = len(x)
    demean = ["--demean"] if draw(st.booleans(), label="demean") else []
    if command == "pacf":
        max_lag = draw(st.integers(0, T // 2 + 1), label="max_lag")
        return ["pacf", "--max-lag", str(max_lag)] + demean, x, command
    kernel = ["--kernel", draw(st.sampled_from(["rectangular", "epanechnikov"]))]
    max_lag = ["--max-lag", str(draw(_FUZZ_MAX_LAG, label="max_lag"))]
    if command == "sweep-bandwidth":
        widths = draw(st.lists(st.integers(1, T + 2), min_size=1, max_size=3), label="widths")
        argv = ["sweep-bandwidth", "--widths", ",".join(map(str, widths))]
        return argv + kernel + max_lag + demean, x, command
    argv = ["estimate"] + max_lag + demean
    if draw(st.booleans(), label="wavelet"):
        argv += ["--method", "wavelet"]
        argv += _maybe(draw, "--max-scale", st.integers(0, 8), "max_scale")
        argv += _maybe(draw, "--smooth-span", st.integers(0, 12), "span")
        argv += ["--pad"] if draw(st.booleans(), label="pad") else []
    else:
        argv += kernel + _maybe(draw, "--binwidth", st.integers(-1, T + 2), "binwidth")
    selection = draw(st.sampled_from(["all", "stride", "points"]), label="selection")
    if selection == "stride":
        argv += ["--stride", str(draw(st.integers(-1, T + 2), label="stride"))]
    elif selection == "points":
        picked = draw(st.lists(st.integers(-2, T + 2), min_size=1, max_size=8), label="points")
        argv += ["--points", ",".join(map(str, picked))]
    return argv, x, command


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_long_csv(path, max_lag, requested, windowed):
    """Blocks of max_lag rows, lags 1..max_lag, at requested points, with
    every estimate finite and in [-1, 1]."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == LONG_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert rows and len(rows) % max_lag == 0
    assert len(rows) // max_lag <= len(requested)
    for start in range(0, len(rows), max_lag):
        block = rows[start : start + max_lag]
        assert {row[0] for row in block} == {block[0][0]}
        assert int(block[0][0]) in requested
        assert [int(row[2]) for row in block] == list(range(1, max_lag + 1))
    values = np.array([[float(v) for v in row[3:6] if v != ""] for row in rows])
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values[:, 0]) <= 1.0)
    assert values.shape[1] == (3 if windowed else 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=360, deadline=None)
@given(_fuzz_case())
def test_cli_fuzz_exits_cleanly_with_finite_estimates(fuzz_dir, case):
    argv, x, command = case
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as work:
        out = os.path.join(work, "out.csv")
        if x is not None:
            series = os.path.join(work, "x.txt")
            write_series(series, TimeSeries(x))
            argv = argv + ["--input", series]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--output", out])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            return
        if command == "simulate":
            if "tvar" in argv:
                T = int(_flag(argv, "--T", ""))
            else:
                segments = _flag(argv, "--segments", "").split(";")
                T = sum(int(part.split(":")[0]) for part in segments)
            # read_series rejects a non-finite value
            assert read_series(out).values.shape == (T,)
            return
        max_lag = int(_flag(argv, "--max-lag", 10 if command == "pacf" else 4))
        if command == "benchmark":
            lines = Path(out).read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert [int(row[1]) for row in rows] == list(range(1, max_lag + 1))
            stats = np.array([[float(row[2]), float(row[3])] for row in rows])
            assert np.all(np.isfinite(stats)) and np.all(stats >= 0.0)
            return
        T = len(x)
        if command == "pacf":
            _check_long_csv(out, max_lag, {T // 2}, True)
        elif command == "sweep-bandwidth":
            for L in set(_flag(argv, "--widths", "").split(",")):
                path = os.path.join(work, f"out_L{L}.csv")
                _check_long_csv(path, max_lag, set(range(T)), True)
        else:
            requested = set(range(0, T, int(_flag(argv, "--stride", 1))))
            if "--points" in argv:
                requested = [int(v) for v in _flag(argv, "--points", "").split(",")]
            windowed = "wavelet" not in argv
            _check_long_csv(out, max_lag, requested, windowed)

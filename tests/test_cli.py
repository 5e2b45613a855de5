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
from locpacf.cli import main
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
    # max-lag 10 on T=64 leaves the wavelet estimator too few points
    out = str(tmp_path / "rmse.csv")
    assert main(
        ["benchmark", "--T", "64", "--method", "wavelet", "--max-lag", "10",
         "--reps", "3", "--output", out]
    ) == 2
    assert "all 3 of 3 replicates were excluded" in capsys.readouterr().err


def test_cli_benchmark_piecewise_wavelet_needs_a_smaller_max_scale(tmp_path, capsys):
    # at T=256 the default J*=8 gives the margin 2^7 + max_lag >= T/2, so
    # no point lies outside it; J*=7 leaves an interior
    out = str(tmp_path / "rmse.csv")
    argv = ["benchmark", "--study", "piecewise-ar", "--method", "wavelet",
            "--max-lag", "1", "--reps", "2", "--output", out]
    assert main(argv) == 2
    assert (
        "all 2 of 2 replicates were excluded: 2 with no point outside the boundary"
        " margin, 0 with more than 10% of points dropped"
    ) in capsys.readouterr().err
    assert main(argv + ["--max-scale", "7"]) == 0
    assert Path(out).read_text().splitlines()[1].startswith("wavelet,1,")


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


# A fuzz of the data commands: small argv drawn around each flag's valid
# range, on series that include huge, tiny, constant and all-zero ones.


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


# mostly the small lags the commands take, now and then 0 or one too many
_FUZZ_MAX_LAG = st.sampled_from([0, 1, 1, 2, 2, 3, 4, 6])


def _maybe(draw, flag, strategy, label):
    value = draw(st.none() | strategy, label=label)
    return [] if value is None else [flag, str(value)]


@st.composite
def _fuzz_case(draw):
    """(argv without --input/--output, series or None, command)."""
    command = draw(
        st.sampled_from(["estimate", "sweep-bandwidth", "pacf", "benchmark"]), label="command"
    )
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


@settings(max_examples=300, deadline=None)
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

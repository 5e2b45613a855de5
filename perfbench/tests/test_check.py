"""The output checks that decide which ops count as failed."""

import dataclasses
import os
from time import perf_counter

import numpy as np
import pytest

import check
from run import OpServer, Ops, pinned_env
from workloads import WORKLOADS, OpForm, Workload

HEADER = check.LONG_HEADER + "\n"


def _fmt(x):
    return format(float(x), ".17g")


def _write_long(path, T, est, ci=None):
    lines = [HEADER]
    for p in range(est.shape[0]):
        for lag in range(1, est.shape[1] + 1):
            lo, hi = ("", "") if ci is None else (_fmt(-ci[p]), _fmt(ci[p]))
            lines.append(f"{p},{_fmt(p / T)},{lag},{_fmt(est[p, lag - 1])},{lo},{hi},{int(p < 2)}\n")
    path.write_text("".join(lines))
    return str(path)


@pytest.fixture
def good(tmp_path):
    rng = np.random.default_rng(3)
    est = rng.uniform(-0.9, 0.9, size=(16, 3))
    ci = np.full(16, 0.3)
    path = _write_long(tmp_path / "good.csv", 16, est, ci)
    ref = check.decode_long(check.encode_long(check.parse_long_csv(path)))
    return tmp_path, est, ci, ref


def test_unchanged_output_passes(good):
    tmp, est, ci, ref = good
    out = check.parse_long_csv(str(tmp / "good.csv"))
    check.check_long_invariants(out, 16, (16, 16), windowed=True)
    check.check_long_reference(out, ref)
    assert np.max(np.abs(ref["est"] - est.ravel())) <= 2.0**-33


def test_estimate_perturbed_by_1e6_fails(good):
    tmp, est, ci, ref = good
    est = est.copy()
    est[5, 1] += 1e-6
    out = check.parse_long_csv(_write_long(tmp / "bad.csv", 16, est, ci))
    check.check_long_invariants(out, 16, (16, 16), windowed=True)  # still plausible
    with pytest.raises(check.CheckFailed, match="row 16"):
        check.check_long_reference(out, ref)


def test_missing_row_fails(good):
    tmp, est, ci, ref = good
    lines = (tmp / "good.csv").read_text().splitlines(keepends=True)
    del lines[7]
    (tmp / "short.csv").write_text("".join(lines))
    out = check.parse_long_csv(str(tmp / "short.csv"))
    with pytest.raises(check.CheckFailed):
        check.check_long_reference(out, ref)
    with pytest.raises(check.CheckFailed):
        check.check_long_invariants(out, 16, (16, 16), windowed=True)


def test_changed_ci_field_fails(good):
    tmp, est, ci, ref = good
    ci = ci.copy()
    ci[3] = np.nextafter(ci[3], 1.0)
    out = check.parse_long_csv(_write_long(tmp / "ci.csv", 16, est, ci))
    with pytest.raises(check.CheckFailed, match="ci_lo"):
        check.check_long_reference(out, ref)


def test_rmse_reference_tolerances():
    row = {"estimator": "windowed", "lag": 1, "rmse": 0.2, "stderr": 0.01,
           "replicates": 20, "excluded": 0, "bandwidth": 40}
    ref = [{"rmse": 0.2, "stderr": 0.01, "replicates": 20, "excluded": 0}]
    check.check_rmse([row], ref, reps=20, binwidth=40, lags=1)
    with pytest.raises(check.CheckFailed, match="rmse"):
        check.check_rmse([dict(row, rmse=0.2 * (1 + 1e-8))], ref, reps=20, binwidth=40, lags=1)
    with pytest.raises(check.CheckFailed, match="replicates"):
        check.check_rmse([dict(row, replicates=19, excluded=1)], ref, reps=20, binwidth=40, lags=1)


def _ops(server, workload, work):
    ops = Ops(workload, work, 0)
    ops.server, ops.refs, ops.calib = server, {}, [server.calibrate()]
    return ops


def test_op_that_raises_is_counted_and_the_run_goes_on(tmp_path):
    mc = WORKLOADS["mc-rmse"]
    # ``verify --config`` without a value escapes cli.main as an IndexError
    raises = OpForm("raises", "rmse", lambda work, seed, k: ["verify", "--config"],
                    lambda work: [])
    workload = Workload("t", "", mc.inputs, {"raises": raises, **mc.forms}, (), "")
    server = OpServer(pinned_env(), perf_counter() + 60)
    try:
        ops = _ops(server, workload, str(tmp_path))
        assert not ops.run("raises", 0)["ok"]
        assert ops.run("piecewise-ar", 0)["ok"]
        assert (ops.attempted, ops.failed) == (2, 1)
        assert "IndexError" in ops.failures[0]
        # an op whose output cannot be written fails too
        elsewhere = _ops(server, workload, str(tmp_path / "missing"))
        assert not elsewhere.run("tvar", 1)["ok"]
        assert elsewhere.failed == 1
    finally:
        server.close()


def test_op_that_writes_nothing_is_not_checked_on_a_stale_file(tmp_path):
    mc = WORKLOADS["mc-rmse"]
    # exits 0 but writes elsewhere; its declared output is the file the
    # previous op wrote
    silent = dataclasses.replace(
        mc.forms["piecewise-ar"], name="silent",
        argv=lambda work, seed, k: ["simulate", "tvar", "--T", "64", "--seed", "0",
                                    "--output", os.path.join(work, "other.txt")])
    workload = Workload("t", "", mc.inputs, {"silent": silent, **mc.forms}, (), "")
    server = OpServer(pinned_env(), perf_counter() + 60)
    try:
        ops = _ops(server, workload, str(tmp_path))
        assert ops.run("piecewise-ar", 0)["ok"]
        reply = ops.run("silent", 1)
        assert reply["rc"] == 0 and not reply["ok"]
        assert ops.failed == 1
    finally:
        server.close()

"""Simulators, the frozen-coefficient truth oracle, and the RMSE harness."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locpacf import (
    ArPathSpec,
    DataError,
    EstimatorConfig,
    InvalidArgumentError,
    ar_autocovariances,
    classical_pacf,
    levinson_pacf,
    monte_carlo_rmse,
    simulate_piecewise_ar,
    simulate_tvar,
    true_pacf_curve,
    true_tv_pacf,
    windowed_lpacf,
)
from locpacf import estimators
from locpacf.simulate import _ar_recursion, validate_stability

TVAR_STUDY = ArPathSpec.linear_ramp([0.9], [-0.9])
PIECEWISE_STUDY = ArPathSpec.piecewise([(85, [-0.2]), (86, [0.5, 0.2]), (85, [-0.2])])


def test_zero_coefficients_reproduce_innovations():
    spec = ArPathSpec.constant([0.0], sigma=1.0)
    ts = simulate_tvar(spec, 64, 17)
    rng = np.random.default_rng(17)
    eps = rng.standard_normal(64 + spec.burn_in)
    assert np.array_equal(ts.values, eps[spec.burn_in :])


def test_reproducibility_bitwise():
    spec = ArPathSpec.linear_ramp([0.9], [-0.9])
    a = simulate_tvar(spec, 256, 5)
    b = simulate_tvar(spec, 256, 5)
    c = simulate_tvar(spec, 256, 6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_constant_ar1_sample_autocorrelation():
    spec = ArPathSpec.constant([0.5])
    ts = simulate_tvar(spec, 4096, 11)
    x = ts.values
    r1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
    assert r1 == pytest.approx(0.5, abs=0.05)


def test_unstable_path_rejected():
    spec = ArPathSpec.constant([1.05])
    with pytest.raises(InvalidArgumentError, match="t=0"):
        simulate_tvar(spec, 32, 0)
    # ramp that crosses the unit root partway through names the first bad t
    ramp = ArPathSpec.linear_ramp([0.8], [1.2])
    with pytest.raises(InvalidArgumentError, match="at t=32: "):
        simulate_tvar(ramp, 64, 0)
    # the truth refuses an unstable spec, also at lags beyond its order
    with pytest.raises(InvalidArgumentError, match="at t=0: "):
        true_pacf_curve(spec, 8, [2])


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"sigma": float("nan")}, "sigma=nan"),
        ({"sigma": float("inf")}, "sigma=inf"),
        ({"sigma": -1.0}, "sigma=-1.0"),
        ({"burn_in": -3}, "burn_in=-3"),
        ({"burn_in": 2.5}, "burn_in=2.5"),
    ],
)
def test_path_spec_rejects_bad_sigma_and_burn_in(kwargs, needle):
    with pytest.raises(InvalidArgumentError, match=needle):
        ArPathSpec((lambda z: 0.5,), **kwargs)


def test_negative_seed_is_invalid_argument():
    with pytest.raises(InvalidArgumentError, match="seed=-1 must be >= 0"):
        simulate_tvar(TVAR_STUDY, 64, -1)
    config = EstimatorConfig("windowed", binwidth=32, max_lag=1)
    with pytest.raises(InvalidArgumentError, match="seed=-2 must be >= 0"):
        monte_carlo_rmse(TVAR_STUDY, config, 2, [1], -2, 128)


def _accepted(phi):
    """Stationarity verdict of every public route to the step-down check,
    which must agree."""
    verdicts = set()
    for check in (
        lambda: validate_stability(ArPathSpec.constant(phi), 1),
        lambda: true_pacf_curve(ArPathSpec.constant(phi), 1, [1]),
        lambda: true_tv_pacf(ArPathSpec.constant(phi), 0, 1, 1),
        lambda: ar_autocovariances(phi, 1.0, 1),
    ):
        try:
            check()
            verdicts.add(True)
        except InvalidArgumentError:
            verdicts.add(False)
    assert len(verdicts) == 1
    return verdicts.pop()


def _step_up(ks):
    """AR coefficients with reflection coefficients ks (Levinson step-up)."""
    phi = np.zeros(0)
    for k in ks:
        phi = np.append(phi - k * phi[::-1], k)
    return phi


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.3, 1.3), max_size=4))
def test_step_down_matches_root_and_moment_references(ks):
    phi = _step_up(ks)
    roots = np.roots(np.concatenate([[1.0], -phi]))
    modulus = np.max(np.abs(roots), initial=0.0)
    assume(abs(modulus - 1.0) > 1e-6)
    assert _accepted(phi) == (modulus < 1.0)
    if modulus < 1.0:
        spec = ArPathSpec.constant(phi)
        gam = ar_autocovariances(phi, 1.0, len(phi) + 2)
        got = [true_tv_pacf(spec, 0, tau, 1) for tau in range(1, len(phi) + 3)]
        # the moment-equation reference loses digits in proportion to gamma(0)
        assert np.allclose(got, levinson_pacf(gam), rtol=0.0, atol=1e-12 * gam[0])


@pytest.mark.parametrize(
    "phi, accepted",
    [
        ([1 - 1e-12], False),
        ([-(1 - 1e-12)], False),
        ([1 - 1e-11], True),
        ([-(1 - 1e-11)], True),
        ([1.5, -0.5], False),  # unit root
        ([2 * np.cos(0.3), -1.0], False),  # unit-modulus pair; step-down hits 0/0
        ([0.5, 0.6], False),  # |k_2| < 1 but k_1 = 1.25
        ([0.5, np.nan], False),
    ],
)
def test_stability_boundary(phi, accepted):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _accepted(phi) == accepted


def _numpy_scalar_recursion(table, burn_in, sigma, seed):
    """The AR recursion run in place on numpy scalars, the reference for
    _ar_recursion: row 0 frozen over the burn-in, lag terms i = 1..min(p, t)."""
    p = table.shape[1]
    n = len(table) + burn_in
    x = np.random.default_rng(seed).standard_normal(n) * sigma
    coefs = np.concatenate([np.repeat(table[:1], burn_in, axis=0), table])
    for t in range(n):
        for i in range(1, min(p, t) + 1):
            x[t] += coefs[t, i - 1] * x[t - i]
    return x[burn_in:]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda p: st.lists(
            st.lists(st.floats(-0.99, 0.99), min_size=p, max_size=p),
            min_size=2,
            max_size=2,
        )
    ),
    st.integers(1, 300),
    st.integers(0, 600),
    st.floats(0.01, 10.0),
    st.integers(0, 2**32 - 1),
)
@example([[0.95, -0.5], [-0.9, 0.3]], 1, 0, 1.0, 0)
@example([[0.9, 0.1, -0.8], [0.2, -0.7, 0.6]], 300, 0, 2.5, 7)
def test_ar_recursion_matches_numpy_scalar_reference(ends, T, burn_in, sigma, seed):
    # the reflection coefficients move linearly inside (-1, 1), so every row is stable
    ka, kb = np.array(ends[0]), np.array(ends[1])
    table = np.array([_step_up(ka + (kb - ka) * t / T) for t in range(T)])
    table = table.reshape(T, len(ka))
    got = _ar_recursion(table, burn_in, sigma, seed)
    assert got.tobytes() == _numpy_scalar_recursion(table, burn_in, sigma, seed).tobytes()


def test_piecewise_table_matches_searchsorted_at_edges():
    segments = [(85, [-0.2]), (86, [0.5, 0.2]), (1, [0.7, -0.1, 0.3]), (84, [-0.2])]
    spec = ArPathSpec.piecewise(segments)
    lengths = np.array([n for n, _ in segments])
    edges = np.cumsum(lengths) / lengths.sum()
    table = np.zeros((len(segments), 3))
    for row, (_, c) in enumerate(segments):
        table[row, : len(c)] = c
    last = len(segments) - 1
    zs = [0.0, -0.5, 1.5]
    for e in edges:
        zs += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    for z in zs:
        seg = min(int(np.searchsorted(edges, z, side="right")), last)
        assert spec.coefficients(z).tobytes() == table[seg].tobytes()
    T = int(lengths.sum())
    ref = np.array(
        [table[min(int(np.searchsorted(edges, t / T, side="right")), last)] for t in range(T)]
    )
    assert validate_stability(spec, T).tobytes() == ref.tobytes()


def _reference_rmse(spec, config, reps, lags, seed, T):
    """(rmse, stderr, replicates, excluded) per lag from a plain loop over
    simulate_tvar, the estimator and true_pacf_curve, the set of the
    grids' bandwidths, and the replicates excluded for having no interior
    point and for more than 10% of points dropped."""
    truth = true_pacf_curve(spec, T, lags)
    per_rep, bandwidths = [], set()
    no_interior = too_many_dropped = 0
    for r in range(reps):
        grid = config.estimate(simulate_tvar(spec, T, seed + r))
        bandwidths.add(grid.bandwidth)
        interior = grid.boundary == 0
        pts = grid.points[interior]
        n_dropped = len(grid.dropped_points)
        if pts.size == 0:
            no_interior += 1
            continue
        if n_dropped > 0.1 * (len(grid.points) + n_dropped):
            too_many_dropped += 1
            continue
        errs = []
        for i, tau in enumerate(lags):
            e = grid.estimates[interior, tau - 1] - truth[i, pts]
            errs.append(np.sqrt(np.mean(e * e)))
        per_rep.append(errs)
    per_rep = np.asarray(per_rep)
    used = len(per_rep)
    rows = [
        (
            float(np.mean(per_rep[:, i])),
            float(np.std(per_rep[:, i], ddof=1) / np.sqrt(used)),
            used,
            no_interior + too_many_dropped,
        )
        for i in range(len(lags))
    ]
    return rows, bandwidths, (no_interior, too_many_dropped)


@pytest.mark.parametrize(
    "spec, config, reps, lags, seed, T, excluded, batches",
    [
        pytest.param(
            TVAR_STUDY, EstimatorConfig("windowed", binwidth=40, max_lag=2),
            5, [1, 2], 0, 512, 0, [5], id="tvar-windowed",
        ),
        pytest.param(
            PIECEWISE_STUDY, EstimatorConfig("windowed", binwidth=48, max_lag=2),
            5, [1, 2], 1000, 256, 0, [5], id="piecewise-windowed",
        ),
        pytest.param(
            TVAR_STUDY, EstimatorConfig("windowed", max_lag=2),
            3, [1, 2], 7, 256, 0, [3], id="tvar-windowed-default-width",
        ),
        pytest.param(
            TVAR_STUDY,
            EstimatorConfig("windowed", binwidth=33, kernel="rectangular", max_lag=3),
            3, [3, 1], 33, 300, 0, [3], id="tvar-rectangular-unordered-lags",
        ),
        pytest.param(
            TVAR_STUDY, EstimatorConfig("wavelet", max_scale=4, max_lag=2),
            3, [1, 2], 5, 128, 0, [3], id="tvar-wavelet",
        ),
        # max_lag 10 at T=128 drops more than 10% of the points in some replicates
        pytest.param(
            TVAR_STUDY, EstimatorConfig("wavelet", max_scale=4, max_lag=10),
            6, [1, 2], 0, 128, 3, [6], id="tvar-wavelet-excluded",
        ),
        # at T=8192 and max_lag 1 a batch holds 14 replicates
        pytest.param(
            TVAR_STUDY, EstimatorConfig("windowed", max_lag=1),
            16, [1], 3, 8192, 0, [14, 2], id="tvar-windowed-batches",
        ),
        # windows of at most _SMALL_KERNEL taps take the unrolled sums
        pytest.param(
            TVAR_STUDY, EstimatorConfig("windowed", binwidth=10, max_lag=4),
            4, [4, 2], 11, 256, 0, [4], id="tvar-windowed-small-kernel",
        ),
        # innovations of the least subnormal round to 0 or a few of its
        # multiples, so some windows hold only zeros and drop their point
        pytest.param(
            ArPathSpec.constant([0.0], sigma=5e-324),
            EstimatorConfig("windowed", binwidth=3, kernel="rectangular", max_lag=1),
            8, [1], 0, 32, 2, [8], id="zeros-windowed-excluded",
        ),
    ],
)
def test_monte_carlo_rmse_matches_per_replicate_reference(
    spec, config, reps, lags, seed, T, excluded, batches, monkeypatch
):
    sizes = []

    def spy(self, xs, *args):
        sizes.append(len(xs))
        return estimate_stack(self, xs, *args)

    estimate_stack = EstimatorConfig.estimate_stack
    monkeypatch.setattr(EstimatorConfig, "estimate_stack", spy)
    report = monte_carlo_rmse(spec, config, reps, lags, seed, T)
    monkeypatch.undo()
    got = [(r.rmse, r.stderr, r.replicates, r.excluded) for r in report.rows]
    ref, (bandwidth,), reasons = _reference_rmse(spec, config, reps, lags, seed, T)
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    assert [r.lag for r in report.rows] == lags
    assert [r.bandwidth for r in report.rows] == [bandwidth] * len(lags)
    assert report.rows[0].excluded == report.excluded == excluded
    assert (report.no_interior, report.too_many_dropped) == reasons
    # one estimate_stack call per batch
    assert sizes == batches
    stages = (report.simulate_seconds, report.estimate_seconds, report.score_seconds)
    assert min(stages) > 0.0
    assert sum(stages) <= report.rows[0].elapsed_seconds


def test_monte_carlo_rmse_needs_two_kept_replicates():
    # the tvar-wavelet-excluded study: at seed 2 it excludes the second of
    # two replicates, which leaves no standard error, and at seed 3 both
    config = EstimatorConfig("wavelet", max_scale=4, max_lag=10)
    with pytest.raises(
        DataError,
        match=r"^1 of 2 replicates were excluded: 0 with no point outside the boundary"
        r" margin, 1 with more than 10% of points dropped; the standard error needs 2",
    ):
        monte_carlo_rmse(TVAR_STUDY, config, 2, [1], 2, 128)
    with pytest.raises(DataError, match=r"^all 2 of 2 replicates were excluded: 0 with"):
        monte_carlo_rmse(TVAR_STUDY, config, 2, [1], 3, 128)


def test_monte_carlo_rmse_estimates_a_windowed_batch_in_one_pass(monkeypatch):
    # the benchmark's tvar study: one window-sum call and one Levinson
    # recursion for all 20 replicates
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(estimators, name, wrapper)

    spy("_window_sums", estimators._window_sums)
    spy("levinson_pacf", estimators.levinson_pacf)
    config = EstimatorConfig("windowed", binwidth=40, max_lag=2)
    report = monte_carlo_rmse(TVAR_STUDY, config, 20, [1, 2], 0, 512)
    assert report.rows[0].replicates == 20
    assert calls == ["_window_sums", "levinson_pacf"]


def test_monte_carlo_rmse_memory_does_not_grow_with_reps():
    # 10 replicates at T=8192 and max_lag 10 run in batches of 3, each
    # peaking at about 16 MB; one batch of all 10 peaks at about 44 MB
    config = EstimatorConfig("windowed", max_lag=10)
    tracemalloc.start()
    try:
        report = monte_carlo_rmse(TVAR_STUDY, config, 10, [1], 0, 8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows[0].replicates == 10
    assert peak < 24 * 2**20


def test_single_segment_equals_constant_tvar():
    seg = simulate_piecewise_ar([(120, [0.5])], 9)
    ref = simulate_tvar(ArPathSpec.constant([0.5]), 120, 9)
    assert np.array_equal(seg.values, ref.values)


def test_piecewise_total_length_and_continuity():
    ts = simulate_piecewise_ar([(85, [-0.2]), (86, [0.5, 0.2]), (85, [-0.2])], 2)
    assert ts.T == 256
    # the path is one recursion; segment joins show no artificial resets
    assert np.std(np.diff(ts.values)[80:90]) < 10 * np.std(np.diff(ts.values))


def test_two_identical_segments_match_single_run():
    joined = simulate_piecewise_ar([(64, [0.6]), (64, [0.6])], 31)
    single = simulate_piecewise_ar([(128, [0.6])], 31)
    assert np.array_equal(joined.values, single.values)


def test_truth_oracle_tvar_midpoint():
    spec = ArPathSpec.linear_ramp([0.9], [-0.9])
    assert true_tv_pacf(spec, 256, 1, 512) == 0.0  # ramp crosses zero at z=1/2
    assert true_tv_pacf(spec, 100, 1, 512) == pytest.approx(0.9 - 1.8 * 100 / 512)


def test_truth_oracle_ar2_values():
    spec = ArPathSpec.constant([0.5, 0.2])
    assert true_tv_pacf(spec, 7, 1, 64) == pytest.approx(0.625, abs=1e-12)
    assert true_tv_pacf(spec, 7, 2, 64) == pytest.approx(0.2, abs=1e-12)
    assert true_tv_pacf(spec, 7, 3, 64) == 0.0  # exact cutoff


def test_truth_cutoff_and_time_invariance():
    spec = ArPathSpec.constant([0.4, -0.3])
    for t in (0, 10, 50):
        for tau in (3, 5, 9):
            assert true_tv_pacf(spec, t, tau, 64) == 0.0
        assert true_tv_pacf(spec, t, 1, 64) == true_tv_pacf(spec, 0, 1, 64)


def test_ar_autocovariances_match_simulation():
    phi = [0.5, 0.2]
    gam = ar_autocovariances(phi, 1.0, 3)
    ts = simulate_tvar(ArPathSpec.constant(phi), 200_000, 4)
    x = ts.values
    for k in range(4):
        emp = np.dot(x[: len(x) - k], x[k:]) / len(x)
        assert emp == pytest.approx(gam[k], rel=0.05)


def test_piecewise_truth_segments():
    spec = ArPathSpec.piecewise([(85, [-0.2]), (86, [0.5, 0.2]), (85, [-0.2])])
    curve = true_pacf_curve(spec, 256, [1, 2])
    assert curve[0, 0] == pytest.approx(-0.2)
    assert curve[0, 128] == pytest.approx(0.625)
    assert curve[1, 128] == pytest.approx(0.2)
    assert curve[1, 20] == 0.0
    assert curve[0, 250] == pytest.approx(-0.2)


def test_monte_carlo_rmse_report_shape_and_determinism():
    spec = ArPathSpec.linear_ramp([0.9], [-0.9])
    config = EstimatorConfig(method="windowed", binwidth=48, max_lag=2)
    rep1 = monte_carlo_rmse(spec, config, 5, [1, 2], 101, 256)
    rep2 = monte_carlo_rmse(spec, config, 5, [1, 2], 101, 256)
    assert [r.rmse for r in rep1.rows] == [r.rmse for r in rep2.rows]
    assert {r.lag for r in rep1.rows} == {1, 2}
    for r in rep1.rows:
        assert r.replicates == 5 and r.excluded == 0
        assert r.rmse >= 0.0 and r.stderr >= 0.0
        assert r.bandwidth == 48


def test_monte_carlo_requires_two_reps():
    spec = ArPathSpec.constant([0.5])
    config = EstimatorConfig(method="windowed", binwidth=32, max_lag=1)
    with pytest.raises(InvalidArgumentError):
        monte_carlo_rmse(spec, config, 1, [1], 0, 128)


def test_local_estimator_beats_classical_on_ramp():
    # a single global pacf number against a ramp of range 1.8 loses badly
    spec = ArPathSpec.linear_ramp([0.9], [-0.9])
    T, reps = 512, 10
    truth = true_pacf_curve(spec, T, [1])[0]
    ratio_acc = []
    for seed in range(reps):
        ts = simulate_tvar(spec, T, 300 + seed)
        grid = windowed_lpacf(ts, L=64, kernel="rectangular", max_lag=1)
        interior = grid.boundary == 0
        pts = grid.points[interior]
        local_rmse = np.sqrt(np.mean((grid.estimates[interior, 0] - truth[pts]) ** 2))
        global_rmse = np.sqrt(np.mean((classical_pacf(ts, 1)[0] - truth) ** 2))
        ratio_acc.append(global_rmse / local_rmse)
    assert np.mean(ratio_acc) >= 3.0

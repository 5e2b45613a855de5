"""Simulators, the frozen-coefficient truth oracle, and the RMSE harness."""

import re
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
from locpacf import estimators, simulate
from locpacf.errors import MAX_LENGTH
from locpacf.simulate import _STACK_SEEDS, _ar_recursion, _checked_table

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
        ({"burn_in": True}, "burn_in=True must be an integer >= 0"),
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


WINDOWED_LAG_1 = EstimatorConfig("windowed", binwidth=32, max_lag=1)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: simulate_tvar(TVAR_STUDY, 5.5, 0), "T=5.5 must be an integer"),
        (lambda: simulate_tvar(TVAR_STUDY, True, 0), "T=True must be an integer"),
        (lambda: simulate_tvar(TVAR_STUDY, 8, 1.5), "seed=1.5 must be an integer"),
        (lambda: true_pacf_curve(TVAR_STUDY, 5.5, [1]), "T=5.5 must be an integer"),
        (lambda: true_pacf_curve(TVAR_STUDY, 8, [1.5]), "lag 1.5 must be an integer"),
        (lambda: true_tv_pacf(TVAR_STUDY, 2, 1.5, 8), "tau=1.5 must be an integer"),
        (lambda: true_tv_pacf(TVAR_STUDY, 2.5, 1, 8), "t=2.5 must be an integer"),
        (lambda: true_tv_pacf(TVAR_STUDY, 2, 1, np.float64(8)), "T=8.0 must be an integer"),
        (
            lambda: monte_carlo_rmse(TVAR_STUDY, WINDOWED_LAG_1, 2, [1.5], 0, 128),
            "lag 1.5 must be an integer",
        ),
        (
            lambda: monte_carlo_rmse(TVAR_STUDY, WINDOWED_LAG_1, 2, [1], 0, 64.5),
            "T=64.5 must be an integer",
        ),
        (
            lambda: monte_carlo_rmse(TVAR_STUDY, WINDOWED_LAG_1, 2.0, [1], 0, 128),
            "reps=2.0 must be an integer",
        ),
        (
            lambda: monte_carlo_rmse(TVAR_STUDY, WINDOWED_LAG_1, 2, [1], 1.5, 128),
            "seed=1.5 must be an integer",
        ),
    ],
)
def test_integer_arguments_refuse_non_integers(call, needle):
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}$"):
        call()


def test_integer_arguments_take_numpy_integers():
    T, t, tau, seed = np.int64(64), np.int32(5), np.int64(1), np.uint32(3)
    assert np.array_equal(simulate_tvar(TVAR_STUDY, T, seed).values,
                          simulate_tvar(TVAR_STUDY, 64, 3).values)
    assert true_tv_pacf(TVAR_STUDY, t, tau, T) == true_tv_pacf(TVAR_STUDY, 5, 1, 64)
    lags = np.array([1, 2])
    assert true_pacf_curve(TVAR_STUDY, T, lags).shape == (2, 64)
    report = monte_carlo_rmse(TVAR_STUDY, WINDOWED_LAG_1, np.int64(2), [tau], seed, 2 * T)
    assert report.rows[0].lag == 1


def _accepted(phi):
    """Stationarity verdict of every public route to the step-down check,
    which must agree."""
    verdicts = set()
    for check in (
        lambda: _checked_table(ArPathSpec.constant(phi), 1)[0],
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


def _assert_rows_match_reference(table, burn_in, sigma, seeds):
    got = _ar_recursion(table, burn_in, sigma, seeds)
    assert got.shape == (len(seeds), len(table))
    for row, seed in zip(got, seeds):
        ref = _numpy_scalar_recursion(table, burn_in, sigma, seed)
        assert row.tobytes() == ref.tobytes()


# seed lists on either side of the switch from the per-seed loop to the stack
LOOP_SEEDS = [3, 8]
STACK_SEEDS = list(range(_STACK_SEEDS))


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
    st.integers(1, _STACK_SEEDS + 4).flatmap(
        lambda R: st.lists(st.integers(0, 2**32 - 1), min_size=R, max_size=R)
    ),
)
@example([[0.95, -0.5], [-0.9, 0.3]], 1, 0, 1.0, [0])
@example([[0.95, -0.5], [-0.9, 0.3]], 1, 0, 1.0, STACK_SEEDS)
@example([[0.9, 0.1, -0.8], [0.2, -0.7, 0.6]], 300, 0, 2.5, [7])
@example([[0.9, 0.1, -0.8], [0.2, -0.7, 0.6]], 300, 0, 2.5, STACK_SEEDS)
def test_ar_recursion_matches_numpy_scalar_reference(ends, T, burn_in, sigma, seeds):
    # the reflection coefficients move linearly inside (-1, 1), so every row is stable
    ka, kb = np.array(ends[0]), np.array(ends[1])
    table = np.array([_step_up(ka + (kb - ka) * t / T) for t in range(T)])
    _assert_rows_match_reference(table.reshape(T, len(ka)), burn_in, sigma, seeds)


@pytest.mark.parametrize("seeds", [LOOP_SEEDS, STACK_SEEDS], ids=["loop", "stack"])
@pytest.mark.parametrize(
    "spec, T, burn_in",
    [
        pytest.param(ArPathSpec.constant([]), 50, 20, id="order-0"),
        # the first p steps of the series add only the lags they have
        pytest.param(ArPathSpec.constant([0.5, -0.3, 0.2, 0.1]), 9, 0, id="warm-up"),
        pytest.param(ArPathSpec.constant([0.5, -0.3]), 1, 0, id="one-sample"),
        pytest.param(ArPathSpec.piecewise([(10, []), (20, [])]), 30, 5, id="piecewise-order-0"),
        pytest.param(
            ArPathSpec.piecewise([(7, []), (6, [0.5, 0.2]), (5, [])]), 18, 0, id="piecewise-empty"
        ),
    ],
)
def test_ar_recursion_edge_cases_match_reference(spec, T, burn_in, seeds):
    _assert_rows_match_reference(_checked_table(spec, T)[0], burn_in, spec.sigma, seeds)


@pytest.mark.parametrize(
    "seeds, needle",
    [
        ([4, -1], "seed=-1"),
        ([-5, 0, -1], "seed=-5"),
        ([0] * _STACK_SEEDS + [-3, -1], "seed=-3"),
        ([-2] + [0] * _STACK_SEEDS, "seed=-2"),
    ],
)
def test_ar_recursion_names_the_first_negative_seed(seeds, needle):
    table = _checked_table(TVAR_STUDY, 16)[0]
    with pytest.raises(InvalidArgumentError, match=f"^{needle} must be >= 0$"):
        _ar_recursion(table, 5, 1.0, seeds)


@pytest.mark.parametrize("seeds", [[0], LOOP_SEEDS, STACK_SEEDS], ids=["one", "loop", "stack"])
def test_ar_recursion_refuses_an_overflowing_sigma_without_warnings(seeds):
    spec = ArPathSpec.constant([0.9], sigma=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            InvalidArgumentError, match=r"^sigma=1e\+308 is too large: the path overflows$"
        ):
            _ar_recursion(_checked_table(spec, 64)[0], spec.burn_in, spec.sigma, seeds)


def test_ar_recursion_holds_one_seeds_floats_at_a_time():
    # 9 seeds at T=2^15 take the loop layout: the (T + burn_in, 9) array, its
    # (9, T) copy and one seed's list of floats peak at about 4.8 MB; a list
    # for every seed at once would peak at about 16 MB
    table = _checked_table(ArPathSpec.constant([0.5]), 2**15)[0]
    tracemalloc.start()
    try:
        paths = _ar_recursion(table, 500, 1.0, range(_STACK_SEEDS - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths.shape == (_STACK_SEEDS - 1, 2**15)
    assert peak < 8 * 2**20


TABLE_TS = (1, 2, 3, 7, 255, 256, 4097)


def _scalar_table(spec, T):
    """phi(t/T) evaluated one time point at a time, the reference for the
    table that ArPathSpec.coefficients builds from one call of each path."""
    return np.array(
        [[f(t / T) for f in spec.paths] for t in range(T)], dtype=float
    ).reshape(T, spec.order)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(TVAR_STUDY, id="ramp"),
        pytest.param(ArPathSpec.linear_ramp([0.3, -0.2], [0.3, -0.2]), id="flat-ramp"),
        pytest.param(
            ArPathSpec.linear_ramp([-0.0, 0.5, -0.0], [-0.0, -0.0, 0.4]), id="signed-zero-ramp"
        ),
        pytest.param(ArPathSpec.constant([0.5, -0.0, 0.2]), id="constant"),
        pytest.param(ArPathSpec.constant([]), id="constant-order-0"),
        pytest.param(PIECEWISE_STUDY, id="piecewise"),
        pytest.param(ArPathSpec.piecewise([(10, []), (20, [])]), id="piecewise-order-0"),
    ],
)
def test_path_table_matches_per_time_scalar_evaluation(spec):
    for T in TABLE_TS:
        ref = _scalar_table(spec, T)
        z = np.arange(T) / T
        assert _checked_table(spec, T)[0].tobytes() == ref.tobytes()
        assert spec.coefficients(z).shape == (T, spec.order)
        assert spec.coefficients(z).tobytes() == ref.tobytes()
        for t in {0, T // 2, T - 1}:
            assert spec.coefficients(t / T).tobytes() == ref[t].tobytes()


def test_piecewise_table_matches_searchsorted_at_edges():
    segments = [
        (85, [-0.2]), (1, []), (86, [0.5, 0.2]), (1, [0.7, -0.1, 0.3]), (84, [-0.2]), (2, [])
    ]
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
    assert spec.coefficients(np.array(zs)).tobytes() == np.array(
        [table[min(int(np.searchsorted(edges, z, side="right")), last)] for z in zs]
    ).tobytes()
    for T in TABLE_TS + (int(lengths.sum()),):
        ref = np.array(
            [table[min(int(np.searchsorted(edges, t / T, side="right")), last)] for t in range(T)]
        )
        assert _checked_table(spec, T)[0].tobytes() == ref.tobytes()
        assert _scalar_table(spec, T).tobytes() == ref.tobytes()


def test_each_path_is_called_once_per_table():
    calls = [0, 0]

    def counted(i, path):
        def wrapper(z):
            calls[i] += 1
            return path(z)

        return wrapper

    study = ArPathSpec.linear_ramp([0.5, 0.1], [-0.5, 0.2])
    spec = ArPathSpec(tuple(counted(i, f) for i, f in enumerate(study.paths)))
    config = EstimatorConfig("windowed", binwidth=16, max_lag=1)
    for T in (1, 512):
        for table in (
            lambda: _checked_table(spec, T)[0],
            lambda: true_pacf_curve(spec, T, [1, 2]),
            lambda: simulate_tvar(spec, T, 0),
            lambda: monte_carlo_rmse(spec, config, 2, [1], 0, max(T, 64)),
        ):
            calls[:] = [0, 0]
            table()
            assert calls == [1, 1]


def test_piecewise_refuses_segments_longer_in_total_than_the_length_ceiling():
    # two segments within the ceiling whose sum is not, then the ceiling itself,
    # which builds a spec: piecewise makes no array of that length
    half = MAX_LENGTH // 2
    needle = f"segments total {MAX_LENGTH + 2} samples, more than {MAX_LENGTH}"
    with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
        ArPathSpec.piecewise([(half + 1, [0.5]), (half + 1, [-0.5])])
    assert ArPathSpec.piecewise([(half, [0.5]), (half, [-0.5])]).order == 1


@pytest.mark.parametrize("length", [2.6, 3.0, np.float64(4.0), "3", True, 0, -2])
def test_piecewise_refuses_a_segment_length_that_is_not_a_positive_integer(length):
    segments = [(length, [0.5]), (3, [-0.5])]
    needle = f"segment length {length!r} must be an integer >= 1"
    with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
        ArPathSpec.piecewise(segments)
    with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
        simulate_piecewise_ar(segments, 0)
    # numpy integers are integers
    assert simulate_piecewise_ar([(np.int64(3), [0.5]), (2, [-0.5])], 0).T == 5


def _score_grids(grids, truth, lags):
    """The per-replicate scoring loop: each scored grid's RMSE at each lag,
    and the grids excluded for having no interior point and for more than
    10% of points dropped."""
    per_rep = []
    no_interior = too_many_dropped = 0
    for grid in grids:
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
    return np.asarray(per_rep), (no_interior, too_many_dropped)


def _reference_rmse(spec, config, reps, lags, seed, T):
    """(rmse, stderr, replicates, excluded) per lag from a plain loop over
    simulate_tvar, the estimator, true_pacf_curve and the scoring loop, the
    set of the grids' bandwidths, and the replicates excluded for having no
    interior point and for more than 10% of points dropped."""
    grids = [config.estimate(simulate_tvar(spec, T, seed + r)) for r in range(reps)]
    per_rep, reasons = _score_grids(grids, true_pacf_curve(spec, T, lags), lags)
    used = len(per_rep)
    rows = [
        (
            float(np.mean(per_rep[:, i])),
            float(np.std(per_rep[:, i], ddof=1) / np.sqrt(used)),
            used,
            sum(reasons),
        )
        for i in range(len(lags))
    ]
    return rows, {grid.bandwidth for grid in grids}, reasons


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
        # the benchmark's two studies, simulated as one stack of 20 replicates
        pytest.param(
            TVAR_STUDY, EstimatorConfig("windowed", binwidth=40, max_lag=2),
            20, [1, 2], 0, 512, 0, [20], id="tvar-benchmark",
        ),
        pytest.param(
            PIECEWISE_STUDY, EstimatorConfig("windowed", binwidth=48, max_lag=2),
            20, [1, 2], 1000, 256, 0, [20], id="piecewise-benchmark",
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
        # at T=8192 and max_lag 1 a batch holds 17 replicates
        pytest.param(
            TVAR_STUDY, EstimatorConfig("windowed", max_lag=1),
            20, [1], 3, 8192, 0, [17, 3], id="tvar-windowed-batches",
        ),
        # a long burn-in: the simulation's T + burn_in + T entries per
        # replicate, not the estimate's, set the batch of 3
        pytest.param(
            ArPathSpec(TVAR_STUDY.paths, burn_in=2**18),
            EstimatorConfig("windowed", binwidth=16, max_lag=1),
            4, [1], 5, 64, 0, [3, 1], id="long-burn-in-batches",
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
        return grid_stack(self, xs, *args)

    grid_stack = EstimatorConfig._grid_stack
    monkeypatch.setattr(EstimatorConfig, "_grid_stack", spy)
    report = monte_carlo_rmse(spec, config, reps, lags, seed, T)
    monkeypatch.undo()
    got = [(r.rmse, r.stderr, r.replicates, r.excluded) for r in report.rows]
    ref, (bandwidth,), reasons = _reference_rmse(spec, config, reps, lags, seed, T)
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    assert [r.lag for r in report.rows] == lags
    assert [r.bandwidth for r in report.rows] == [bandwidth] * len(lags)
    assert report.rows[0].excluded == report.excluded == excluded
    assert (report.no_interior, report.too_many_dropped) == reasons
    # one estimator pass per batch
    assert sizes == batches
    stages = (report.simulate_seconds, report.estimate_seconds, report.score_seconds)
    assert min(stages) > 0.0
    assert sum(stages) <= report.rows[0].elapsed_seconds


def test_grouped_scorer_matches_the_per_replicate_loop():
    # a stacked result whose replicates keep different points: the scorer
    # groups them by their keep rows, and its rows, exclusion counts and
    # reasons are those of the scoring loop over its grids, bit for bit
    rng = np.random.default_rng(7)
    T, P, lags = 80, 60, [2, 1, 3]
    keep = np.ones((9, P), dtype=bool)
    keep[1, [10, 20]] = keep[2, [10, 20]] = False  # the same two points dropped
    keep[3, [11, 40]] = False  # as many, but other points
    keep[4, 5:13] = False  # 8 of 60 dropped: more than 10%
    keep[5, 4:-4] = False  # only boundary points kept
    keep[6, 30] = False
    keep[7, 20:26] = False  # 6 of 60 dropped: not more than 10%
    points = rng.permutation(T)[:P]  # scattered, in no order
    boundary = np.zeros(P, dtype=np.uint8)
    boundary[[0, 1, 2, 3, -4, -3, -2, -1]] = 1
    estimates = rng.uniform(-1.2, 1.2, (9, P, 3))  # a dropped point's row is not read
    truth = rng.uniform(-1.0, 1.0, (len(lags), T))
    stack = estimators._GridStack("windowed", points, keep, estimates, boundary, 16)
    rmse, counts = simulate._score(stack, truth, lags)
    ref, reasons = _score_grids(stack.grids(), truth, lags)
    assert tuple(counts.tolist()) == reasons == (1, 1)
    assert rmse.shape == ref.shape == (7, len(lags))
    assert rmse.tobytes() == ref.tobytes()


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


_HUGE = 10**20  # beyond any array, and beyond int64


@pytest.mark.parametrize(
    "spec, T, max_scale, span, max_lag, needle, fits",
    [
        (PIECEWISE_STUDY, 256, None, None, 1, "max_scale=8 gives a boundary margin of 129", 7),
        (PIECEWISE_STUDY, 256, None, None, 4, "max_scale=8 gives a boundary margin of 132", 7),
        (TVAR_STUDY, 128, 7, None, 2, "max_scale=7 gives a boundary margin of 66", 6),
        (TVAR_STUDY, 16, None, None, 8, "no max_scale leaves an interior point at max_lag=8",
         None),
        (TVAR_STUDY, 100, None, None, 1, "T=100 is not a power of two", None),
        (TVAR_STUDY, np.int64(128), np.int64(7), None, np.int64(2), "boundary margin of 66", 6),
        # the estimator's own rules, from the checks that the estimator runs
        (TVAR_STUDY, 16, None, None, 11, "max_lag=11 outside [1, 10]", None),
        (TVAR_STUDY, 4096, 13, None, 4, "max_scale=13 outside [1, 12] for T=4096", None),
        (TVAR_STUDY, 128, 1, None, 2, "max_lag=2 must satisfy 0 <= max_lag < 2^max_scale",
         None),
        (TVAR_STUDY, 256, 4, -3, 1, "span=-3 must be nonnegative and <= ", None),
        (TVAR_STUDY, 256, 4, _HUGE, 1, f"span={_HUGE} must be nonnegative and <= ", None),
        (TVAR_STUDY, 64, None, None, _HUGE, f"max_lag={_HUGE} outside [1, 10]", None),
    ],
    ids=[
        "piecewise-default", "piecewise-max-lag-4", "tvar-128", "no-scale-fits", "non-dyadic",
        "numpy-ints", "max-lag-11", "max-scale-13", "lag-beyond-the-scales", "negative-span",
        "huge-span", "huge-max-lag",
    ],
)
def test_monte_carlo_rmse_refuses_a_wavelet_study_it_cannot_score(
    monkeypatch, spec, T, max_scale, span, max_lag, needle, fits
):
    # refused before a lag is read, the coefficient table is checked or a
    # replicate is simulated, naming the largest J* that leaves an interior
    # point; the lags of a max_lag beyond any array are never read
    calls = []
    for name in ("_checked_lags", "_checked_table", "_ar_recursion"):
        monkeypatch.setattr(simulate, name, lambda *a: calls.append(a))
    config = EstimatorConfig("wavelet", smooth_span=span, max_scale=max_scale, max_lag=max_lag)
    with pytest.raises(InvalidArgumentError, match=re.escape(needle)) as err:
        monte_carlo_rmse(spec, config, 2, range(1, max_lag + 1), 0, T)
    assert not calls
    monkeypatch.undo()
    if fits is not None:
        assert f"max_scale={fits} is the largest that leaves an interior point" in str(err.value)
        config = EstimatorConfig("wavelet", max_scale=fits, max_lag=max_lag)
        assert monte_carlo_rmse(spec, config, 2, [1], 0, T).rows[0].replicates == 2


@pytest.mark.parametrize(
    "kernel, binwidth, max_lag, needle",
    [
        ("epanechnikov", _HUGE, 4, f"bandwidth L={_HUGE} must lie in (1, T=64)"),
        ("epanechnikov", 8, 4, "max_lag=4 outside [1, L/2) for L=8"),
        ("epanechnikov", None, 1000, "max_lag=1000 outside [1, L/2) for L=28"),
        ("epanechnikov", None, _HUGE, f"max_lag={_HUGE} outside [1, L/2) for L=28"),
        ("gaussian", 16, 2,
         "unknown kernel 'gaussian'; expected one of ['epanechnikov', 'rectangular']"),
    ],
    ids=[
        "huge-width", "lag-beyond-the-width", "lag-beyond-the-default-width", "huge-max-lag",
        "unknown-kernel",
    ],
)
def test_monte_carlo_rmse_refuses_a_windowed_study_it_cannot_run(
    monkeypatch, kernel, binwidth, max_lag, needle
):
    # the estimator's own message, before a lag is read, the coefficient
    # table is checked or a replicate is simulated
    calls = []
    for name in ("_checked_lags", "_checked_table", "_ar_recursion"):
        monkeypatch.setattr(simulate, name, lambda *a: calls.append(a))
    config = EstimatorConfig("windowed", binwidth=binwidth, kernel=kernel, max_lag=max_lag)
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}$"):
        monte_carlo_rmse(TVAR_STUDY, config, 3, range(1, max_lag + 1), 0, 64)
    assert not calls


@pytest.mark.parametrize("stop", [10**12, 10**20 + 1], ids=["1e12", "past-int64"])
def test_monte_carlo_rmse_refuses_a_huge_lag_range_at_its_first_lag_too_deep(stop):
    # each lag is checked against max_lag=1 as it is read, so lag 2 is
    # refused before the rest of the range is read
    needle = "requested lag 2 exceeds config.max_lag=1"
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}$"):
        monte_carlo_rmse(TVAR_STUDY, WINDOWED_LAG_1, 2, range(1, stop), 0, 128)


@pytest.mark.parametrize(
    "lags, needle",
    [
        ([1, 0, 1.5], "lag 0 must be >= 1"),
        ([2, 1.5, 0], "lag 1.5 must be an integer"),
        ([1, True], "lag True must be an integer"),
    ],
)
def test_lags_are_refused_at_the_first_bad_one_by_name(lags, needle):
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(needle)}$"):
        true_pacf_curve(TVAR_STUDY, 8, lags)


def test_monte_carlo_rmse_estimates_a_windowed_batch_in_one_pass(monkeypatch):
    # the benchmark's tvar study, T=512 in one chunk: one window-sum call
    # over the product rows and one Levinson recursion for all 20
    # replicates, and the mass row summed once for all of them
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, out.shape))
            return out

        monkeypatch.setattr(estimators, name, wrapper)

    spy("_window_sums", estimators._window_sums)
    spy("_levinson", estimators._levinson)
    config = EstimatorConfig("windowed", binwidth=40, max_lag=2)
    report = monte_carlo_rmse(TVAR_STUDY, config, 20, [1, 2], 0, 512)
    assert report.rows[0].replicates == 20
    sums = [shape for name, shape in calls if name == "_window_sums"]
    # the 3 product rows of the 20 replicates at the 512 points
    assert [s for s in sums if len(s) == 3] == [(20, 3, 512)]
    # the mass row: one window inside the series, and the 19 and 20 points
    # whose windows (L=40) reach past its start and its end
    assert [s for s in sums if len(s) == 1] == [(1,), (19,), (20,)]
    assert [shape for name, shape in calls if name == "_levinson"] == [(2, 20 * 512)]


def test_monte_carlo_rmse_memory_does_not_grow_with_reps():
    # 10 replicates at T=8192 and max_lag 10 run in batches of 4, each
    # peaking at about 8 MB; one batch of all 10 peaks at about 20 MB
    config = EstimatorConfig("windowed", max_lag=10)
    tracemalloc.start()
    try:
        report = monte_carlo_rmse(TVAR_STUDY, config, 10, [1], 0, 8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows[0].replicates == 10
    assert peak < 14 * 2**20


def test_monte_carlo_rmse_wavelet_memory_does_not_grow_with_reps():
    # 4 replicates at T=4096 and max_lag 10 run one at a time, each peaking
    # at about 13 MB; one batch of all 4 peaks at about 52 MB
    config = EstimatorConfig("wavelet", max_lag=10)
    tracemalloc.start()
    try:
        report = monte_carlo_rmse(TVAR_STUDY, config, 4, [1], 0, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows[0].replicates == 4
    assert peak < 20 * 2**20


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


@pytest.mark.parametrize(
    "t, T, needle",
    [
        (0, 0, "T=0 must be positive"),
        (0, -4, "T=-4 must be positive"),
        (-1, 64, "t=-1 must be in [0, T - 1] = [0, 63]"),
        (64, 64, "t=64 must be in [0, T - 1] = [0, 63]"),
    ],
)
def test_true_tv_pacf_refuses_a_time_outside_the_series(t, T, needle):
    with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
        true_tv_pacf(TVAR_STUDY, t, 1, T)
    if T < 1:  # the curve over no time refuses alike
        with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
            true_pacf_curve(TVAR_STUDY, T, [1])


@pytest.mark.parametrize(
    "sigma, needle",
    [
        (-1.0, "sigma=-1.0 must be finite and > 0"),
        (0.0, "sigma=0.0 must be finite and > 0"),
        (float("nan"), "sigma=nan must be finite and > 0"),
        (float("inf"), "sigma=inf must be finite and > 0"),
        (1e200, "sigma=1e+200 is too large: sigma**2 overflows"),
        (np.float64(1e200), "sigma=1e+200 is too large: sigma**2 overflows"),
        # sigma^2 is finite, but gamma(0) = sigma^2 / (1 - 0.999999^2) is not
        (1e154, "sigma=1e+154 is too large: the autocovariances overflow"),
    ],
)
def test_ar_autocovariances_refuses_a_bad_sigma(sigma, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=re.escape(needle)):
            ar_autocovariances([0.999999], sigma, 2)
    # a sigma whose square is just below the largest float is accepted
    assert np.isfinite(ar_autocovariances([0.5], 1e154, 2)).all()


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

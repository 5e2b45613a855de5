#!/usr/bin/env python3
"""Monte-Carlo comparison of the two local estimators.

Runs a reduced-replicate version of the built-in benchmark studies
(``locpacf benchmark`` runs the full ones) and prints per-lag RMSE with
standard errors.  RMSE is computed per replicate over interior points
against the frozen-coefficient truth, then averaged over replicates.

The pattern to expect: the windowed estimator wins at lag 1 on the
smooth ramp; at lag 2 both estimators are mostly variance, so the more
heavily smoothed wavelet pipeline looks better there.
"""

from locpacf import ArPathSpec, EstimatorConfig, monte_carlo_rmse

REPS = 25  # the full studies use 100

STUDIES = {
    "tvar ramp (T=512)": (ArPathSpec.linear_ramp([0.9], [-0.9]), 512, 2024),
    "piecewise AR (T=256)": (
        ArPathSpec.piecewise([(85, [-0.2]), (86, [0.5, 0.2]), (85, [-0.2])]),
        256,
        99,
    ),
}

CONFIGS = {
    "tvar ramp (T=512)": [
        EstimatorConfig(method="windowed", binwidth=40, kernel="epanechnikov", max_lag=2),
        EstimatorConfig(method="wavelet", max_scale=6, smooth_span=16, max_lag=2),
    ],
    "piecewise AR (T=256)": [
        EstimatorConfig(method="windowed", binwidth=48, kernel="epanechnikov", max_lag=2),
        EstimatorConfig(method="wavelet", max_scale=5, smooth_span=16, max_lag=2),
    ],
}

for study, (spec, T, seed) in STUDIES.items():
    print(f"\n{study}, {REPS} replicates, RMSE x100 (standard error):")
    for config in CONFIGS[study]:
        report = monte_carlo_rmse(spec, config, REPS, [1, 2], seed, T)
        row1, row2 = report.rows  # one row per requested lag, in order
        label = config.method
        if config.binwidth:
            label += f" L={config.binwidth}"
        else:
            label += f" J*={config.max_scale}, s={config.smooth_span}"
        print(
            f"  {label:<28} lag1 {100 * row1.rmse:6.2f} ({100 * row1.stderr:.2f})"
            f"   lag2 {100 * row2.rmse:6.2f} ({100 * row2.stderr:.2f})"
        )

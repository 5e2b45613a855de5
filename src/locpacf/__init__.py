"""Local partial autocorrelation estimation for nonstationary time series.

The package provides the windowed local partial autocorrelation estimator
(classical PACF computed on a kernel-weighted moving window) and the
wavelet plug-in estimator (local Yule-Walker coefficient times a
square-root prediction-error ratio, built on an evolutionary wavelet
spectrum estimate), together with the exact Haar cross-correlation wavelet
machinery, time-varying AR simulators, a frozen-coefficient truth oracle,
and a Monte-Carlo RMSE benchmark harness.
"""

from .errors import (
    BoundaryError,
    DataError,
    DegenerateInputError,
    InvalidArgumentError,
    LocpacfError,
    NumericalError,
)
from .estimators import (
    EstimatorConfig,
    LpacfGrid,
    PredictionSystem,
    classical_pacf,
    confidence_halfwidth,
    default_bandwidth,
    levinson_pacf,
    prediction_system,
    wavelet_lpacf,
    windowed_lpacf,
)
from .haar import (
    BProduct,
    a_matrix,
    b_product,
    haar_coefficients,
    haar_value,
    i_windowed,
    i_windowed_support,
    lemma_bound_thresholds,
    omega_core,
    psi_auto,
    psi_cross_bruteforce,
    psi_cross_closed,
)
from .io import read_series, svg_plot, write_long_csv, write_rmse_csv, write_series
from .kernels import EPANECHNIKOV, RECTANGULAR, TaperKernel, get_kernel
from .series import TimeSeries, as_series
from .simulate import (
    ArPathSpec,
    RmseReport,
    RmseRow,
    ar_autocovariances,
    monte_carlo_rmse,
    simulate_piecewise_ar,
    simulate_tvar,
    true_pacf_curve,
    true_tv_pacf,
)
from .spectral import (
    EwsGrid,
    LocalAcvGrid,
    integrated_periodogram,
    local_autocovariance,
    local_wavelet_periodogram_tapered,
    nondecimated_haar_transform,
    raw_wavelet_periodogram,
    smooth_and_correct,
)

__version__ = "0.1.0"

__all__ = [
    "ArPathSpec",
    "BProduct",
    "BoundaryError",
    "DataError",
    "DegenerateInputError",
    "EPANECHNIKOV",
    "EstimatorConfig",
    "EwsGrid",
    "InvalidArgumentError",
    "LocalAcvGrid",
    "LocpacfError",
    "LpacfGrid",
    "NumericalError",
    "PredictionSystem",
    "RECTANGULAR",
    "RmseReport",
    "RmseRow",
    "TaperKernel",
    "TimeSeries",
    "a_matrix",
    "ar_autocovariances",
    "as_series",
    "b_product",
    "classical_pacf",
    "confidence_halfwidth",
    "default_bandwidth",
    "get_kernel",
    "haar_coefficients",
    "haar_value",
    "i_windowed",
    "i_windowed_support",
    "integrated_periodogram",
    "lemma_bound_thresholds",
    "levinson_pacf",
    "local_autocovariance",
    "local_wavelet_periodogram_tapered",
    "monte_carlo_rmse",
    "nondecimated_haar_transform",
    "omega_core",
    "prediction_system",
    "psi_auto",
    "psi_cross_bruteforce",
    "psi_cross_closed",
    "raw_wavelet_periodogram",
    "read_series",
    "simulate_piecewise_ar",
    "simulate_tvar",
    "smooth_and_correct",
    "svg_plot",
    "true_pacf_curve",
    "true_tv_pacf",
    "wavelet_lpacf",
    "windowed_lpacf",
    "write_long_csv",
    "write_rmse_csv",
    "write_series",
]

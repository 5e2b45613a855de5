"""Local partial autocorrelation estimation for nonstationary time series.

The package provides the windowed local partial autocorrelation estimator
(classical PACF computed on a kernel-weighted moving window) and the
wavelet plug-in estimator (local Yule-Walker coefficient times a
square-root prediction-error ratio, built on an evolutionary wavelet
spectrum estimate), together with the exact Haar cross-correlation wavelet
machinery, time-varying AR simulators, a frozen-coefficient truth oracle,
and a Monte-Carlo RMSE benchmark harness.

Each library module's ``__all__`` is the one list of its public names; the
package exports their union.  ``cli`` and ``verify`` stay out of it.
"""

from . import errors, estimators, haar, io, kernels, series, simulate, spectral
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .haar import *  # noqa: F403
from .io import *  # noqa: F403
from .kernels import *  # noqa: F403
from .series import *  # noqa: F403
from .simulate import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

_LIBRARY = (errors, series, kernels, haar, spectral, estimators, simulate, io)

__all__ = [name for module in _LIBRARY for name in module.__all__]

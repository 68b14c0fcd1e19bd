"""Time-varying covariance matrix estimation.

A covariance path is parameterized through per-time regressions of each
variable on its predecessors: a Kalman filter tracks the regression
coefficients and univariate GARCH(1,1) models drive the innovation
variances, so every assembled matrix is positive definite by
construction.  The package also ships the evaluation protocol
(moving-block proxy, entrywise MAE/MSE, block-size selection), data
generators, and a CLI for reproducible experiments.
"""

from .evaluation import (
    EvalReport,
    loss_paths,
    moving_block_proxy,
    select_block_size,
)
from .exceptions import ScgarchError
from .garch import GarchFit, GarchParams, garch_filter, garch_fit, garch_loglik, simulate_garch
from .kalman import KalmanConfig, KalmanRun, filter_regression, tune_state_noise
from .mcd import mcd_decompose, mcd_reconstruct
from .model import (
    CovariancePath,
    ScgarchConfig,
    ScgarchFitResult,
    TimeSeriesPanel,
    bic,
    fit_model,
    order_by_bic,
)
from .simulate import (
    Sim1Config,
    Sim2Config,
    generate_sim1,
    generate_sim2,
)

__version__ = "0.1.0"

__all__ = [
    "CovariancePath",
    "EvalReport",
    "GarchFit",
    "GarchParams",
    "KalmanConfig",
    "KalmanRun",
    "ScgarchConfig",
    "ScgarchError",
    "ScgarchFitResult",
    "Sim1Config",
    "Sim2Config",
    "TimeSeriesPanel",
    "bic",
    "filter_regression",
    "fit_model",
    "garch_filter",
    "garch_fit",
    "garch_loglik",
    "generate_sim1",
    "generate_sim2",
    "loss_paths",
    "mcd_decompose",
    "mcd_reconstruct",
    "moving_block_proxy",
    "order_by_bic",
    "select_block_size",
    "simulate_garch",
    "tune_state_noise",
]

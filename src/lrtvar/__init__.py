"""Time-varying linear (autoregressive) models with a low-rank tensor parameterization.

Fit a stack of per-window system matrices to a multivariate time series,
with the stack represented by three small factor matrices (left spatial,
right spatial, temporal modes) and an optional temporal-smoothness penalty
that selects switching (total variation) or slowly drifting (spline)
dynamics.
"""

__version__ = "0.1.0"

from .cp_model import CpFactors, NormalizedCp, export_factors
from .errors import (
    DegenerateDataError,
    DegenerateProjectionError,
    ExtremeScaleError,
    InvalidHyperparameterError,
    LrtvarError,
    NonFiniteError,
    SeriesTooShortError,
    ShapeMismatchError,
    ZeroVarianceError,
)
from .evaluation import (
    WindowedEstimate,
    cluster_temporal_modes,
    estimate_rmse,
    independent_fit,
    model_estimate,
    operator_norm_error,
)
from .regularizers import Regularizer, spline_penalty, tv_penalty
from .solver import BlockOutcome, FitReport, Hyperparams, OuterIteration, cost, fit, initialize, loss, rmse
from .synthetic import (
    GroundTruth,
    gp_covariance,
    sample_gp_angle,
    simulate_smooth,
    simulate_switching,
)
from .windowing import (
    SnapshotPair,
    Standardization,
    TimeSeries,
    build_snapshots,
    read_series_csv,
    standardize,
    write_series_csv,
)

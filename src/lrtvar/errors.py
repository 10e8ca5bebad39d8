"""Exception types raised across the package."""


class LrtvarError(Exception):
    """Base class for all package-specific errors."""


class SeriesTooShortError(LrtvarError, ValueError):
    """The time series does not contain a single full window."""


class NonFiniteError(LrtvarError, ValueError):
    """Input data contains NaN or infinite entries."""


class ZeroVarianceError(LrtvarError, ValueError):
    """A channel has zero variance and cannot be standardized."""


class DimensionMismatchError(LrtvarError, ValueError):
    """Factor matrices and data tensors have inconsistent shapes."""


class DegenerateDataError(LrtvarError, ValueError):
    """Snapshot data is identically zero; no model can be initialized."""


class DegenerateWindowError(LrtvarError, ValueError):
    """A window's predictor block is identically zero."""


class DegenerateProjectionError(LrtvarError, RuntimeError):
    """Burn-in collapsed the state onto the null space; retry with a new seed."""


class ShapeMismatchError(LrtvarError, ValueError):
    """Estimate and ground truth cannot be aligned window-for-window."""


class NonPositiveEtaError(LrtvarError, ValueError):
    """The ridge scale eta must be strictly positive."""


class ExtremeScaleError(LrtvarError, ValueError):
    """Data or hyperparameters are too large or too small for float64 arithmetic."""

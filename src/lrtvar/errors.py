"""Exception types raised across the package, and the entry check of real hyperparameters."""

import math
import numbers


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
    """Estimate, ground truth and series cannot be aligned window-for-window or channel-for-channel."""


class NonPositiveEtaError(LrtvarError, ValueError):
    """The ridge scale eta must be strictly positive."""


class ExtremeScaleError(LrtvarError, ValueError):
    """Data or hyperparameters are too large or too small for float64 arithmetic."""


class InvalidHyperparameterError(LrtvarError, ValueError):
    """A solver hyperparameter has the wrong type or is out of range."""


def finite_real(name: str, value) -> float:
    """``value`` as a float.  A bool or a value that is not a real number
    raises :class:`InvalidHyperparameterError`, a NaN or infinity
    :class:`NonFiniteError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidHyperparameterError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise NonFiniteError(f"{name} must be finite, got {value}")
    return number

"""Exception types raised across the package, and the entry checks of real, integer and array inputs.

Every public entry point decides whether a number it is given is valid
through :func:`finite_real`, :func:`real_at_least` or :func:`integer_at_least`,
and whether an array is through :func:`finite_array`.  So every rejection of
bad input is a named :class:`LrtvarError`.  There are nine types: the base
and eight subclasses, each also a ``ValueError`` except
:class:`DegenerateProjectionError`, a ``RuntimeError``.  A value of the
wrong type or out of range, command-line options and config lines included,
is an :class:`InvalidHyperparameterError`; an array, CSV file or truth
bundle of the wrong shape, or one that does not parse as numbers, a
:class:`ShapeMismatchError`; data with nothing to fit a
:class:`DegenerateDataError`.  :func:`lrtvar.cli.main` prints each as one
``error:`` line.
"""

import math
import numbers
from typing import Optional

import numpy as np


class LrtvarError(Exception):
    """Base class for all package-specific errors."""


class SeriesTooShortError(LrtvarError, ValueError):
    """The time series does not contain a single full window."""


class NonFiniteError(LrtvarError, ValueError):
    """Input data contains NaN or infinite entries."""


class ZeroVarianceError(LrtvarError, ValueError):
    """A channel has zero variance and cannot be standardized."""


class DegenerateDataError(LrtvarError, ValueError):
    """Snapshot data leave nothing to fit: the whole data, so that no model
    can be initialized, or one window's predictor block, so that it has no
    independent fit, is identically zero."""


class DegenerateProjectionError(LrtvarError, RuntimeError):
    """Burn-in collapsed the state onto the null space; retry with a new seed."""


class ShapeMismatchError(LrtvarError, ValueError):
    """An array is not a rectangular array of numbers or has the wrong number
    of dimensions, or arrays that go together (a model's factors and the
    data it is fit to, windows, channels, estimate and ground truth) do not
    agree in shape, or an index array names entries that do not exist.  So
    is a CSV file that does not parse as such an array (a non-numeric cell,
    a row of another width, a header of another width than its data, text
    that is not UTF-8), a truth bundle whose files do not fit its series,
    and a series whose channel names would read back as a data row."""


class ExtremeScaleError(LrtvarError, ValueError):
    """Data or hyperparameters are too large or too small for float64 arithmetic."""


class InvalidHyperparameterError(LrtvarError, ValueError):
    """A solver hyperparameter or other setting has the wrong type or is out
    of range, such as an ``eta`` that is not > 0.  On the command line this
    covers every option check: a missing or inapplicable option, a config
    line or key that does not parse, and an unknown ``compare`` method."""


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


def real_at_least(name: str, value, least: float = 0.0, strict: bool = False) -> float:
    """``value`` checked by :func:`finite_real`, then required to be > ``least``
    (``strict``) or >= it, else :class:`InvalidHyperparameterError`."""
    number = finite_real(name, value)
    if number < least or (strict and number == least):
        raise InvalidHyperparameterError(f"{name} must be {'>' if strict else '>='} {least:g}, got {value!r}")
    return number


def integer_at_least(name: str, value, least: int, even: bool = False, most: Optional[int] = None) -> int:
    """``value`` as an int; a bool, a non-integer, a value below ``least``,
    with ``even`` an odd one, or one above ``most`` raises
    :class:`InvalidHyperparameterError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least or (even and value % 2):
        raise InvalidHyperparameterError(f"{name} must be an {'even ' * even}integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise InvalidHyperparameterError(f"need {least} <= {name} <= {most}, got {value}")
    return int(value)


def finite_array(name: str, value, ndim: int) -> np.ndarray:
    """``value`` as a float array; ragged nesting, an entry that is not a
    number or another number of dimensions than ``ndim`` raises
    :class:`ShapeMismatchError`, a NaN or infinite entry
    :class:`NonFiniteError`."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as error:
        raise ShapeMismatchError(f"{name} must be a rectangular array of real numbers ({error})") from error
    if array.ndim != ndim:
        raise ShapeMismatchError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return array

"""Snapshot construction: turn a raw multivariate series into windowed predictor/target tensors.

A trajectory x(1..tau+1) of N channels is cut into T non-overlapping windows
of M transitions each.  Window k collects the predictors X[:, j, k] and the
one-step-ahead targets Y[:, j, k].  With ``lags=P`` each predictor column
stacks the P most recent states; with ``affine=True`` a row of ones is
appended so a constant offset can be fit.  A :class:`SnapshotPair` holds
only the two tensors, the ``affine`` flag and the count of dropped
transitions: M, T and P are read from the tensor shapes.

The package's CSV codec lives here too: every CSV file it reads or writes
goes through :func:`read_csv` and :func:`write_csv`.  Reading takes one
path: the data lines stream into a single ``np.loadtxt`` call, and a parse
error names the file line it stopped on.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (InvalidHyperparameterError, NonFiniteError, SeriesTooShortError, ShapeMismatchError,
                     ZeroVarianceError, finite_array, integer_at_least)


@dataclass
class TimeSeries:
    """A multivariate trajectory, channels by samples.

    Parameters
    ----------
    values : ndarray, shape (N, n_samples)
        One row per channel, one column per time sample.  All entries finite.
    channel_names : list of str, optional
        Labels for the N channels.

    Samples are taken as equally spaced; no sample spacing is stored.
    ``values`` that are not 2-D, or channel names of another count than the
    channels, raise :class:`ShapeMismatchError`, a NaN or infinite entry
    :class:`NonFiniteError`, and fewer than 1 channel or 2 samples
    :class:`SeriesTooShortError`.
    """

    values: np.ndarray
    channel_names: Optional[list] = None

    def __post_init__(self):
        self.values = finite_array("values", self.values, 2)
        n, m = self.values.shape
        if n < 1 or m < 2:
            raise SeriesTooShortError(f"need at least 1 channel and 2 samples, got {n} x {m}")
        if self.channel_names is not None and len(self.channel_names) != n:
            raise ShapeMismatchError(f"{len(self.channel_names)} channel names for {n} channels")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass
class Standardization:
    """Per-channel affine transform recorded by :func:`standardize`.

    ``apply`` maps raw values to standardized ones; ``invert`` undoes it, so
    model predictions can be mapped back to the original units.  ``std`` is
    the sample (ddof=1) standard deviation.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean[:, None]) / self.std[:, None]

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std[:, None] + self.mean[:, None]


@dataclass
class SnapshotPair:
    """Paired predictor/target tensors consumed by the solver.

    X has shape (N_in, M, T) and Y has shape (N, M, T): T windows of M
    transitions each, column j of window k the transition number k*M + j of
    the source series.  X stacks the P most recent states of the N channels,
    N_in = N*P rows, plus a row of ones if ``affine``.  The shapes say all of
    M, T, P, N and N_in, so these are read-only properties of the tensors;
    ``dropped`` counts the transitions after the last full window.

    Tensors that are not 3-D arrays of numbers, do not cover the same
    windows, have an empty axis or an X whose rows are not a whole number
    >= 1 of Y's channel blocks (plus the row of ones) raise
    :class:`ShapeMismatchError`, a NaN or infinite entry
    :class:`NonFiniteError`, and an ``affine`` that is not a bool or a
    ``dropped`` that is not an integer >= 0
    :class:`InvalidHyperparameterError`.
    """

    X: np.ndarray
    Y: np.ndarray
    affine: bool = False
    dropped: int = 0

    def __post_init__(self):
        self.X, self.Y = finite_array("X", self.X, 3), finite_array("Y", self.Y, 3)
        if not isinstance(self.affine, bool):
            raise InvalidHyperparameterError(f"affine must be a bool, got {self.affine!r}")
        self.dropped = integer_at_least("dropped", self.dropped, 0)
        if self.X.shape[1:] != self.Y.shape[1:] or 0 in self.Y.shape:
            raise ShapeMismatchError(f"X {self.X.shape} and Y {self.Y.shape} must cover the same nonempty windows")
        if self.N_in - self.affine < self.N or (self.N_in - self.affine) % self.N:
            raise ShapeMismatchError(f"X has {self.N_in} rows, expected P*{self.N}{' + 1' if self.affine else ''} "
                                     "for an integer P >= 1")

    N = property(lambda self: self.Y.shape[0], doc="Output dimension (rows of Y).")
    N_in = property(lambda self: self.X.shape[0], doc="Input dimension (rows of X).")
    M = property(lambda self: self.X.shape[1], doc="Window length in transitions.")
    T = property(lambda self: self.X.shape[2], doc="Number of windows.")
    P = property(lambda self: (self.N_in - self.affine) // self.N, doc="Autoregressive order (number of lags).")


def build_snapshots(series: TimeSeries, M: int, P: int = 1, affine: bool = False) -> SnapshotPair:
    """Split a trajectory into T full windows of M transitions each.

    Transitions beyond the last full window are dropped and counted in the
    returned pair's ``dropped`` field.  For P > 1 each predictor column
    stacks the current state on top of the P-1 previous ones, so the first
    usable target is sample P+1 of the series.

    Parameters
    ----------
    series : TimeSeries
    M : int
        Window length in transitions, >= 1.
    P : int
        Autoregressive order (number of lags), >= 1.
    affine : bool
        Append a row of ones to every predictor block.

    Returns
    -------
    SnapshotPair

    Raises
    ------
    InvalidHyperparameterError
        If ``M`` or ``P`` is not an integer >= 1 (a bool is not one).
    SeriesTooShortError
        If not even one full window fits after lag alignment.
    """
    M, P = integer_at_least("M", M, 1), integer_at_least("P", P, 1)
    values = series.values
    n, n_samples = values.shape
    n_transitions = n_samples - P  # = tau - (P - 1)
    T = n_transitions // M
    if T < 1:
        raise SeriesTooShortError(
            f"series with {n_samples} samples and {P} lag(s) admits no full window of length {M}"
        )
    dropped = n_transitions - T * M

    # idx[j, k] is the 0-based sample index of the predictor's current state
    # for column j of window k; the target is the next sample.
    s = np.arange(T * M).reshape(T, M).T
    idx = (P - 1) + s
    blocks = [values[:, idx - lag] for lag in range(P)]
    if affine:
        blocks.append(np.ones((1, M, T)))
    X = np.concatenate(blocks, axis=0)
    Y = values[:, idx + 1]
    return SnapshotPair(X=X, Y=Y, affine=affine, dropped=dropped)


def standardize(series: TimeSeries) -> tuple[TimeSeries, Standardization]:
    """Rescale every channel to mean 0 and unit sample (ddof=1) standard deviation.

    Returns the standardized series together with the affine transform, so
    predictions can be mapped back to the original units.

    Raises
    ------
    ZeroVarianceError
        Naming the first constant channel encountered.
    """
    values = series.values
    mean = values.mean(axis=1)
    std = values.std(axis=1, ddof=1)
    bad = np.flatnonzero(std == 0.0)
    if bad.size:
        i = int(bad[0])
        name = series.channel_names[i] if series.channel_names else f"channel {i}"
        raise ZeroVarianceError(f"{name} has zero variance")
    transform = Standardization(mean=mean, std=std)
    out = TimeSeries(values=transform.apply(values), channel_names=series.channel_names)
    return out, transform


def format_cell(value) -> str:
    """CSV text of one cell: 17 significant digits for floats, ``str`` for the rest."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _header_line(names) -> str:
    """The CSV header line of ``names``.  A name that is blank, holds ``,`` or
    ``"`` or starts with ``#`` is quoted, its quotes doubled, so the line is
    neither blank nor a comment and splits back into these names."""
    return ",".join('"' + name.replace('"', '""') + '"'
                    if not name.strip() or "," in name or '"' in name or name.startswith("#") else name
                    for name in names)


def write_csv(path, rows, header=None, manifest: Optional[str] = None, comments=()) -> None:
    """Write ``rows`` as UTF-8 CSV: a ``# manifest`` line, ``#`` comments, an
    optional header row (:func:`_header_line`), then one line per row of
    cells.  The rows of a 2-D float array are written with one ``%``-format
    per row, whose ``%.17g`` is :func:`format_cell`'s text for every Python
    float."""
    line = None
    if isinstance(rows, np.ndarray):
        if rows.ndim == 2 and rows.dtype.kind == "f":
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        rows = map(np.ndarray.tolist, rows)  # Python floats format faster than numpy scalars, to the same text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest:
            fh.write(f"# {manifest}\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
        if header is not None:
            fh.write(_header_line(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row) if line else ",".join(map(format_cell, row)) + "\n")


def _content_lines(fh, at):
    """The lines of ``fh`` (read with universal newlines, so each ends in
    ``\n`` but the last) that are neither blank nor ``#`` comments, as they
    are read.  ``at[0]`` holds the file line number of the last one yielded;
    a line with an odd number of quotes, whose quoted cell would run on into
    the next line, raises :class:`ShapeMismatchError`."""
    for n, line in enumerate(fh, start=1):
        if line != "\n" and not line.lstrip().startswith("#"):
            at[0] = n
            if line.count('"') % 2:
                raise ShapeMismatchError("unterminated quote")
            yield line


# numpy's location of a parse error: the 0- or 1-based row and a 1-based column
_NUMPY_LOCATION = re.compile(r"(.*?) at row \d+(?:, column (\d+))?(?:\.|;.*)?", re.S)


def _located(path, line: int, exc: ValueError) -> str:
    """The message of a parse error with file line ``line`` as its only row
    location: ``"<path>: line <n>[, column <c>]: <numpy's text>"``."""
    match = _NUMPY_LOCATION.fullmatch(str(exc))
    text, column = match.groups() if match else (str(exc), None)
    return f"{path}: line {line}{'' if column is None else f', column {column}'}: {text}"


def _parse(lines) -> np.ndarray:
    """The numbers of CSV ``lines`` as a 2-D array; cells may be quoted with ``"``."""
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)


def _is_data_row(line: str) -> bool:
    """Whether the CSV ``line`` parses as a row of numbers."""
    try:
        _parse([line])
    except ValueError:
        return False
    return True


def read_csv(path) -> tuple:
    """Read a numeric CSV as ``(header or None, 2-D float array)``.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped.  Cells may be quoted with ``"``.  The first line is a header when
    it does not parse as numbers; its names are split by ``csv``.  The data
    lines are fed as they are read to one ``np.loadtxt`` call, which pulls
    one line at a time, so the line it fails on is the one last read: a bad
    cell reads ``"<path>: line <n>, column <c>: ..."`` with the 1-based file
    line and cell, a change of width or an unterminated quote ``"<path>:
    line <n>: ..."``.  These, a file that is not UTF-8 and a header of
    another width than the data raise :class:`ShapeMismatchError`.  A
    non-finite cell raises :class:`NonFiniteError` and a file with no data
    rows :class:`SeriesTooShortError`.
    """
    header, at = None, [0]
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh, at)
        try:
            first = next(lines, None)
            if first is not None and not _is_data_row(first):
                header, first = [c.strip() for c in next(csv.reader([first]))], next(lines, None)
            data = None if first is None else _parse(itertools.chain([first], lines))
        except UnicodeDecodeError as exc:  # decoded a block at a time, so no line is known
            raise ShapeMismatchError(f"{path}: not UTF-8: {exc}") from None
        except ValueError as exc:
            raise ShapeMismatchError(_located(path, at[0], exc)) from None
    if data is None:
        raise SeriesTooShortError(f"{path}: no data rows")
    if header is not None and len(header) != data.shape[1]:
        raise ShapeMismatchError(f"{path}: header has {len(header)} names, data rows have {data.shape[1]} cells")
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{path}: non-finite cell in data")
    return header, data


def read_series_csv(path) -> TimeSeries:
    """Read a time series from CSV (:func:`read_csv`): one row per sample, one
    column per channel; an optional header row names the channels."""
    header, data = read_csv(path)
    return TimeSeries(values=data.T, channel_names=header)  # rows are samples


def write_series_csv(path, series: TimeSeries, manifest: Optional[str] = None) -> None:
    """Write a series as CSV (rows = samples, columns = channels), 17 significant digits.

    A channel name that would not read back, one holding a line break or
    starting or ending in white space that :func:`read_csv` strips, and
    names whose header line would read back as a data row (all of them
    numbers, such as ``['1', '2']``) raise :class:`ShapeMismatchError`
    before anything is written."""
    names = series.channel_names or [f"ch{i}" for i in range(series.n_channels)]
    if bad := [name for name in names if "\n" in name or "\r" in name or name != name.strip()]:
        raise ShapeMismatchError(f"channel name {bad[0]!r} holds a line break or surrounding white space")
    if _is_data_row(_header_line(names)):
        raise ShapeMismatchError(f"channel names {names} would read back as a data row")
    write_csv(path, series.values.T, header=names, manifest=manifest)

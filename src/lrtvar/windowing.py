"""Snapshot construction: turn a raw multivariate series into windowed predictor/target tensors.

A trajectory x(1..tau+1) of N channels is cut into T non-overlapping windows
of M transitions each.  Window k collects the predictors X[:, j, k] and the
one-step-ahead targets Y[:, j, k].  With ``lags=P`` each predictor column
stacks the P most recent states; with ``affine=True`` a row of ones is
appended so a constant offset can be fit.

The package's CSV codec lives here too: every CSV file it reads or writes
goes through :func:`read_csv` and :func:`write_csv`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError, SeriesTooShortError, ZeroVarianceError


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
    """

    values: np.ndarray
    channel_names: Optional[list] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D (channels x samples), got shape {self.values.shape}")
        n, m = self.values.shape
        if n < 1 or m < 2:
            raise SeriesTooShortError(f"need at least 1 channel and 2 samples, got {n} x {m}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteError("time series contains non-finite entries")
        if self.channel_names is not None and len(self.channel_names) != n:
            raise ValueError(f"{len(self.channel_names)} channel names for {n} channels")

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

    X has shape (N_in, M, T) and Y has shape (N, M, T) where N_in = N*P,
    plus one if ``affine`` (the appended ones row).  Column j of window k
    holds the transition number k*M + j of the source series.
    """

    X: np.ndarray
    Y: np.ndarray
    M: int
    T: int
    P: int = 1
    affine: bool = False
    dropped: int = 0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 3 or self.Y.ndim != 3:
            raise ValueError("X and Y must be 3-D tensors (channels x M x T)")
        n_in, m, t = self.X.shape
        n, m2, t2 = self.Y.shape
        if (m, t) != (m2, t2) or m != self.M or t != self.T:
            raise ValueError(f"inconsistent window shapes: X {self.X.shape}, Y {self.Y.shape}, M={self.M}, T={self.T}")
        if n_in != n * self.P + (1 if self.affine else 0):
            raise ValueError(f"X has {n_in} rows, expected {n}*{self.P}{' + 1' if self.affine else ''}")

    @property
    def N(self) -> int:
        """Output dimension (rows of Y)."""
        return self.Y.shape[0]

    @property
    def N_in(self) -> int:
        """Input dimension (rows of X)."""
        return self.X.shape[0]


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
    SeriesTooShortError
        If not even one full window fits after lag alignment.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
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
    return SnapshotPair(X=X, Y=Y, M=M, T=T, P=P, affine=affine, dropped=dropped)


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


def write_csv(path, rows, header=None, manifest: Optional[str] = None, comments=()) -> None:
    """Write ``rows`` as UTF-8 CSV: a ``# manifest`` line, ``#`` comments, an
    optional header row, then one line per row of cells."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest:
            fh.write(f"# {manifest}\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_cell, row)) + "\n")


def read_csv(path) -> tuple:
    """Read a numeric CSV as ``(header or None, 2-D float array)``.

    Lines starting with ``#`` are skipped.  A single header row is detected
    by a non-numeric first data line.  A bad cell (reported with its line
    number), ragged rows, a non-finite cell or no data rows is a hard error.
    """
    rows = []
    header = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if header is None and not rows:
                try:
                    rows.append([float(c) for c in row])
                    continue
                except ValueError:
                    header = [c.strip() for c in row]
                    continue
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad cell ({exc})") from None
    if not rows:
        raise SeriesTooShortError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{path}: non-finite cell in data")
    return header, data


def read_series_csv(path) -> TimeSeries:
    """Read a time series from CSV (:func:`read_csv`): one row per sample, one
    column per channel; an optional header row names the channels."""
    header, data = read_csv(path)
    return TimeSeries(values=data.T, channel_names=header)  # rows are samples


def write_series_csv(path, series: TimeSeries, manifest: Optional[str] = None) -> None:
    """Write a series as CSV (rows = samples, columns = channels), 17 significant digits."""
    names = series.channel_names or [f"ch{i}" for i in range(series.n_channels)]
    write_csv(path, series.values.T, header=names, manifest=manifest)

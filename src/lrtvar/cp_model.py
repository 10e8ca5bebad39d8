"""Rank-R factored representation of the stack of per-window system matrices.

The stack of T system matrices is a third-order tensor stored as three
factor matrices: left spatial modes U1 (N x R), right spatial modes U2
(N_in x R), and temporal modes U3 (T x R).  Window k's system matrix is
``U1 @ diag(U3[k]) @ U2.T``; nothing larger than N x R is ever required
to work with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError
from .windowing import write_csv


class _FactorShapes:
    """The shape properties of a factor triple U1 (N x R), U2 (N_in x R)
    and U3 (T x R)."""

    @property
    def N(self) -> int:
        return self.U1.shape[0]

    @property
    def N_in(self) -> int:
        return self.U2.shape[0]

    @property
    def T(self) -> int:
        return self.U3.shape[0]

    @property
    def R(self) -> int:
        return self.U1.shape[1]


@dataclass
class CpFactors(_FactorShapes):
    """Factor triple (U1, U2, U3) of the system tensor.

    A value type: operations never mutate it in place, they return new
    instances, so concurrent readers are safe.

    Parameters
    ----------
    U1 : ndarray (N, R)
        Left spatial modes; column space of every system matrix.
    U2 : ndarray (N_in, R)
        Right spatial modes; if ``affine`` the last row is the offset
        loading, so the last column of each system matrix is the offset.
    U3 : ndarray (T, R)
        Temporal modes; row k scales the components in window k.
    affine : bool
    """

    U1: np.ndarray
    U2: np.ndarray
    U3: np.ndarray
    affine: bool = False

    def __post_init__(self):
        self.U1 = np.asarray(self.U1, dtype=float)
        self.U2 = np.asarray(self.U2, dtype=float)
        self.U3 = np.asarray(self.U3, dtype=float)
        for name, u in (("U1", self.U1), ("U2", self.U2), ("U3", self.U3)):
            if u.ndim != 2:
                raise ValueError(f"{name} must be 2-D, got shape {u.shape}")
            if not np.all(np.isfinite(u)):
                raise NonFiniteError(f"{name} contains non-finite entries")
        ranks = {self.U1.shape[1], self.U2.shape[1], self.U3.shape[1]}
        if len(ranks) != 1:
            raise ValueError(f"factor column counts differ: {self.U1.shape[1]}, {self.U2.shape[1]}, {self.U3.shape[1]}")
        if self.R < 1:
            raise ValueError("rank must be >= 1")

    def slice(self, k: int) -> np.ndarray:
        """System matrix of window k (0-based): U1 @ diag(U3[k]) @ U2.T.

        With ``affine`` the last column of the result is the offset vector
        for that window.
        """
        if not 0 <= k < self.T:
            raise IndexError(f"window index {k} out of range [0, {self.T})")
        return (self.U1 * self.U3[k]) @ self.U2.T

    def normalize(self) -> "NormalizedCp":
        """Unit-column factors with scales split off, sorted by descending scale.

        Columns of every factor are rescaled to unit 2-norm and the product
        of the three norms is collected per component.  A zero column is left
        as it is, and a component with one gets scale 0.  Signs are fixed
        deterministically: the largest-magnitude entry of each temporal
        column (the first of tied ones) is made positive, with the flip
        absorbed by the left spatial column so the tensor is unchanged.  Ties
        in the ordering are broken by original component index.
        """
        norms = [np.linalg.norm(U, axis=0) for U in (self.U1, self.U2, self.U3)]
        lam = norms[0] * norms[1] * norms[2]
        U1, U2, U3 = (np.divide(U, n, out=U.copy(), where=n > 0) for U, n in zip((self.U1, self.U2, self.U3), norms))
        flip = U3[np.argmax(np.abs(U3), axis=0), np.arange(self.R)] < 0
        U1[:, flip] = -U1[:, flip]
        U3[:, flip] = -U3[:, flip]
        order = np.argsort(-lam, kind="stable")
        factors = CpFactors(U1=U1[:, order], U2=U2[:, order], U3=U3[:, order], affine=self.affine)
        return NormalizedCp(factors=factors, lam=lam[order])

    def effective_rank(self, threshold_fraction: float = 0.1) -> int:
        """Number of components whose scale is at least a fraction of the largest."""
        if not 0.0 < threshold_fraction < 1.0:
            raise ValueError(f"threshold_fraction must be in (0, 1), got {threshold_fraction}")
        lam = self.normalize().lam
        if lam[0] == 0.0:
            return 0
        return int(np.count_nonzero(lam >= threshold_fraction * lam[0]))


@dataclass
class NormalizedCp:
    """Unit-column factors plus the nonnegative scale vector, descending."""

    factors: CpFactors
    lam: np.ndarray


def export_factors(normalized: NormalizedCp, outdir, manifest: Optional[str] = None) -> list:
    """Write U1/U2/U3/lambda as four CSV files under ``outdir``; returns the paths.

    Rows of U1.csv are output channels, rows of U2.csv are input channels
    (the last one is the offset loading for affine models), rows of U3.csv
    are windows; columns are components ordered by descending scale.
    """
    f = normalized.factors
    paths = []
    specs = [
        ("U1.csv", f.U1, "output channel"),
        ("U2.csv", f.U2, "input channel (last row = offset loading)" if f.affine else "input channel"),
        ("U3.csv", f.U3, "window"),
    ]
    header = [f"component_{r}" for r in range(f.R)]
    for fname, mat, rowkind in specs:
        path = os.path.join(outdir, fname)
        comment = f"rows: {rowkind}; columns: components by descending scale"
        write_csv(path, mat, header=header, manifest=manifest, comments=[comment])
        paths.append(path)
    path = os.path.join(outdir, "lambda.csv")
    write_csv(path, enumerate(normalized.lam), header=["component", "scale"], manifest=manifest)
    paths.append(path)
    return paths

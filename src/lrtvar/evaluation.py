"""Baselines, ground-truth error metrics, and temporal-mode clustering.

The independent baseline fits each window's system matrix on its own
(optionally truncated to a rank-R subspace of the window's data), which is
what the factored solver should beat under noise.  Errors against a known
ground truth are averaged operator norms per window.  Clustering of the
temporal-mode rows turns loadings into regime labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cp_model import CpFactors
from .errors import DegenerateWindowError, ShapeMismatchError
from .synthetic import GroundTruth
from .windowing import SnapshotPair

PINV_RTOL = 1e-12


@dataclass
class WindowedEstimate:
    """Per-window system matrices from any estimator, plus a method tag."""

    matrices: np.ndarray  # (T, N, N_in)
    method: str

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=float)
        if self.matrices.ndim != 3:
            raise ValueError(f"matrices must be (T, N, N_in), got shape {self.matrices.shape}")
        if not np.all(np.isfinite(self.matrices)):
            raise ValueError("estimate contains non-finite entries")

    @property
    def T(self) -> int:
        return self.matrices.shape[0]


def _pinv(mat: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(mat, rcond=PINV_RTOL)


def independent_fit(data: SnapshotPair, rank: Optional[int] = None) -> WindowedEstimate:
    """Fit each window separately by least squares, optionally rank-truncated.

    With ``rank`` absent every window gets A_k = Y_k pinv(X_k).  With
    ``rank=R`` the window's raw time series (its predictor columns plus the
    final target column) is first compressed to its R leading left singular
    vectors U_R; the one-step map is regressed between the R-dimensional
    coefficient series and projected back as U_R B U_R'.  Truncation
    requires plain data (one lag, no affine row) so the window series is
    well defined.

    Raises
    ------
    DegenerateWindowError
        If some window's predictor block is identically zero.
    """
    T = data.T
    if rank is not None and (data.P != 1 or data.affine):
        raise ValueError("rank-truncated fits need P=1, non-affine data")
    matrices = np.empty((T, data.N, data.N_in))
    for k in range(T):
        Xk = data.X[:, :, k]
        Yk = data.Y[:, :, k]
        if not np.any(Xk):
            raise DegenerateWindowError(f"window {k} predictor block is identically zero")
        if rank is None:
            matrices[k] = Yk @ _pinv(Xk)
        else:
            block = np.concatenate([Xk, Yk[:, -1:]], axis=1)
            U, _, _ = np.linalg.svd(block, full_matrices=False)
            Ur = U[:, :rank]
            Cx = Ur.T @ Xk
            Cy = Ur.T @ Yk
            B = Cy @ _pinv(Cx)
            matrices[k] = Ur @ B @ Ur.T
    tag = "indep-full" if rank is None else f"indep-r{rank}"
    return WindowedEstimate(matrices=matrices, method=tag)


def model_estimate(model: CpFactors) -> WindowedEstimate:
    """Per-window matrices of a fitted factored model."""
    matrices = np.stack([model.slice(k) for k in range(model.T)])
    return WindowedEstimate(matrices=matrices, method=f"lowrank-r{model.R}")


def estimate_rmse(est: WindowedEstimate, data: SnapshotPair) -> float:
    """In-sample prediction error per channel of any windowed estimate."""
    if est.T != data.T:
        raise ShapeMismatchError(f"{est.T} estimate windows vs {data.T} data windows")
    total = 0.0
    for k in range(data.T):
        resid = data.Y[:, :, k] - est.matrices[k] @ data.X[:, :, k]
        total += float(np.sum(resid * resid))
    return float(np.sqrt(total / (data.N * data.M * data.T)))


def truth_window_average(truth: GroundTruth, T: int, window_length: Optional[int] = None) -> np.ndarray:
    """Per-window truth: average the per-transition matrices inside each window.

    ``window_length`` defaults to n_transitions // T, which is exact when the
    windowing dropped no tail.
    """
    if window_length is None:
        if truth.n_transitions % T:
            raise ShapeMismatchError(
                f"{truth.n_transitions} transitions do not divide into {T} windows; pass window_length"
            )
        window_length = truth.n_transitions // T
    if window_length * T > truth.n_transitions:
        raise ShapeMismatchError(
            f"{T} windows of {window_length} transitions exceed the {truth.n_transitions} available"
        )
    out = np.empty((T, *truth.unique_matrices[0].shape))
    for k in range(T):
        block = range(k * window_length, (k + 1) * window_length)
        out[k] = sum(truth.matrix_at(t) for t in block) / window_length
    return out


def operator_norm_error(
    est: WindowedEstimate, truth: GroundTruth, window_length: Optional[int] = None
) -> float:
    """Mean over windows of the largest singular value of (estimate - truth).

    Per-transition truth is averaged into the estimate's windows first; with
    one window per transition that is the per-transition truth itself.
    """
    ref = truth_window_average(truth, est.T, window_length)
    if ref.shape != est.matrices.shape:
        raise ShapeMismatchError(f"estimate {est.matrices.shape} vs truth {ref.shape}")
    diffs = est.matrices - ref
    return float(np.mean([np.linalg.norm(d, 2) for d in diffs]))


def _kmeans_single(X: np.ndarray, k: int, rng: np.random.Generator, max_iters: int = 100):
    """One k-means run with k-means++ seeding; returns (labels, inertia, history).

    ``history`` is the within-cluster sum of squares after every assignment
    step; it is non-increasing.
    """
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total == 0.0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        probs = closest_sq / total
        centers[j] = X[rng.choice(n, p=probs)]
        closest_sq = np.minimum(closest_sq, np.sum((X - centers[j]) ** 2, axis=1))

    labels = np.zeros(n, dtype=int)
    history = []
    for _ in range(max_iters):
        d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = X[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return labels, history[-1], history


def cluster_temporal_modes(U3: np.ndarray, k: int, seed: int = 0, n_restarts: int = 100) -> np.ndarray:
    """Cluster the rows of the temporal-mode matrix into k regimes.

    k-means with k-means++ seeding, ``n_restarts`` independent restarts, and
    the lowest within-cluster sum of squares wins.  Labels are canonicalized
    by first occurrence (the first row is always labeled 0), so runs are
    comparable across seeds.
    """
    U3 = np.asarray(U3, dtype=float)
    T = U3.shape[0]
    if not 1 <= k <= T:
        raise ValueError(f"need 1 <= k <= {T}, got {k}")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(n_restarts):
        labels, inertia, _ = _kmeans_single(U3, k, rng)
        if inertia < best_inertia - 1e-15:
            best_labels, best_inertia = labels, inertia
    remap = {}
    out = np.empty(T, dtype=int)
    for i, lab in enumerate(best_labels):
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return out

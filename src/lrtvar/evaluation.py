"""Baselines, ground-truth error metrics, and temporal-mode clustering.

Every estimate is held as per-window factor pairs, window k's system matrix
being ``left[k] @ right[k].T``: the factored model's windows have rank R, a
least-squares window fit rank at most M, and the synthetic truths rank 2.
Errors against a known ground truth are averaged operator norms per window,
computed exactly from thin QR factors of the stacked pairs (the POD-style
compression of dynamic mode decomposition) without forming any N x N_in
matrix.  The independent baseline fits each window's system matrix on its
own (optionally truncated to a rank-R subspace of the window's data), which
is what the factored solver should beat under noise.  Clustering of the
temporal-mode rows turns loadings into regime labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cp_model import CpFactors
from .errors import DegenerateDataError, InvalidHyperparameterError, ShapeMismatchError, finite_array, integer_at_least
from .synthetic import GroundTruth
from .windowing import SnapshotPair

PINV_RTOL = 1e-12
KMEANS_RESTARTS = 100  # independent k-means++ restarts per clustering
KMEANS_MAX_ITERS = 100  # Lloyd steps per restart


@dataclass
class WindowedEstimate:
    """Per-window system matrices from any estimator, as factor pairs.

    Window k's matrix is ``left[k] @ right[k].T``, with ``left`` of shape
    (T, N, r) and ``right`` of shape (T, N_in, r); no N x N_in matrix is
    stored.  A factor that is not 3-D, or factors that differ in windows
    or rank, raise :class:`ShapeMismatchError`; a NaN or infinite entry
    :class:`NonFiniteError`.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left, self.right = finite_array("left", self.left, 3), finite_array("right", self.right, 3)
        if self.left.shape[::2] != self.right.shape[::2]:
            raise ShapeMismatchError(f"left {self.left.shape} and right {self.right.shape} differ in windows or rank")

    @property
    def T(self) -> int:
        return self.left.shape[0]

    @property
    def shape(self) -> tuple:
        """(T, N, N_in) of the stack of windowed matrices."""
        return (self.T, self.left.shape[1], self.right.shape[1])


def _windows(A: np.ndarray) -> np.ndarray:
    """The (T, rows, M) window-major copy of a (rows, M, T) data tensor."""
    return np.ascontiguousarray(np.moveaxis(A, 2, 0))


def _side_by_side(F: np.ndarray) -> np.ndarray:
    """(T, n_parts, rows, q) factor parts laid side by side as (T, rows, n_parts * q)."""
    T, _, rows, _ = F.shape
    return F.transpose(0, 2, 1, 3).reshape(T, rows, -1)


def independent_fit(data: SnapshotPair, rank: Optional[int] = None) -> WindowedEstimate:
    """Fit each window separately by least squares, optionally rank-truncated.

    With ``rank`` absent every window gets A_k = Y_k pinv(X_k), factored
    from the SVD X_k = U S V' that the pseudoinverse is made of as
    ``left = Y_k V_r / s_r`` and ``right = U_r``, with the singular values
    above ``PINV_RTOL`` times the largest kept.  With ``rank=R`` the
    window's raw time series (its predictor columns plus the final target
    column) is first compressed to its R leading left singular vectors U_R;
    the one-step map B is regressed between the R-dimensional coefficient
    series, giving ``left = U_R B`` and ``right = U_R``.  Truncation
    requires plain data (one lag, no affine row) so the window series is
    well defined.  That series has N rows and M + 1 columns, so its rank,
    and ``rank``, is at most min(N, M + 1).  Windows of lower rank are
    zero-padded to the largest.

    Raises
    ------
    InvalidHyperparameterError
        If ``rank`` is neither None nor an integer in 1..min(N, M + 1) (a
        bool is not one), or is given for data with lags or an affine row.
    DegenerateDataError
        If some window's predictor block is identically zero.
    """
    if rank is not None:
        rank = integer_at_least("rank", rank, 1, most=min(data.N, data.M + 1))
    if rank is not None and (data.P != 1 or data.affine):
        raise InvalidHyperparameterError("rank-truncated fits need P=1, non-affine data")
    X, Y = _windows(data.X), _windows(data.Y)
    zero = ~np.any(X, axis=(1, 2))
    if zero.any():
        raise DegenerateDataError(f"window {int(np.argmax(zero))} predictor block is identically zero")
    if rank is None:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        keep = s > PINV_RTOL * s[:, :1]
        r = int(keep.sum(axis=1).max())
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)[:, None, :r]
        return WindowedEstimate(left=(Y @ Vt[:, :r].transpose(0, 2, 1)) * inv_s, right=U[:, :, :r] * keep[:, None, :r])
    U, _, _ = np.linalg.svd(np.concatenate([X, Y[:, :, -1:]], axis=2), full_matrices=False)
    Ur = U[:, :, :rank]
    Ur_t = Ur.transpose(0, 2, 1)
    B = (Ur_t @ Y) @ np.linalg.pinv(Ur_t @ X, rcond=PINV_RTOL)
    return WindowedEstimate(left=Ur @ B, right=Ur)


def model_estimate(model: CpFactors) -> WindowedEstimate:
    """Per-window factors of a fitted factored model: ``left[k] = U1 diag(U3[k])``
    and ``right[k] = U2``, the latter broadcast over windows without a copy."""
    return WindowedEstimate(
        left=model.U1 * model.U3[:, None, :], right=np.broadcast_to(model.U2, (model.T, model.N_in, model.R))
    )


def estimate_rmse(est: WindowedEstimate, data: SnapshotPair) -> float:
    """In-sample prediction error per channel of any windowed estimate."""
    if est.T != data.T:
        raise ShapeMismatchError(f"{est.T} estimate windows vs {data.T} data windows")
    resid = _windows(data.Y) - est.left @ (est.right.transpose(0, 2, 1) @ _windows(data.X))
    return float(np.sqrt(np.sum(resid * resid) / (data.N * data.M * data.T)))


def truth_window_average(truth: GroundTruth, T: int, window_length: Optional[int] = None) -> WindowedEstimate:
    """Per-window truth: average the per-transition matrices inside each window.

    ``window_length`` defaults to n_transitions // T, which is exact when the
    windowing dropped no tail.  Window k's average is the sum over the blocks
    active in it of w_kb * left[b] @ right[b].T, where w_kb is the share of
    the window's transitions that block b generated; its factors lay the
    active blocks side by side with the weights folded into ``left``, and
    are zero-padded to the window with the most active blocks.

    A ``T``, or a ``window_length`` that is not None, that is not an integer
    >= 1 (a bool is not one) raises :class:`InvalidHyperparameterError`;
    windows that do not fit the transitions :class:`ShapeMismatchError`.
    """
    T = integer_at_least("T", T, 1)
    if window_length is None:
        if truth.n_transitions % T:
            raise ShapeMismatchError(
                f"{truth.n_transitions} transitions do not divide into {T} windows; pass window_length"
            )
        window_length = truth.n_transitions // T
    else:
        window_length = integer_at_least("window_length", window_length, 1)
    if window_length * T > truth.n_transitions:
        raise ShapeMismatchError(
            f"{T} windows of {window_length} transitions exceed the {truth.n_transitions} available"
        )
    index = truth.matrix_index[: T * window_length].reshape(T, window_length)
    counts = np.zeros((T, truth.left.shape[0]))  # counts[k, b]: transitions of window k made by block b
    np.add.at(counts, (np.arange(T)[:, None], index), 1.0)
    width = int(np.count_nonzero(counts, axis=1).max())
    blocks = np.argsort(counts == 0, axis=1, kind="stable")[:, :width]  # active blocks first
    weights = np.take_along_axis(counts, blocks, axis=1) / window_length  # zero on the padding
    return WindowedEstimate(
        left=_side_by_side(truth.left[blocks] * weights[:, :, None, None]),
        right=_side_by_side(truth.right[blocks] * (weights > 0)[:, :, None, None]),
    )


def operator_norm_error(
    est: WindowedEstimate, truth: GroundTruth, window_length: Optional[int] = None
) -> float:
    """Mean over windows of the largest singular value of (estimate - truth).

    Per-transition truth is averaged into the estimate's windows first; with
    one window per transition that is the per-transition truth itself.  The
    difference of window k is [L_e, -L_t] [R_e, R_t]'; with thin QR factors
    of the two sides, Q_L R_L and Q_R R_R, its 2-norm is that of the small
    core R_L R_R', so the cost is O(N r^2) per window, r the summed ranks.
    ``window_length`` is checked as in :func:`truth_window_average`.
    """
    ref = truth_window_average(truth, est.T, window_length)
    if ref.shape != est.shape:
        raise ShapeMismatchError(f"estimate {est.shape} vs truth {ref.shape}")
    left_r = np.linalg.qr(np.concatenate([est.left, -ref.left], axis=2), mode="r")
    right_r = np.linalg.qr(np.concatenate([est.right, ref.right], axis=2), mode="r")
    core = left_r @ right_r.transpose(0, 2, 1)
    return float(np.mean(np.linalg.svd(core, compute_uv=False).max(axis=1, initial=0.0)))


def _kmeans_plus_plus(X: np.ndarray, k: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    """The (restarts, k, d) initial centers of independent k-means++ seedings
    from the rows of X, all restarts drawn together.

    One ``rng.integers(n, size=restarts)`` picks every restart's first
    center; then each further center takes one ``rng.random(restarts)``,
    and restart r takes the first row whose cumulative weight (squared
    distance to its nearest center so far) exceeds u_r times the total,
    ``Generator.choice``'s inverse-CDF rule, so a row of weight 0 is never
    taken while the total is positive.  A restart whose total is 0 takes
    the last row, a duplicate center that Lloyd's first-index ``argmin``
    never assigns.
    """
    n = X.shape[0]
    centers = np.empty((restarts, k, X.shape[1]))
    centers[:, 0] = X[rng.integers(n, size=restarts)]
    closest_sq = np.sum((X - centers[:, :1]) ** 2, axis=2)
    for j in range(1, k):
        cdf = np.cumsum(closest_sq, axis=1)
        below = cdf <= rng.random(restarts)[:, None] * cdf[:, -1:]
        centers[:, j] = X[np.minimum(np.count_nonzero(below, axis=1), n - 1)]
        closest_sq = np.minimum(closest_sq, np.sum((X - centers[:, j : j + 1]) ** 2, axis=2))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd steps of every restart at once from its (restarts, k, d)
    initial centers; returns the (restarts, n) labels of the rows of X and
    each restart's within-cluster sum of squares at its last assignment.

    A restart stops once its centers stop moving, or after
    ``KMEANS_MAX_ITERS`` steps.  A center with no members stays put.  The
    member sums are accumulated row by row in order, as ``mean`` does for
    rows of more than one column.
    """
    restarts, k, _ = centers.shape
    labels = np.empty((restarts, X.shape[0]), dtype=int)
    inertia = np.empty(restarts)
    active = np.arange(restarts)
    for _ in range(KMEANS_MAX_ITERS):
        current = centers[active]
        d2 = np.sum((X[None, :, None, :] - current[:, None, :, :]) ** 2, axis=3)
        step = np.argmin(d2, axis=2)
        labels[active] = step
        inertia[active] = np.take_along_axis(d2, step[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        sums = np.zeros_like(current)
        np.add.at(sums, (np.arange(len(active))[:, None], step), X)
        counts = np.sum(step[:, :, None] == np.arange(k), axis=1)[:, :, None]
        moved = np.where(counts > 0, sums / np.maximum(counts, 1), current)
        centers[active] = moved
        active = active[np.any(moved != current, axis=(1, 2))]
        if not active.size:
            break
    return labels, inertia


def cluster_temporal_modes(U3: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster the rows of the temporal-mode matrix into k regimes.

    k-means with k-means++ seeding, ``KMEANS_RESTARTS`` independent
    restarts, and the lowest within-cluster sum of squares wins (the first
    of those within 1e-15 of it).  The restarts are seeded together from
    ``seed`` (see :func:`_kmeans_plus_plus`), and their Lloyd steps run as
    one batch.  Labels are canonicalized by first occurrence (the first row
    is always labeled 0), so runs are comparable across seeds.  A ``U3``
    that is not 2-D raises :class:`ShapeMismatchError`, one with a NaN or
    infinite entry :class:`NonFiniteError`, and a ``k`` that is not an
    integer (a bool is not one) or is outside 1..T
    :class:`InvalidHyperparameterError`.
    """
    U3 = finite_array("U3", U3, 2)
    k = integer_at_least("k", k, 1, most=U3.shape[0])
    labels, inertia = _lloyd(U3, _kmeans_plus_plus(U3, k, KMEANS_RESTARTS, np.random.default_rng(seed)))
    best = np.flatnonzero(inertia <= inertia.min() + 1e-15)[0]
    _, first, inverse = np.unique(labels[best], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]

"""Ground-truth benchmark generators: switching and smoothly varying rank-2 rotations.

Both benchmarks iterate x(t+1) = A(t) x(t) where every A(t) is a rank-2
rotation embedded in N dimensions, observed under i.i.d. Gaussian noise.
The switching problem uses two fixed rotations with a change point halfway;
the smooth problem modulates one rotation's angle by a Gaussian-process
draw.  States are normalized to norm sqrt(N) so the per-entry signal scale
is 1 for every N, keeping the signal-to-noise ratio independent of the
system size.

Every A(t) is stored as the factor pair it is drawn as, (W Rot(theta), W),
so scoring never needs it as an N x N matrix; dense blocks are formed on
demand for the truth bundle, and the simulation itself still iterates the
dense A = (W Rot(theta)) W'.  Dense matrices read from outside are factored
once by :func:`factor_blocks`.

Randomness is split into named child streams of one seed (matrices, angle
process, observation noise), so each ingredient is independently
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateProjectionError
from .windowing import TimeSeries

BURN_IN_STEPS = 200
DEFAULT_THETA1 = 0.1 * np.pi
DEFAULT_THETA2 = 0.37 * np.pi
GP_JITTER = 0.001  # added to the GP covariance diagonal so its Cholesky factorization is stable


@dataclass
class GroundTruth:
    """A noisy trajectory together with the exact per-transition dynamics.

    Block b of the dynamics is ``left[b] @ right[b].T``, with ``left`` of
    shape (n_blocks, N, q) and ``right`` of shape (n_blocks, N_in, q), and
    ``matrix_index[t]`` names the block that generated transition t
    (x(t) -> x(t+1)).  Storing unique blocks keeps the bundle small when most
    transitions share a matrix; storing them factored keeps every block
    O(N q).  The generators' settings (noise scale, angles, seed) are not
    stored; the CLI records them in each file's manifest.
    """

    series: TimeSeries
    left: np.ndarray
    right: np.ndarray
    matrix_index: np.ndarray

    @property
    def n_transitions(self) -> int:
        return self.matrix_index.shape[0]

    @property
    def unique_matrices(self) -> list:
        """Every block as a dense matrix, formed on each access."""
        return [L @ R.T for L, R in zip(self.left, self.right)]

    def matrix_at(self, t: int) -> np.ndarray:
        """Dense system matrix for transition t (0-based)."""
        b = self.matrix_index[t]
        return self.left[b] @ self.right[b].T


def factor_blocks(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Factor dense (n_blocks, N, N_in) matrices as ``left[b] @ right[b].T``.

    A truncated SVD keeps the singular values above s_1 * max(N, N_in) * eps
    (numpy's ``matrix_rank`` tolerance) and folds them into ``left``; blocks
    of lower rank are zero-padded to the largest rank kept.
    """
    blocks = np.asarray(blocks, dtype=float)
    U, s, Vt = np.linalg.svd(blocks, full_matrices=False)
    keep = s > s[:, :1] * max(blocks.shape[1:]) * np.finfo(float).eps
    q = int(keep.sum(axis=1).max(initial=0))
    return U[:, :, :q] * (s * keep)[:, None, :q], Vt[:, :q].transpose(0, 2, 1) * keep[:, None, :q]


def rotation_2x2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _random_plane(N: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal N x 2 basis: the left singular vectors of a Gaussian N x 2 draw."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    W, _, _ = np.linalg.svd(rng.standard_normal((N, 2)), full_matrices=False)
    return W


def make_rank2_rotation(N: int, theta: float, seed_or_rng) -> np.ndarray:
    """Random rank-2 rotation in N dimensions: W Rot(theta) W'.

    The result rotates by ``theta`` inside the random plane W of
    :func:`_random_plane` and annihilates its orthogonal complement.
    Singular values are {1, 1, 0, ...}.
    """
    rng = np.random.default_rng(seed_or_rng) if not isinstance(seed_or_rng, np.random.Generator) else seed_or_rng
    W = _random_plane(N, rng)
    return W @ rotation_2x2(theta) @ W.T


def _burned_in_start(A: np.ndarray, N: int) -> np.ndarray:
    """Initial state: all-ones vector iterated BURN_IN_STEPS times under A,
    then renormalized to norm sqrt(N)."""
    x = np.ones(N)
    for _ in range(BURN_IN_STEPS):
        x = A @ x
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        raise DegenerateProjectionError(
            "burn-in collapsed the state to zero (initial vector orthogonal to the rotation plane); retry with a new seed"
        )
    return x * (np.sqrt(N) / norm)


def simulate_switching(
    N: int,
    tau: int = 200,
    sigma: float = 0.5,
    theta1: float = DEFAULT_THETA1,
    theta2: float = DEFAULT_THETA2,
    seed: int = 0,
) -> GroundTruth:
    """Trajectory that follows rotation A1 for the first half and A2 after.

    The state starts from the burned-in all-ones vector at norm sqrt(N),
    switches dynamics at t = tau/2, and is renormalized to sqrt(N) once
    right after the first application of A2 (which projects onto a new
    plane).  Gaussian noise of scale ``sigma`` is added to every observed
    entry afterwards.

    Parameters
    ----------
    N : int
        State dimension, >= 2.
    tau : int
        Number of transitions; the series has tau + 1 samples.  Must be even
        so the switch lands exactly halfway.
    sigma : float
        Observation noise standard deviation.
    theta1, theta2 : float
        Rotation angles of the two regimes.
    seed : int
        Master seed; split into (matrices, noise) child streams.
    """
    if tau % 2:
        raise ValueError(f"tau must be even, got {tau}")
    rng_mat, rng_noise = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    right = np.stack([_random_plane(N, rng_mat), _random_plane(N, rng_mat)])
    left = right @ np.array([rotation_2x2(theta1), rotation_2x2(theta2)])
    A1, A2 = left @ right.transpose(0, 2, 1)

    half = tau // 2
    states = np.empty((N, tau + 1))
    states[:, 0] = _burned_in_start(A1, N)
    for t in range(tau):
        A = A1 if t < half else A2
        x_next = A @ states[:, t]
        if t == half:
            norm = np.linalg.norm(x_next)
            if norm < 1e-12:
                raise DegenerateProjectionError("switch projected the state to zero; retry with a new seed")
            x_next *= np.sqrt(N) / norm
        states[:, t + 1] = x_next

    observed = states + sigma * rng_noise.standard_normal(states.shape)
    index = np.where(np.arange(tau) < half, 0, 1)
    return GroundTruth(
        series=TimeSeries(values=observed),
        left=left,
        right=right,
        matrix_index=index,
    )


def gp_covariance(tau: int, lengthscale: float = 30.0) -> np.ndarray:
    """Squared-exponential covariance K(t, t') = exp(-((t-t')/lengthscale)^2)
    plus ``GP_JITTER`` on the diagonal."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    t = np.arange(tau, dtype=float)
    K = np.exp(-(((t[:, None] - t[None, :]) / lengthscale) ** 2))
    K[np.diag_indices(tau)] += GP_JITTER
    return K


def sample_gp_angle(tau: int, lengthscale: float = 30.0, seed_or_rng=0) -> np.ndarray:
    """Draw a smooth angle path from a centered Gaussian process with the
    :func:`gp_covariance` kernel."""
    rng = np.random.default_rng(seed_or_rng) if not isinstance(seed_or_rng, np.random.Generator) else seed_or_rng
    L = np.linalg.cholesky(gp_covariance(tau, lengthscale))
    return L @ rng.standard_normal(tau)


def simulate_smooth(
    N: int,
    tau: int = 160,
    sigma: float = 0.2,
    lengthscale: float = 30.0,
    seed: int = 0,
    angles: Optional[np.ndarray] = None,
) -> GroundTruth:
    """Trajectory under A(t) = W Rot(theta(t)) W' with one fixed plane W.

    theta(t) comes from :func:`sample_gp_angle` unless an explicit ``angles``
    array is supplied (useful for degenerate-kernel tests).  The start state
    reuses the switching recipe: burn-in under A(1), then normalize to
    sqrt(N).  All matrices share the invariant plane, so no mid-trajectory
    renormalization is needed.
    """
    rng_mat, rng_gp, rng_noise = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    W = _random_plane(N, rng_mat)
    if angles is None:
        angles = sample_gp_angle(tau, lengthscale=lengthscale, seed_or_rng=rng_gp)
    else:
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (tau,):
            raise ValueError(f"angles must have shape ({tau},), got {angles.shape}")

    left = W @ np.array([rotation_2x2(a) for a in angles])
    matrices = left @ W.T
    states = np.empty((N, tau + 1))
    states[:, 0] = _burned_in_start(matrices[0], N)
    for t in range(tau):
        states[:, t + 1] = matrices[t] @ states[:, t]

    observed = states + sigma * rng_noise.standard_normal(states.shape)
    return GroundTruth(
        series=TimeSeries(values=observed),
        left=left,
        right=np.broadcast_to(W, left.shape),
        matrix_index=np.arange(tau),
    )

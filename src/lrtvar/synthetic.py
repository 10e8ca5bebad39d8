"""Ground-truth benchmark generators: switching and smoothly varying rank-2 rotations.

Both benchmarks iterate x(t+1) = A(t) x(t) where every A(t) is a rank-2
rotation embedded in N dimensions, observed under i.i.d. Gaussian noise.
The switching problem uses two fixed rotations with a change point halfway;
the smooth problem modulates one rotation's angle by a Gaussian-process
draw.  States are normalized to norm sqrt(N) so the per-entry signal scale
is 1 for every N, keeping the signal-to-noise ratio independent of the
system size.

Randomness is split into named child streams of one seed (matrices, angle
process, observation noise), so each ingredient is independently
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateProjectionError
from .windowing import TimeSeries

BURN_IN_STEPS = 200
DEFAULT_THETA1 = 0.1 * np.pi
DEFAULT_THETA2 = 0.37 * np.pi


@dataclass
class GroundTruth:
    """A noisy trajectory together with the exact per-transition dynamics.

    ``matrix_index[t]`` names which entry of ``unique_matrices`` generated
    transition t (x(t) -> x(t+1)); storing unique matrices keeps the bundle
    small even when N is large and most transitions share a matrix.
    """

    series: TimeSeries
    unique_matrices: list
    matrix_index: np.ndarray
    sigma: float
    meta: dict = field(default_factory=dict)

    @property
    def n_transitions(self) -> int:
        return self.matrix_index.shape[0]

    def matrix_at(self, t: int) -> np.ndarray:
        """Dense system matrix for transition t (0-based)."""
        return self.unique_matrices[self.matrix_index[t]]


def rotation_2x2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def make_rank2_rotation(N: int, theta: float, seed_or_rng) -> np.ndarray:
    """Random rank-2 rotation in N dimensions: W Rot(theta) W'.

    W holds the left singular vectors of a Gaussian N x 2 draw, so the
    result rotates by ``theta`` inside a random plane and annihilates its
    orthogonal complement.  Singular values are {1, 1, 0, ...}.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    rng = np.random.default_rng(seed_or_rng) if not isinstance(seed_or_rng, np.random.Generator) else seed_or_rng
    Z = rng.standard_normal((N, 2))
    W, _, _ = np.linalg.svd(Z, full_matrices=False)
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
    A1 = make_rank2_rotation(N, theta1, rng_mat)
    A2 = make_rank2_rotation(N, theta2, rng_mat)

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
        unique_matrices=[A1, A2],
        matrix_index=index,
        sigma=sigma,
        meta={
            "kind": "switching",
            "N": N,
            "tau": tau,
            "sigma": sigma,
            "theta1": theta1,
            "theta2": theta2,
            "seed": seed,
        },
    )


def gp_covariance(tau: int, lengthscale: float = 30.0, jitter: float = 0.001) -> np.ndarray:
    """Squared-exponential covariance K(t, t') = exp(-((t-t')/lengthscale)^2)
    plus ``jitter`` on the diagonal (stabilizes the Cholesky factorization)."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    t = np.arange(tau, dtype=float)
    K = np.exp(-(((t[:, None] - t[None, :]) / lengthscale) ** 2))
    K[np.diag_indices(tau)] += jitter
    return K


def sample_gp_angle(
    tau: int,
    lengthscale: float = 30.0,
    jitter: float = 0.001,
    seed_or_rng=0,
) -> np.ndarray:
    """Draw a smooth angle path from a centered Gaussian process with the
    :func:`gp_covariance` kernel."""
    rng = np.random.default_rng(seed_or_rng) if not isinstance(seed_or_rng, np.random.Generator) else seed_or_rng
    L = np.linalg.cholesky(gp_covariance(tau, lengthscale, jitter))
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
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    rng_mat, rng_gp, rng_noise = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    Z = rng_mat.standard_normal((N, 2))
    W, _, _ = np.linalg.svd(Z, full_matrices=False)
    if angles is None:
        angles = sample_gp_angle(tau, lengthscale=lengthscale, seed_or_rng=rng_gp)
    else:
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (tau,):
            raise ValueError(f"angles must have shape ({tau},), got {angles.shape}")

    matrices = [W @ rotation_2x2(a) @ W.T for a in angles]
    states = np.empty((N, tau + 1))
    states[:, 0] = _burned_in_start(matrices[0], N)
    for t in range(tau):
        states[:, t + 1] = matrices[t] @ states[:, t]

    observed = states + sigma * rng_noise.standard_normal(states.shape)
    return GroundTruth(
        series=TimeSeries(values=observed),
        unique_matrices=matrices,
        matrix_index=np.arange(tau),
        sigma=sigma,
        meta={
            "kind": "smooth",
            "N": N,
            "tau": tau,
            "sigma": sigma,
            "lengthscale": lengthscale,
            "seed": seed,
        },
    )

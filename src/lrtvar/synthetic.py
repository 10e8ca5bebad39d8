"""Ground-truth benchmark generators: switching and smoothly varying rank-2 rotations.

Both benchmarks follow x(t+1) = A(t) x(t) where every A(t) is a rank-2
rotation embedded in N dimensions, observed under i.i.d. Gaussian noise.
The switching problem uses two fixed rotations with a change point halfway;
the smooth problem modulates one rotation's angle by a Gaussian-process
draw.  States are normalized to norm sqrt(N) so the per-entry signal scale
is 1 for every N, keeping the signal-to-noise ratio independent of the
system size.

Every A(t) is stored as the factor pair it is drawn as, (W Rot(theta), W).
While the plane W stays fixed the trajectory is a rotation orbit: t steps
from x take the state to W Rot(phi) W'x, phi the sum of the t angles.  So
each state is computed in closed form from the running angle sum and the
start's two plane coordinates, and neither simulation nor scoring forms an
N x N matrix.

Randomness is split into named child streams of one seed (matrices, angle
process, observation noise), so each ingredient is independently
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjectionError, ShapeMismatchError, finite_array, finite_real, integer_at_least, real_at_least
from .windowing import TimeSeries

BURN_IN_STEPS = 200
DEFAULT_THETA1 = 0.1 * np.pi
DEFAULT_THETA2 = 0.37 * np.pi
GP_JITTER = 0.001  # added to the GP covariance diagonal so its Cholesky factorization is stable


@dataclass
class GroundTruth:
    """A noisy trajectory together with the exact per-transition dynamics.

    Block b of the dynamics is ``left[b] @ right[b].T``, both factors of
    shape (n_blocks, N, q) for the N channels of the series, and
    ``matrix_index[t]`` names the block that generated transition t
    (x(t) -> x(t+1)).  Storing unique blocks keeps the bundle small when most
    transitions share a matrix; storing them factored keeps every block
    O(N q).  A dense block A is the exact pair (A, I).  The generators'
    settings (noise scale, angles, seed) are not stored; the CLI records
    them in each file's manifest.  Factors of any other shape, or an index
    that is not one integer block id in [0, n_blocks) per transition, raise
    :class:`ShapeMismatchError` here, before any use, and a NaN or infinite
    factor entry :class:`NonFiniteError`.
    """

    series: TimeSeries
    left: np.ndarray
    right: np.ndarray
    matrix_index: np.ndarray

    def __post_init__(self):
        self.left, self.right = finite_array("left", self.left, 3), finite_array("right", self.right, 3)
        self.matrix_index = index = np.asarray(self.matrix_index)
        N, n_samples = self.series.n_channels, self.series.n_samples
        if self.left.shape[1] != N or self.right.shape != self.left.shape:
            raise ShapeMismatchError(
                f"left {self.left.shape} and right {self.right.shape} must both be (n_blocks, {N}, q), "
                "one row per channel of the series"
            )
        if index.shape != (n_samples - 1,):
            raise ShapeMismatchError(
                f"matrix_index names {index.size} transitions, but the series has {n_samples} samples "
                f"({n_samples - 1} transitions)"
            )
        if not np.issubdtype(index.dtype, np.integer):
            raise ShapeMismatchError(f"matrix_index must hold integers, got dtype {index.dtype}")
        bad = (index < 0) | (index >= self.left.shape[0])
        if bad.any():
            t = int(np.argmax(bad))
            raise ShapeMismatchError(f"matrix_index[{t}] = {index[t]} is not a block id in [0, {self.left.shape[0]})")

    @property
    def n_transitions(self) -> int:
        return self.matrix_index.shape[0]

    def matrix_at(self, t: int) -> np.ndarray:
        """Dense system matrix for transition t (0-based)."""
        b = self.matrix_index[t]
        return self.left[b] @ self.right[b].T


def rotation_2x2(theta) -> np.ndarray:
    """Rot(theta) = [[cos, -sin], [sin, cos]]; an array of angles gives the
    stack of their rotations, of shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _random_plane(N: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal N x 2 basis: the left singular vectors of a Gaussian N x 2 draw."""
    return np.linalg.svd(rng.standard_normal((integer_at_least("N", N, 2), 2)), full_matrices=False)[0]


def _plane_start(W: np.ndarray, x: np.ndarray, phase: float, event: str = "burn-in") -> np.ndarray:
    """Plane coordinates c = Rot(phase) W'x of the state W Rot(phase) W'x,
    scaled so that the state W c has norm sqrt(N).  Rotations keep ||W'x||,
    so a start with no component in the plane stays at zero: it raises
    :class:`DegenerateProjectionError`, naming the ``event`` that led there."""
    c = rotation_2x2(phase) @ (W.T @ x)
    norm = np.linalg.norm(c)
    if norm < 1e-12:
        raise DegenerateProjectionError(
            f"{event} projected the state to zero (orthogonal to the rotation plane); retry with a new seed")
    return c * (np.sqrt(W.shape[0]) / norm)


def _orbit(W: np.ndarray, c: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The states W Rot(phi) c, one column per phase phi."""
    cos, sin = np.cos(phases), np.sin(phases)
    return W @ np.stack([c[0] * cos - c[1] * sin, c[0] * sin + c[1] * cos])


def simulate_switching(
    N: int,
    tau: int = 200,
    sigma: float = 0.5,
    theta1: float = DEFAULT_THETA1,
    theta2: float = DEFAULT_THETA2,
    seed: int = 0,
) -> GroundTruth:
    """Trajectory that follows rotation A1 for the first half and A2 after.

    The state starts from the all-ones vector after ``BURN_IN_STEPS`` steps
    of A1, at norm sqrt(N), switches dynamics at t = tau/2, and is
    renormalized to sqrt(N) once right after the first application of A2
    (which projects onto a new plane).  Each half is one rotation orbit in
    its plane, computed in closed form.  Gaussian noise of scale ``sigma``
    is added to every observed entry afterwards.

    Parameters
    ----------
    N : int
        State dimension, >= 2.
    tau : int
        Number of transitions; the series has tau + 1 samples.  Must be even
        and >= 2 so the switch lands exactly halfway.
    sigma : float
        Observation noise standard deviation, >= 0.
    theta1, theta2 : float
        Rotation angles of the two regimes.
    seed : int
        Master seed, >= 0; split into (matrices, noise) child streams.

    A bad N, tau, sigma, angle or seed raises
    :class:`InvalidHyperparameterError` (or :class:`NonFiniteError` for a
    NaN or infinity) before any draw.
    """
    tau, sigma = integer_at_least("tau", tau, 2, even=True), real_at_least("sigma", sigma)
    theta1, theta2, seed = finite_real("theta1", theta1), finite_real("theta2", theta2), integer_at_least("seed", seed, 0)
    rng_mat, rng_noise = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    right = np.stack([_random_plane(N, rng_mat), _random_plane(N, rng_mat)])
    left = right @ rotation_2x2(np.array([theta1, theta2]))

    half = tau // 2
    start = _plane_start(right[0], np.ones(N), BURN_IN_STEPS * theta1)
    first = _orbit(right[0], start, np.arange(half + 1) * theta1)
    start = _plane_start(right[1], first[:, -1], theta2, "switch")
    states = np.hstack([first, _orbit(right[1], start, np.arange(half) * theta2)])

    observed = states + sigma * rng_noise.standard_normal(states.shape)
    return GroundTruth(TimeSeries(values=observed), left, right, matrix_index=np.repeat([0, 1], half))


def gp_covariance(tau: int, lengthscale: float = 30.0) -> np.ndarray:
    """Squared-exponential covariance K(t, t') = exp(-((t-t')/lengthscale)^2)
    plus ``GP_JITTER`` on the diagonal.  A tau below 1 or a lengthscale
    that is not > 0 raises :class:`InvalidHyperparameterError`."""
    tau, lengthscale = integer_at_least("tau", tau, 1), real_at_least("lengthscale", lengthscale, strict=True)
    t = np.arange(tau, dtype=float)
    K = np.exp(-(((t[:, None] - t[None, :]) / lengthscale) ** 2))
    K[np.diag_indices(tau)] += GP_JITTER
    return K


def sample_gp_angle(tau: int, lengthscale: float = 30.0, seed_or_rng=0) -> np.ndarray:
    """Draw a smooth angle path from a centered Gaussian process with the
    :func:`gp_covariance` kernel.  ``seed_or_rng`` is a ``Generator`` or a
    seed, an integer >= 0 (:class:`InvalidHyperparameterError` otherwise)."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(
        integer_at_least("seed", seed_or_rng, 0))
    L = np.linalg.cholesky(gp_covariance(tau, lengthscale))
    return L @ rng.standard_normal(tau)


def simulate_smooth(
    N: int,
    tau: int = 160,
    sigma: float = 0.2,
    lengthscale: float = 30.0,
    seed: int = 0,
) -> GroundTruth:
    """Trajectory under A(t) = W Rot(theta(t)) W' with one fixed plane W.

    theta(t) is one draw of :func:`sample_gp_angle`.  The start state reuses
    the switching recipe: ``BURN_IN_STEPS`` steps of A(0) from the all-ones
    vector, then normalize to sqrt(N).  All matrices share the invariant
    plane, so the trajectory is one rotation orbit with phases
    [0, cumsum(theta)], computed in closed form, and no mid-trajectory
    renormalization is needed.  A bad N, tau, sigma, lengthscale or seed
    raises :class:`InvalidHyperparameterError` (or :class:`NonFiniteError`)
    before any draw.
    """
    tau, seed = integer_at_least("tau", tau, 1), integer_at_least("seed", seed, 0)
    sigma, lengthscale = real_at_least("sigma", sigma), real_at_least("lengthscale", lengthscale, strict=True)
    rng_mat, rng_gp, rng_noise = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    W = _random_plane(N, rng_mat)
    angles = sample_gp_angle(tau, lengthscale=lengthscale, seed_or_rng=rng_gp)

    left = W @ rotation_2x2(angles)
    start = _plane_start(W, np.ones(N), BURN_IN_STEPS * angles[0])
    states = _orbit(W, start, np.concatenate([[0.0], np.cumsum(angles)]))

    observed = states + sigma * rng_noise.standard_normal(states.shape)
    return GroundTruth(TimeSeries(values=observed), left, np.broadcast_to(W, left.shape), matrix_index=np.arange(tau))

"""Temporal-smoothness penalties on the window loadings and their proximal machinery.

The loadings matrix has one row per window; penalties act on first
differences down each column.  The total-variation penalty prefers
piecewise-constant columns (switching dynamics), the spline penalty prefers
smoothly varying ones, and the ridge term keeps all factor entries bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonPositiveEtaError

REGULARIZER_KINDS = ("none", "tv", "spline")


@dataclass(frozen=True)
class Regularizer:
    """Temporal penalty selector: ``kind`` in {none, tv, spline} with strength ``beta``.

    ``beta = 0`` is observably equivalent to ``kind = "none"``.
    """

    kind: str = "none"
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"kind must be one of {REGULARIZER_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.beta):
            raise NonFiniteError(f"beta must be finite, got {self.beta}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")

    def penalty(self, U3: np.ndarray) -> float:
        """beta times the raw penalty of the loadings matrix."""
        if self.beta == 0.0 or self.kind == "none":
            return 0.0
        if self.kind == "tv":
            return self.beta * tv_penalty(U3)
        return self.beta * spline_penalty(U3)


def tv_penalty(U3: np.ndarray) -> float:
    """Sum of absolute first differences down each column; 0 for a single row."""
    U3 = np.asarray(U3, dtype=float)
    if U3.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(U3, axis=0)).sum())


def spline_penalty(U3: np.ndarray) -> float:
    """Half the squared Frobenius norm of the columnwise first differences."""
    U3 = np.asarray(U3, dtype=float)
    if U3.shape[0] < 2:
        return 0.0
    d = np.diff(U3, axis=0)
    return 0.5 * float(np.sum(d * d))


def apply_diff(v: np.ndarray) -> np.ndarray:
    """First-difference matrix with free boundaries: (Dv)_k = v_k - v_{k+1},
    down axis 0 (each column of a matrix separately)."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] < 2:
        raise ValueError("apply_diff needs a vector of length >= 2")
    return v[:-1] - v[1:]


def apply_diff_transpose(w: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`apply_diff`; maps T-1 rows to T rows down axis 0."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or w.shape[0] < 1:
        raise ValueError("apply_diff_transpose needs a vector of length >= 1")
    out = np.empty((w.shape[0] + 1,) + w.shape[1:], dtype=float)
    out[0] = w[0]
    out[1:-1] = w[1:] - w[:-1]
    out[-1] = -w[-1]
    return out


def tikhonov_penalty(U1: np.ndarray, U2: np.ndarray, U3: np.ndarray, eta: float) -> float:
    """Ridge term (1/2eta) * (||U1||_F^2 + ||U2||_F^2 + ||U3||_F^2)."""
    if eta <= 0:
        raise NonPositiveEtaError(f"eta must be > 0, got {eta}")
    total = float(np.sum(np.square(U1)) + np.sum(np.square(U2)) + np.sum(np.square(U3)))
    return total / (2.0 * eta)


def tv_prox_1d(v: np.ndarray, gamma: float) -> np.ndarray:
    """Exact prox of the 1-D total variation: argmin_u 1/2 ||u - v||^2 + gamma ||Du||_1.

    The minimizer is the derivative of the taut string through the tube of
    half-width ``gamma`` around the running sums of ``v``, pinned at (0, 0)
    and (n, sum(v)).  That string is the Euclidean shortest path through the
    corridor, computed here with a funnel walk (an apex plus a convex upper
    chain and a concave lower chain of corridor vertices), which is direct,
    non-iterative, and linear time.

    Parameters
    ----------
    v : ndarray, 1-D
    gamma : float
        Penalty weight, >= 0.  ``gamma = 0`` returns a copy of ``v``.

    Returns
    -------
    ndarray
        The minimizer; piecewise constant with the same mean as ``v``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("tv_prox_1d expects a 1-D vector")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    n = v.shape[0]
    if gamma == 0.0 or n < 2:
        return v.copy()

    r = np.cumsum(v)
    out = np.empty_like(v)

    ax, ay = 0, 0.0  # apex: the last pinned point of the string
    upper: list = []  # corridor vertices; slopes from apex increase along the chain
    lower: list = []  # corridor vertices; slopes from apex decrease along the chain
    u0 = l0 = 0  # chain head indices (the funnel mouth)

    def emit(bx: int, by: float):
        nonlocal ax, ay
        out[ax:bx] = (by - ay) / (bx - ax)
        ax, ay = bx, by

    for k in range(1, n):
        hy = r[k - 1] + gamma
        ly = r[k - 1] - gamma

        # insert (k, hy) into the upper chain
        while len(upper) - u0 >= 2:
            x1, y1 = upper[-2]
            x2, y2 = upper[-1]
            if (y2 - y1) * (k - x2) >= (hy - y2) * (x2 - x1):
                upper.pop()
            else:
                break
        if len(upper) - u0 == 1:
            x2, y2 = upper[-1]
            if (y2 - ay) * (k - x2) >= (hy - y2) * (x2 - ax):
                upper.pop()
        if len(upper) == u0:
            # the new vertex bounds the funnel's first upper edge; if it cuts
            # below the lower chain the string is pinned along that chain
            while l0 < len(lower):
                lx, lyv = lower[l0]
                if (hy - ay) * (lx - ax) < (lyv - ay) * (k - ax):
                    emit(lx, lyv)
                    l0 += 1
                else:
                    break
            upper = [(k, hy)]
            u0 = 0
        else:
            upper.append((k, hy))

        # insert (k, ly) into the lower chain (mirror image)
        while len(lower) - l0 >= 2:
            x1, y1 = lower[-2]
            x2, y2 = lower[-1]
            if (y2 - y1) * (k - x2) <= (ly - y2) * (x2 - x1):
                lower.pop()
            else:
                break
        if len(lower) - l0 == 1:
            x2, y2 = lower[-1]
            if (y2 - ay) * (k - x2) <= (ly - y2) * (x2 - ax):
                lower.pop()
        if len(lower) == l0:
            while u0 < len(upper):
                ux, uy = upper[u0]
                if (ly - ay) * (ux - ax) > (uy - ay) * (k - ax):
                    emit(ux, uy)
                    u0 += 1
                else:
                    break
            lower = [(k, ly)]
            l0 = 0
        else:
            lower.append((k, ly))

    # walk out to the pinned endpoint (n, r[n-1]), bending around whichever
    # chain blocks the straight segment; a bend can jump past vertices of the
    # other chain, which are then behind the apex and provably satisfied
    ey = r[n - 1]
    while ax < n:
        while l0 < len(lower) and lower[l0][0] <= ax:
            l0 += 1
        while u0 < len(upper) and upper[u0][0] <= ax:
            u0 += 1
        if l0 < len(lower):
            lx, lyv = lower[l0]
            if (ey - ay) * (lx - ax) < (lyv - ay) * (n - ax):
                emit(lx, lyv)
                l0 += 1
                continue
        if u0 < len(upper):
            ux, uy = upper[u0]
            if (ey - ay) * (ux - ax) > (uy - ay) * (n - ax):
                emit(ux, uy)
                u0 += 1
                continue
        emit(n, ey)
    return out


def tv_prox_columns(V: np.ndarray, gamma: float) -> np.ndarray:
    """Apply :func:`tv_prox_1d` independently to every column of a matrix."""
    V = np.asarray(V, dtype=float)
    out = np.empty_like(V)
    for r in range(V.shape[1]):
        out[:, r] = tv_prox_1d(V[:, r], gamma)
    return out

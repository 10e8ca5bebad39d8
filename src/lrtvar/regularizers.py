"""Temporal-smoothness penalties on the window loadings and their proximal machinery.

The loadings matrix has one row per window; penalties act on first
differences down each column.  The total-variation penalty prefers
piecewise-constant columns (switching dynamics), the spline penalty prefers
smoothly varying ones, and the ridge term of the solver's cost
(:func:`_ridge`) keeps all factor entries bounded.  The exact TV prox, with
a positive weight on each entry's squared error, is Johnson's dynamic
program, linear time in the length; :func:`tv_prox_columns` runs it on each
weighted column, and the solver's fallback TV update of the loadings on one
column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHyperparameterError, ShapeMismatchError, finite_array, real_at_least

REGULARIZER_KINDS = ("none", "tv", "spline")


@dataclass(frozen=True)
class Regularizer:
    """Temporal penalty selector: ``kind`` in {none, tv, spline} with strength ``beta``.

    ``beta = 0`` is observably equivalent to ``kind = "none"``.  An unknown
    ``kind`` or a ``beta`` that is a bool, not real or negative raises
    :class:`InvalidHyperparameterError`; a non-finite ``beta`` raises
    :class:`NonFiniteError`.
    """

    kind: str = "none"
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise InvalidHyperparameterError(f"kind must be one of {REGULARIZER_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "beta", real_at_least("beta", self.beta))

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


def _ridge(U1, U2, U3, eta: float) -> float:
    """Ridge term (1/2eta) * (||U1||_F^2 + ||U2||_F^2 + ||U3||_F^2) for an
    ``eta`` > 0 already checked, as the solver's :class:`Hyperparams` holds it."""
    return float(np.vdot(U1, U1) + np.vdot(U2, U2) + np.vdot(U3, U3)) / (2.0 * eta)


def _tv_dp(y: list, w: list, gamma: float) -> list:
    """Johnson's dynamic program (JCGS 2013) for the weighted TV prox of ``y``:
    argmin_u sum_k w[k]/2 (u_k - y[k])^2 + gamma sum_k |u_k - u_{k+1}|;
    gamma > 0, weights > 0, n >= 2.

    The forward pass keeps the derivative of the cost-to-come of entry k, an
    increasing piecewise-linear function of its value, as knots ``x[lo:hi]``
    with the slope and intercept jumps ``a``, ``b`` across each.  Its end
    pieces are seeded with the slope ``w[k]`` of entry k's loss, the only
    place the weights enter.  Clipping it to [-gamma, gamma] drops the knots
    beyond the clip points ``tm[k]``, ``tp[k]`` and adds one at each, so
    every knot is added and removed once.  The backward pass clips each
    entry into ``[tm[k], tp[k]]``.
    """
    n = len(y)
    x, a, b = [0.0] * (2 * n), [0.0] * (2 * n), [0.0] * (2 * n)
    tm, tp = [0.0] * (n - 1), [0.0] * (n - 1)
    lo = hi = n
    clip = 0.0  # the end pieces are w[k] (u - y[k]) -+ clip; nothing is clipped before entry 0
    for k in range(n - 1):
        wk = w[k]
        wy = wk * y[k]
        # walk in from the left end to where the derivative crosses -gamma ...
        alo, blo = wk, -wy - clip
        j = lo
        while j < hi and alo * x[j] + blo <= -gamma:
            alo += a[j]
            blo += b[j]
            j += 1
        # ... and in from the right end, with negated coefficients, to +gamma
        ahi, bhi = -wk, wy - clip
        i = hi - 1
        while i >= j and -ahi * x[i] - bhi >= gamma:
            ahi += a[i]
            bhi += b[i]
            i -= 1
        lo, hi = j - 1, i + 2
        tm[k] = x[lo] = (-gamma - blo) / alo
        tp[k] = x[hi - 1] = (gamma + bhi) / -ahi
        a[lo], b[lo] = alo, blo + gamma
        a[hi - 1], b[hi - 1] = ahi, bhi + gamma
        clip = gamma
    alo, blo = w[-1], -w[-1] * y[-1] - gamma
    j = lo
    while j < hi and alo * x[j] + blo <= 0.0:
        alo += a[j]
        blo += b[j]
        j += 1
    u = -blo / alo
    out = [u] * n
    for k in range(n - 2, -1, -1):
        out[k] = u = tp[k] if u > tp[k] else tm[k] if u < tm[k] else u
    return out


def _tv_prox_list(y: list, w: list, gamma: float) -> list:
    """Weighted TV prox of one column held as Python lists (see :func:`tv_prox_columns`).

    The column is saturated when every weighted running sum
    sum_{j<=k} w[j] (y[j] - m) about the weighted mean m lies within
    ``gamma``: then m is the exact prox, and it is returned directly, free
    of the ``gamma * eps`` rounding of the dynamic program.  Both the test
    and the sums run in order, in O(n).  When the largest weight is 2 or
    more, the weights and ``gamma`` are first divided by the power of two
    that takes it into [1, 2).  The prox is invariant under that scaling,
    which is exact while the scaled values stay normal: the sums of the
    weights stay in range however large the weights, and where the
    unscaled sums stayed in range the result keeps its bits.
    """
    scale = 2.0 ** -max(math.frexp(max(w))[1] - 1, 0)
    w, gamma = [wk * scale for wk in w], gamma * scale
    mean = sum([wk * yk for wk, yk in zip(w, y)], 0.0) / sum(w, 0.0)
    running = 0.0
    for wk, yk in zip(w[:-1], y):
        running += wk * (yk - mean)
        if abs(running) > gamma:
            return _tv_dp(y, w, gamma)
    return [mean] * len(y)


def tv_prox_columns(V: np.ndarray, gamma: float, weights: np.ndarray) -> np.ndarray:
    """Exact weighted TV prox of each column of a matrix, in linear time per column.

    Column r of the result is argmin_u sum_k w_k/2 (u_k - V[k, r])^2 +
    gamma sum_k |u_k - u_{k+1}| with w = ``weights[:, r]``, positive and
    finite, of the shape of ``V``.  A saturated column (see
    :func:`_tv_prox_list`) gets its weighted mean exactly.  ``V``, then
    ``gamma``, then ``weights`` are checked: ``V`` and ``weights`` by
    :func:`finite_array` as 2-D arrays, ``gamma`` by :func:`real_at_least`.
    Weights of another shape than ``V`` raise :class:`ShapeMismatchError`
    and a weight <= 0 :class:`InvalidHyperparameterError`; ``gamma = 0``
    returns a copy of ``V``.
    """
    V = finite_array("V", V, 2)
    gamma = real_at_least("gamma", gamma)
    W = finite_array("weight matrix", weights, 2)
    if W.shape != V.shape:
        raise ShapeMismatchError(f"weights must have the shape {V.shape} of the matrix, got {W.shape}")
    if not (W > 0.0).all():
        raise InvalidHyperparameterError("tv_prox_columns weights must be > 0")
    if gamma == 0.0 or V.shape[0] < 2:
        return V.copy()
    out = [_tv_prox_list(y, w, gamma) for y, w in zip(V.T.tolist(), W.T.tolist())]
    return np.array(out, dtype=float).reshape(V.shape[::-1]).T

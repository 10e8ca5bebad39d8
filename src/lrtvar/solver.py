"""Block-coordinate fitting of the factored time-varying linear model.

The regularized cost is

    C = 1/2 sum_k ||Y_k - U1 diag(U3[k]) U2' X_k||_F^2
        + 1/(2 eta) (||U1||_F^2 + ||U2||_F^2 + ||U3||_F^2)
        + beta * R(U3)

minimized by cycling exact or iterative solves over the three factor
blocks: a dense R x R solve for U1, a dense solve or matrix-free conjugate
gradients, whichever costs fewer flops, on a Sylvester-type system for U2,
and per-window solves (no smoothing), the same CG routine on the banded
Hessian blockdiag(C_k + I/eta) + beta D'D kron I_R (spline smoothing), or
exact minimization one column at a time by the weighted TV prox
(total-variation smoothing) for U3.  Between two TV column sweeps the U3
block is minimized exactly on the face the sweep found
(its fused segments and the signs of its jumps) by one dense solve over the
segment values.  When that face minimizer passes the block's optimality
conditions, a cumulative sum of its gradient, it is the block minimizer and
ends the update; otherwise the move is kept only if it lowers the block
objective and the sweeps go on.  Every update is non-increasing in C.
After each sweep ``fit`` tries the extrapolated iterate
U + it^(1/p) (U - U_prev) on all three factors at once and keeps it only if
it lowers C (Bro's line search for PARAFAC), so the outer cost trace
descends monotonically up to subproblem tolerances.

Apart from the exact U2 solve's (r_x R)^2 matrix, r_x = min(T*M, N_in),
nothing in the fit path forms a matrix larger than the data, and the rule
that picks that solve keeps its matrix below 12 cg_max_iters M T entries.
All contractions go through the data tensors and the R-column factors,
which is what makes large state dimensions tractable.  Each contraction is
a BLAS matmul of a 2-D (M*T, channels) view of a data tensor with an
R-column factor (the MTTKRP view of CP-ALS); diag(U3[k]) is a broadcast
multiply on the (M, T, R) view of the product, and the per-window R x R
blocks are one batched matmul (one einsum in the spline CG, where it is
faster at T=160).  The loss and every block update see the factors U2 and
U1 only through the products X'U2 and Y'U1, so ``fit`` forms
each of them once per factor value and passes them to the updates.  It
takes the loss from the U3 quadratic,
1/2 ||Y||^2 - sum_k b_k'u_k + 1/2 sum_k u_k'C_k u_k, which costs no pass
over the data, and the products of the extrapolated iterate are the same
extrapolation of the sweep's products: an outer iteration makes four data
contractions besides the U2 solve's (its Grams X_k X_k', or one per CG
step).

The loss sees U2 only through X_k'U2 and U1 only through its product with Y,
and the ridge term puts each block's exact minimizer in range(X), resp.
range(Y).  So ``fit`` runs the block updates on the data in orthonormal
bases of range(X) and range(Y), each from one thin QR of the data, with
min(T*M, channels) rows, initializes there, and lifts U2 and U1 back once at
the end: the cost of every iterate is the same in either coordinates.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .cp_model import CpFactors
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    ExtremeScaleError,
    InvalidHyperparameterError,
    NonPositiveEtaError,
    finite_real,
)
from .regularizers import Regularizer, tikhonov_penalty, tv_penalty, tv_prox_columns
from .windowing import SnapshotPair, write_csv

# CG stops once the residual falls to this fraction of the right-hand side.
CG_TOL = 1e-9
# A TV update of U3 ends on a face minimizer whose dual residual, over beta,
# is at most this, or once a sweep moves no entry by more than this fraction
# of the largest entry.
SWEEP_TOL = 1e-10
# Between TV sweeps of U3 the objective is minimized exactly on the face the
# sweep found, by a dense solve over its segments; faces of more segments
# than this (a face matrix over 8 MiB) are left to the sweeps.
FACE_MAX_SEGMENTS = 1024
# fit warns when an outer iteration raises the cost by more than this
# fraction of 1 + |previous cost|.
MONOTONE_SLACK = 1e-8
# Outer iteration ``it`` extrapolates its sweep by the factor it^(1/p); p
# starts at EXTRAPOLATION_ROOT and rises by one per rejected trial, up to
# EXTRAPOLATION_MAX_ROOT.
EXTRAPOLATION_ROOT = 3
EXTRAPOLATION_MAX_ROOT = 6

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparams:
    """All solver and model knobs.

    ``atol`` is relative to the initial cost, like ``rtol`` to the previous one.
    ``cg_max_iters`` caps the CG steps of the U2 update and of the spline U3
    update, whose banded Hessian each step applies as one block product per
    window and two shifted subtractions; U2 is solved exactly instead when
    that costs fewer flops than this many CG steps.  ``pg_max_iters`` caps
    the column sweeps of the TV U3 update.
    ``seed`` fixes the initialization noise (see :func:`initialize`).
    ``R``, the caps and ``seed`` must be integers and ``eta``, ``rtol`` and
    ``atol`` real numbers, none of them bools; a value of another type or out
    of range raises :class:`InvalidHyperparameterError`, and a non-finite
    real one :class:`NonFiniteError`.
    """

    R: int
    eta: float
    reg: Regularizer = field(default_factory=Regularizer)
    max_outer_iters: int = 1000
    rtol: float = 1e-4
    atol: float = 1e-6
    cg_max_iters: int = 24
    pg_max_iters: int = 40
    seed: int = 0

    def __post_init__(self):
        for name in ("R", "max_outer_iters", "cg_max_iters", "pg_max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidHyperparameterError(f"{name} must be an integer, got {value!r}")
        for name in ("R", "max_outer_iters", "cg_max_iters", "pg_max_iters"):
            if getattr(self, name) < 1:
                raise InvalidHyperparameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidHyperparameterError(f"seed must be >= 0, got {self.seed}")
        for name in ("eta", "rtol", "atol"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        if self.eta <= 0:
            raise NonPositiveEtaError(f"eta must be > 0, got {self.eta}")
        if self.rtol < 0 or self.atol < 0:
            raise InvalidHyperparameterError("tolerances must be >= 0")


@dataclass(frozen=True)
class OuterIteration:
    """What one outer iteration of :func:`fit` did.

    ``cg_iters`` and ``inner_iters`` are the inner iterations of the U2 and
    U3 updates.  ``capped_right`` says whether the U2 CG used its whole
    ``cg_max_iters`` budget, ``capped_temporal`` whether the U3 update
    stopped short of its stated bound: for the spline CG, that it used all
    ``cg_max_iters`` steps; for TV, that its certificate is above
    ``SWEEP_TOL``, whichever stop it took (the sweep-move stop or the
    ``pg_max_iters`` cap).  The exact U2 and unsmoothed U3 solves report 0
    iterations and are never capped.  ``face_steps`` and ``certificate``
    are the face steps a TV update kept and the dual residual over beta of
    the U3 it returned, the largest violation of the block's optimality
    conditions (0 and None for the other U3 updates), which ends the update
    at ``SWEEP_TOL``.
    ``extrapolated`` says whether the extrapolation trial was kept, and
    ``cost_rise`` is the rise of the cost over the previous trace entry
    relative to 1 + |previous cost|, 0 when it fell.  The ``seconds_*``
    fields are the wall seconds of the U1, U2 and U3 updates, each with the
    product of its new factor, and of the objective evaluations and the
    trial.  ``str()`` is the outcome part of ``fit``'s INFO line.
    """

    cg_iters: int
    capped_right: bool
    inner_iters: int
    capped_temporal: bool
    face_steps: int
    certificate: Optional[float]
    extrapolated: bool
    cost_rise: float
    seconds_left: float
    seconds_right: float
    seconds_temporal: float
    seconds_objective: float

    def __str__(self) -> str:
        certificate = "-" if self.certificate is None else f"{self.certificate:.3g}"
        return (f"extrapolated={self.extrapolated} cg={self.cg_iters} capped_right={self.capped_right} "
                f"inner={self.inner_iters} capped_temporal={self.capped_temporal} face_steps={self.face_steps} "
                f"certificate={certificate}")


@dataclass
class FitReport:
    """Per-run diagnostics.

    ``cost_trace[0]`` is the cost at initialization; each outer iteration
    appends one entry after its extrapolation trial: the cost of the
    extrapolated iterate if the trial lowered it, else of the sweep's.  The
    trace is non-increasing up to a slack of ``MONOTONE_SLACK * (1 + |C|)``
    per step, which ``fit`` checks as it goes (``OuterIteration.cost_rise``).
    ``outer[i]`` records outer iteration i + 1, the one that appended
    ``cost_trace[i + 1]``.  :meth:`summary` counts the capped inner solves,
    the kept U3 face steps and the accepted extrapolations.
    """

    cost_trace: list
    rmse_trace: list
    iterations: int
    termination: str
    wall_seconds: float
    outer: list

    def write_trace_csv(self, path, manifest: Optional[str] = None) -> None:
        """Trace as CSV with columns (iteration, cost, rmse); row 0 is the
        initialization."""
        rows = ((i, c, r) for i, (c, r) in enumerate(zip(self.cost_trace, self.rmse_trace)))
        write_csv(path, rows, header=["iteration", "cost", "rmse"], manifest=manifest)

    def write_trace_json(self, path, manifest: Optional[str] = None) -> None:
        """Trace as one JSON object: the manifest, the termination and under
        ``outer`` one object per outer iteration, its ``iteration``, the
        ``cost`` and ``rmse`` it appended to the traces and the fields of its
        :class:`OuterIteration`; wall seconds included, so unlike the CSV it
        differs between reruns."""
        rows = zip(self.cost_trace[1:], self.rmse_trace[1:], self.outer)
        outer = [{"iteration": i, "cost": c, "rmse": r, **asdict(o)} for i, (c, r, o) in enumerate(rows, start=1)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"manifest": manifest, "termination": self.termination, "outer": outer}, fh, indent=1)

    def summary(self) -> str:
        lines = [
            f"iterations: {self.iterations}",
            f"termination: {self.termination}",
            f"final cost: {self.cost_trace[-1]:.17g}",
            f"final rmse: {self.rmse_trace[-1]:.17g}",
            f"capped U2 solves: {sum(o.capped_right for o in self.outer)} of {self.iterations}",
            f"capped U3 solves: {sum(o.capped_temporal for o in self.outer)} of {self.iterations}",
            f"U3 face steps: {sum(o.face_steps for o in self.outer)}",
            f"extrapolated steps: {sum(o.extrapolated for o in self.outer)} of {self.iterations}",
            f"wall seconds: {self.wall_seconds:.3f}",
        ]
        return "\n".join(lines)


def _check_dims(model: CpFactors, data: SnapshotPair) -> None:
    if model.N != data.N or model.N_in != data.N_in or model.T != data.T:
        raise DimensionMismatchError(
            f"model dims (N={model.N}, N_in={model.N_in}, T={model.T}) vs "
            f"data dims (N={data.N}, N_in={data.N_in}, T={data.T})"
        )


def _transitions(A: np.ndarray) -> np.ndarray:
    """A (channels, M, T) data tensor as the (M*T, channels) matrix whose row
    m*T + k is column m of window k.  This is a view of the memory layout
    ``build_snapshots`` produces and one copy of any other layout."""
    return A.transpose(1, 2, 0).reshape(-1, A.shape[0])


def _scale_windows(W: np.ndarray, U3: np.ndarray) -> np.ndarray:
    """Multiply the rows of an (M*T, R) matrix that belong to window k by
    U3[k], which applies diag(U3[k]) to every transition of window k."""
    return (W.reshape(-1, *U3.shape) * U3).reshape(W.shape)


def _products(model: CpFactors, data: SnapshotPair) -> tuple[np.ndarray, np.ndarray]:
    """(X'U2, Y'U1) as the (M*T, R) matrices whose row m*T + k is the
    product of column m of X_k, resp. Y_k, with U2, resp. U1."""
    return _transitions(data.X) @ model.U2, _transitions(data.Y) @ model.U1


def _scaled_projection(model: CpFactors, data: SnapshotPair) -> np.ndarray:
    """The (M*T, R) matrix of the rows of H_k' = X_k' U2 diag(U3[k])."""
    return _scale_windows(_transitions(data.X) @ model.U2, model.U3)


def _rmse_from_loss(value: float, data: SnapshotPair) -> float:
    """RMSE per channel and transition of a fit whose loss is ``value``;
    ``data`` has the fit's original channels, whose loss is the one taken
    in range coordinates."""
    return float(np.sqrt(2.0 * value / (data.N * data.M * data.T)))


def loss(model: CpFactors, data: SnapshotPair) -> float:
    """Unregularized squared error: 1/2 sum_k ||Y_k - A_k X_k||_F^2."""
    _check_dims(model, data)
    resid = _transitions(data.Y) - _scaled_projection(model, data) @ model.U1.T
    return 0.5 * float(np.sum(resid * resid))


def rmse(model: CpFactors, data: SnapshotPair) -> float:
    """Average one-step prediction error per channel:
    sqrt(sum_k ||Y_k - A_k X_k||_F^2 / (N M T))."""
    return _rmse_from_loss(loss(model, data), data)


def cost(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> float:
    """Full regularized objective: loss + ridge + beta * temporal penalty."""
    return _cost_and_loss(model, data, params)[0]


def _cost_and_loss(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> tuple[float, float]:
    """(cost, loss) of the model from a single loss evaluation."""
    value = loss(model, data)
    return value + _regularization(model, params), value


def _regularization(model: CpFactors, params: Hyperparams) -> float:
    """Ridge plus beta * temporal penalty: the cost without the loss."""
    return tikhonov_penalty(model.U1, model.U2, model.U3, params.eta) + params.reg.penalty(model.U3)


def _quadratic_loss(model: CpFactors, products: tuple, half_energy: float) -> float:
    """The loss from the U3 quadratic, 1/2 ||Y||^2 - sum_k b_k'u_k +
    1/2 sum_k u_k'C_k u_k (see :func:`_temporal_quadratic`), given
    products = (X'U2, Y'U1) and half_energy = 1/2 ||Y||^2.

    It costs O(M T R^2) and no pass over the data.  Its rounding error is a
    few ulps of ||Y||^2, not of the loss, so a near-exact fit can come out
    below zero; it is clipped to 0 there.
    """
    G, F = products
    H = _scale_windows(G, model.U3)  # rows of X_k' U2 diag(U3[k])
    value = half_energy - float(np.vdot(H, F)) + 0.5 * float(np.vdot(H @ (model.U1.T @ model.U1), H))
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# block gradients (smooth part of the cost: loss + ridge [+ spline])


def _left_normal_equations(model: CpFactors, data: SnapshotPair, products=None) -> tuple[np.ndarray, np.ndarray]:
    """S = sum_k H_k H_k' and B = sum_k Y_k H_k', so the loss in U1 is
    1/2 tr(U1 S U1') - tr(B' U1) + const; ``products`` is (X'U2, Y'U1) or None."""
    H = _scaled_projection(model, data) if products is None else _scale_windows(products[0], model.U3)
    return H.T @ H, _transitions(data.Y).T @ H


def grad_left(model: CpFactors, data: SnapshotPair, eta: float) -> np.ndarray:
    """Gradient of (loss + ridge) in U1."""
    _check_dims(model, data)
    S, B = _left_normal_equations(model, data)
    return model.U1 @ S - B + model.U1 / eta


def grad_right(model: CpFactors, data: SnapshotPair, eta: float) -> np.ndarray:
    """Gradient of (loss + ridge) in U2; never forms X_k X_k'."""
    _check_dims(model, data)
    return _right_operator(_right_weights(model), data, eta, model.U2) - _right_rhs(model, data)


def grad_temporal(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> np.ndarray:
    """Gradient of the smooth cost in U3: loss + ridge, plus the spline term
    when that regularizer is active (the TV term is nonsmooth and excluded)."""
    _check_dims(model, data)
    C, b = _temporal_quadratic(model, data)
    return _temporal_hessian_apply(*_temporal_hessian(C, params), model.U3) - b


# ---------------------------------------------------------------------------
# block updates


def update_left(model: CpFactors, data: SnapshotPair, eta: float, *, products=None) -> np.ndarray:
    """Exact minimizer of the cost over U1 (R x R ridge-damped solve).

    ``products`` is (X'U2, Y'U1) of ``model`` and ``data`` (see
    :func:`_products`) when the caller holds it, as ``fit`` does; by default
    the update forms what it needs.
    """
    _check_dims(model, data)
    S, B = _left_normal_equations(model, data, products)
    S[np.diag_indices_from(S)] += 1.0 / eta
    return np.linalg.solve(S, B.T).T


def _right_weights(model: CpFactors) -> np.ndarray:
    """The (T, R, R) weights R_k = diag(U3[k]) U1'U1 diag(U3[k]) of the U2 system."""
    return (model.U1.T @ model.U1) * (model.U3[:, :, None] * model.U3[:, None, :])


def _right_operator(weights: np.ndarray, data: SnapshotPair, eta: float, U: np.ndarray, XU=None) -> np.ndarray:
    """Apply U -> sum_k X_k X_k' U R_k + U/eta with ``weights`` the R_k of
    :func:`_right_weights`; ``XU`` is X'U when the caller holds it."""
    X = _transitions(data.X)
    W = (X @ U if XU is None else XU).reshape(data.M, data.T, -1)  # W[m, k] = (X_k' U)[m]
    Z = (W.transpose(1, 0, 2) @ weights).transpose(1, 0, 2).reshape(X.shape[0], -1)
    return X.T @ Z + U / eta


def _right_rhs(model: CpFactors, data: SnapshotPair, products=None) -> np.ndarray:
    """B = sum_k X_k Y_k' U1 diag(U3[k]); ``products`` is (X'U2, Y'U1) or None."""
    F = _transitions(data.Y) @ model.U1 if products is None else products[1]
    return _transitions(data.X).T @ _scale_windows(F, model.U3)  # rows of Y_k' U1 diag(U3[k])


def _cg(operate, rhs: np.ndarray, x0: np.ndarray, max_iters: int, tol: float = CG_TOL,
        image=None) -> tuple[np.ndarray, int]:
    """Conjugate gradients on operate(x) = rhs for a symmetric positive-definite
    ``operate``, warm-started at ``x0``; ``image`` is operate(x0) when the
    caller has it.

    Stops when the residual norm reaches ``tol * ||rhs||`` or after
    ``max_iters`` steps.  Every step lowers the quadratic 1/2 x'Ax - rhs'x,
    so the result is never worse than ``x0``.  Returns (x, iterations used).
    """
    x = x0.copy()
    r = rhs - (operate(x) if image is None else image)
    p = r.copy()
    rs = float(np.vdot(r, r))
    threshold = tol * tol * float(np.vdot(rhs, rhs))
    n_iters = 0
    while n_iters < max_iters and rs > threshold:
        Ap = operate(p)
        alpha = rs / float(np.vdot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        rs, rs_old = float(np.vdot(r, r)), rs
        p *= rs / rs_old
        p += r
        n_iters += 1
    return x, n_iters


def _direct_right_solve_is_cheaper(rows: int, M: int, T: int, R: int, max_iters: int) -> bool:
    """Whether one dense solve of the U2 system with ``rows`` channels costs
    at most the flops of ``max_iters`` CG steps.  The solve forms the T
    Grams X_k X_k' (2 T M rows^2) and the Kronecker matrix
    (T R^2 rows^2) and factors it ((rows R)^3 / 3); a CG step makes two
    contractions with the data (4 M T rows R)."""
    n = rows * R
    return 2 * T * M * rows**2 + T * R**2 * rows**2 + n**3 / 3 <= max_iters * 4 * M * T * n


def _solve_right_exactly(weights: np.ndarray, data: SnapshotPair, eta: float, rhs: np.ndarray) -> np.ndarray:
    """The solution of sum_k L_k U R_k + U/eta = rhs, with L_k = X_k X_k',
    by one dense solve of (sum_k L_k kron R_k + I/eta) vec(U) = vec(rhs),
    vec stacking the rows."""
    rows, R = rhs.shape
    X = _transitions(data.X).reshape(data.M, data.T, rows).transpose(1, 2, 0)  # X[k] = X_k
    K = np.tensordot(X @ X.transpose(0, 2, 1), weights, axes=(0, 0)).transpose(0, 2, 1, 3).reshape(rows * R, -1)
    K[np.diag_indices_from(K)] += 1.0 / eta
    return np.linalg.solve(K, rhs.ravel()).reshape(rows, R)


def update_right(
    model: CpFactors, data: SnapshotPair, eta: float, max_iters: int = 24, tol: float = CG_TOL, *, products=None
) -> tuple[np.ndarray, int]:
    """Minimizer of the cost over U2, exact or by matrix-valued CG.

    The normal equations are the Sylvester-type system
    sum_k L_k U2 R_k + U2/eta = B with L_k = X_k X_k' and the weights R_k
    of :func:`_right_weights`.  When one dense solve of its Kronecker form
    costs no more flops than ``max_iters`` CG steps
    (:func:`_direct_right_solve_is_cheaper`), the update solves it exactly
    and reports 0 iterations.  Otherwise CG, with L_k applied matrix-free,
    warm-starts from the current U2, so the quadratic objective (hence the
    cost) never increases, and stops at ``tol`` or after ``max_iters``
    steps.  ``products`` is as in :func:`update_left`; X'U2 then also
    serves CG's initial residual.  Returns (new U2, CG iterations used).
    """
    _check_dims(model, data)
    weights = _right_weights(model)
    rhs = _right_rhs(model, data, products)
    if _direct_right_solve_is_cheaper(data.N_in, data.M, data.T, model.R, max_iters):
        return _solve_right_exactly(weights, data, eta, rhs), 0
    operate = partial(_right_operator, weights, data, eta)
    image = None if products is None else operate(model.U2, products[0])
    return _cg(operate, rhs, model.U2, max_iters, tol, image)


def _temporal_quadratic(model: CpFactors, data: SnapshotPair, products=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-window quadratic data: C[k] = (U2'X_k X_k'U2) * (U1'U1) (Hadamard)
    and b[k] = diag(U2' X_k Y_k' U1), so the smooth loss in U3 is
    sum_k 1/2 u_k' C_k u_k - b_k' u_k + 1/2 ||Y||^2 with u_k = U3[k];
    ``products`` is (X'U2, Y'U1) or None."""
    shape = (-1, model.T, model.R)
    G, F = _products(model, data) if products is None else products
    G = G.reshape(shape).transpose(1, 0, 2)  # G[k] = X_k' U2
    F = F.reshape(shape).transpose(1, 0, 2)  # F[k] = Y_k' U1
    C = (G.transpose(0, 2, 1) @ G) * (model.U1.T @ model.U1)
    b = np.sum(G * F, axis=1)
    return C, b


def _temporal_hessian(C: np.ndarray, params: Hyperparams) -> tuple[np.ndarray, float]:
    """(H, spline_beta): C completed in place to the diagonal blocks
    H_k = C_k + (1/eta + spline_beta d_k) I of the Hessian of the smooth cost
    in U3, where spline_beta is beta under an active spline penalty and 0
    otherwise, and d is the diagonal of D'D: 1 at the two ends, 2 inside."""
    spline_beta = params.reg.beta if _active_penalty(params, len(C)) == "spline" else 0.0
    idx = np.arange(C.shape[1])
    C[:, idx, idx] += 1.0 / params.eta
    if spline_beta:
        C[1:, idx, idx] += spline_beta
        C[:-1, idx, idx] += spline_beta
    return C, spline_beta


def _temporal_hessian_apply(H: np.ndarray, spline_beta: float, U: np.ndarray) -> np.ndarray:
    """Apply the Hessian blockdiag(C_k + I/eta) + spline_beta D'D kron I_R of
    the smooth cost in U3 to U, given the diagonal blocks H and spline_beta
    from :func:`_temporal_hessian`: H_k u_k window by window, minus
    spline_beta times each neighbouring window's u."""
    out = np.einsum("kij,kj->ki", H, U)
    out[1:] -= spline_beta * U[:-1]
    out[:-1] -= spline_beta * U[1:]
    return out


def _active_penalty(params: Hyperparams, T: int) -> str:
    """The temporal penalty in effect: "none" when beta is 0 or a single
    window leaves no differences to penalize."""
    return params.reg.kind if params.reg.beta > 0 and T >= 2 else "none"


def update_temporal(model: CpFactors, data: SnapshotPair, params: Hyperparams, *,
                    products=None, outcome: Optional[dict] = None) -> tuple[np.ndarray, int]:
    """Minimize the cost over U3; returns (new U3, inner iterations used).

    Without temporal smoothing (or with a single window, where no difference
    exists) the problem decouples into T exact R x R ridge solves with
    H_k = C_k + I/eta, and 0 inner iterations are reported.  The spline
    penalty couples the windows through the block-tridiagonal Hessian
    blockdiag(C_k + I/eta) + beta D'D kron I_R, solved by warm-started CG
    capped at ``params.cg_max_iters`` steps, whose steps are reported.  Its
    diagonal blocks C_k + (1/eta + beta d_k) I, d the diagonal of D'D, are
    formed in place once per update (:func:`_temporal_hessian`), so each
    step applies it as one window-wise product and two shifted
    subtractions of beta times the neighbouring windows.  The TV penalty is
    minimized exactly one column at a time by :func:`_temporal_tv_sweeps`,
    whose sweeps are reported; ``params.pg_max_iters`` caps them.  Between
    two sweeps the TV objective is minimized in one dense solve on the face
    the sweep found, its fused segments and the signs of its jumps
    (:func:`_face_step`); the update ends there when the face minimizer's
    dual residual (:func:`_tv_dual_residual`) is at most ``SWEEP_TOL``,
    and otherwise keeps the move only if it lowers the objective.
    ``products`` is as in :func:`update_left`.  A TV update stores in the
    dict ``outcome``, when one is given, the face steps it kept
    (``face_steps``) and the dual residual of the U3 it returns
    (``certificate``), whichever stop it took.
    """
    _check_dims(model, data)
    C, b = _temporal_quadratic(model, data, products)
    H, spline_beta = _temporal_hessian(C, params)
    if spline_beta:
        return _cg(partial(_temporal_hessian_apply, H, spline_beta), b, model.U3, params.cg_max_iters)
    if _active_penalty(params, model.T) == "none":
        return np.linalg.solve(H, b[..., None])[..., 0], 0
    U3, sweeps, face_steps, certificate = _temporal_tv_sweeps(H, b, model.U3, params.reg.beta, params.pg_max_iters)
    if outcome is not None:
        outcome.update(face_steps=face_steps, certificate=certificate)
    return U3, sweeps


def _temporal_tv_sweeps(H, b, U3_init, beta, max_sweeps):
    """Cyclic exact minimization over the columns of U3 of
    sum_k 1/2 u_k' H_k u_k - b_k' u_k + beta TV(U3), with u_k = U3[k], with
    a face step between sweeps that ends the update once its dual
    certificate holds.

    The TV term is a sum over columns and the quadratic is strictly convex,
    so cycling exact column minimizations converges to the block minimizer
    (Tseng 2001; Friedman et al. 2007, pathwise coordinate descent for the
    fused lasso) and no step raises the objective.  Column r given the
    others is the weighted TV prox of y_k = U[k, r] - G[k, r] / w_k with
    weights w_k = H_k[r, r] and G = H U - b, kept up to date after every
    column.

    The columns are coupled through the off-diagonals of H_k, and cyclic
    column steps crawl while that coupling is strong.  So every sweep that
    moves some entry by more than ``SWEEP_TOL * max|U3|`` and is followed
    by another is followed by the fusion move of Friedman et al.:
    :func:`_face_step` minimizes the objective exactly on the face the
    sweep found, the entries it fused and the signs of its jumps.  When
    that face minimizer passes the block's optimality conditions
    (:func:`_tv_dual_residual` at most ``SWEEP_TOL``) it is the block
    minimizer and the update returns it.  Otherwise the sweeps go on; they
    stop once one moves no entry by more than ``SWEEP_TOL * max|U3|``, or
    after ``max_sweeps``.

    Returns (U3, sweeps run, face steps kept, certificate), where the
    certificate is the dual residual of the returned U3.
    """
    R = U3_init.shape[1]
    weights = H.diagonal(axis1=1, axis2=2)
    column_weights = [weights[:, r:r + 1].copy() for r in range(R)]
    couplings = [H[:, :, r] / weights for r in range(R)]  # change of G / w per unit step of column r
    U, face_steps, fresh = U3_init, 0, True
    for sweeps in range(1, max_sweeps + 1):
        if fresh:
            # U3 is held as a list of (T, 1) columns and G is stored divided by
            # the weights: each column step then costs a few small array operations
            scaled_gradient = ((H @ U[:, :, None])[:, :, 0] - b) / weights
            columns = [U[:, r:r + 1].copy() for r in range(R)]
        steps = []
        for r in range(R):
            new = tv_prox_columns(columns[r] - scaled_gradient[:, r:r + 1], beta, column_weights[r])
            steps.append(new - columns[r])
            columns[r] = new
            scaled_gradient += couplings[r] * steps[-1]
        U = np.hstack(columns)
        tol = SWEEP_TOL * np.abs(U).max()
        if np.abs(np.hstack(steps)).max() <= tol or sweeps == max_sweeps:
            break
        face, certificate = _face_step(H, b, U, beta, tol)
        fresh = face is not None
        if fresh:
            U = face
            face_steps += 1
            if certificate <= SWEEP_TOL:
                return U, sweeps, face_steps, certificate
    return U, sweeps, face_steps, _tv_dual_residual(H, b, U, beta, tol)


def _tv_block_objective(H, b, U, beta) -> float:
    """sum_k 1/2 u_k' H_k u_k - b_k' u_k + beta TV(U), with u_k = U[k]."""
    quadratic = float(np.vdot(U, 0.5 * (H @ U[:, :, None])[:, :, 0] - b))
    return quadratic + beta * tv_penalty(U)


def _tv_dual_residual(H, b, U, beta, tol) -> float:
    """Largest violation of the optimality conditions of the TV block
    objective at U, over beta; 0 exactly at its minimizer.

    With g = H U - b window by window and z the cumulative sum of g down
    each column, U minimizes sum_k 1/2 u_k' H_k u_k - b_k' u_k + beta TV(U)
    exactly when in every column z[T-1] = 0, |z_k| <= beta on every fused
    pair (U[k+1] and U[k] within ``tol``) and z_k = beta sign(U[k+1] - U[k])
    on every other pair, a jump: z_k / beta is then a TV subgradient.
    """
    z = np.cumsum((H @ U[:, :, None])[:, :, 0] - b, axis=0)
    differences = np.diff(U, axis=0)
    violations = np.where(np.abs(differences) > tol, np.abs(z[:-1] - beta * np.sign(differences)),
                          np.abs(z[:-1]) - beta)
    return float(max(np.abs(z[-1]).max(), violations.max(initial=0.0)) / beta)


def _face_step(H, b, U, beta, tol):
    """A move of U toward the minimizer of the TV block objective on U's
    face and its certificate; (None, inf) if the move would not lower the
    objective.

    Down each column, neighbours that differ by at most ``tol`` are fused
    into one segment and every other neighbouring pair is a jump with a
    fixed sign.  On that face U = P s, with P mapping the S segment values
    to the T*R entries, and TV is linear, so the face minimizer solves the
    S x S SPD system (P'HP) s = P'(b - g) with g the TV gradient in s.  If
    the face minimizer keeps the sign of every jump and its dual residual
    (:func:`_tv_dual_residual`) is at most ``SWEEP_TOL``, it is the block
    minimizer and is returned with that residual as its certificate: it
    cannot raise the objective, which is not evaluated.  Otherwise the move
    runs from U toward P s and stops where the first jump would change
    sign; it is kept, with certificate inf, only if it strictly lowers the
    objective.  Faces of more than ``FACE_MAX_SEGMENTS`` segments are not
    solved.
    """
    T, R = U.shape
    differences = np.diff(U, axis=0)
    jumps = np.abs(differences) > tol
    # segment ids numbered down each column in turn
    segment = np.cumsum(np.vstack([np.ones((1, R), dtype=bool), jumps]).T).reshape(R, T).T - 1
    S = int(segment[-1, -1]) + 1
    if S > FACE_MAX_SEGMENTS:
        return None, math.inf
    pairs = segment[:, :, None] * S + segment[:, None, :]
    face_matrix = np.bincount(pairs.ravel(), H.ravel(), S * S).reshape(S, S)
    signs = np.sign(differences[jumps])
    tv_gradient = np.bincount(segment[1:][jumps], signs, S) - np.bincount(segment[:-1][jumps], signs, S)
    rhs = np.bincount(segment.ravel(), b.ravel(), S) - beta * tv_gradient
    target = np.linalg.solve(face_matrix, rhs)[segment]
    before, after = differences[jumps], np.diff(target, axis=0)[jumps]
    crossing = before * after < 0
    if not crossing.any():
        certificate = _tv_dual_residual(H, b, target, beta, tol)
        if certificate <= SWEEP_TOL:
            return target, certificate
    t = float(np.min(before[crossing] / (before[crossing] - after[crossing]), initial=1.0))
    moved = target if t == 1.0 else U + t * (target - U)
    if _tv_block_objective(H, b, moved, beta) < _tv_block_objective(H, b, U, beta):
        return moved, math.inf
    return None, math.inf


# ---------------------------------------------------------------------------
# initialization and the outer loop


@dataclass(frozen=True)
class _RangeData:
    """Data tensors in orthonormal bases of their column spans, X~ = Q_x'X
    and Y~ = Q_y'Y, with the bases and the shape properties the block
    updates read."""

    X: np.ndarray
    Y: np.ndarray
    Q_x: np.ndarray
    Q_y: np.ndarray
    M: int
    T: int
    affine: bool

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    @property
    def N_in(self) -> int:
        return self.X.shape[0]


def _range_coordinates(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q'A) for a (channels, M, T) data tensor, with Q the orthonormal
    factor of a thin QR of the (channels, M*T) matrix of all transitions:
    min(channels, M*T) columns that span their column space even when that
    matrix is rank deficient.  Q'A is read off the triangular factor in the
    layout :func:`_transitions` views without a copy."""
    _, M, T = A.shape
    Q, triangular = np.linalg.qr(_transitions(A).T)
    return Q, np.ascontiguousarray(triangular.T).reshape(M, T, -1).transpose(2, 0, 1)


def _range_data(data: SnapshotPair) -> _RangeData:
    """The snapshot pair in orthonormal bases of range(X) and range(Y)."""
    Q_y, Y = _range_coordinates(data.Y)
    Q_x, X = _range_coordinates(data.X)
    return _RangeData(X=X, Y=Y, Q_x=Q_x, Q_y=Q_y, M=data.M, T=data.T, affine=data.affine)


def _change_spatial_basis(model: CpFactors, left: np.ndarray, right: np.ndarray) -> CpFactors:
    """The model with U1 -> left @ U1 and U2 -> right @ U2."""
    return CpFactors(U1=left @ model.U1, U2=right @ model.U2, U3=model.U3, affine=model.affine)


def _spectral_factors(data, R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free (U1, U2, U3) from a single global linear fit.

    All windows are concatenated into global snapshot matrices X, Y, and
    the leading R singular vectors of the one-model fit A = Y pinv(X) seed
    the spatial modes.  ``fit`` passes the data in range coordinates, whose
    matrices have at most T*M rows, so A is at most T*M x T*M.  Temporal
    modes are the constant matrix 1/sqrt(T).  Extra columns beyond the
    available spectrum are filled with constant unit vectors.
    """
    Xg = data.X.transpose(0, 2, 1).reshape(data.N_in, data.T * data.M)
    Yg = data.Y.transpose(0, 2, 1).reshape(data.N, data.T * data.M)
    if not np.any(Xg):
        raise DegenerateDataError("predictor tensor is identically zero")
    Ux, s, Vtx = np.linalg.svd(Xg, full_matrices=False)
    keep = s > s[0] * 1e-12
    U_A, _, Vt_A = np.linalg.svd((Yg @ Vtx[keep].T / s[keep]) @ Ux[:, keep].T, full_matrices=False)

    U1, U2, U3 = (np.full((n, R), 1.0 / np.sqrt(n)) for n in (data.N, data.N_in, data.T))
    take = min(R, int(keep.sum()), data.N)
    U1[:, :take] = U_A[:, :take]
    U2[:, :take] = Vt_A[:take].T
    return U1, U2, U3


def initialize(data, params: Hyperparams) -> CpFactors:
    """The model ``fit`` starts from: the spectral factors of the data in
    range coordinates (:func:`_spectral_factors`) plus Gaussian noise of
    scale 0.5/sqrt(rows), drawn from ``params.seed`` in the shapes (N, R),
    (N_in, R) and (T, R) in that order and projected onto the bases, which
    breaks the column symmetry.  ``fit`` passes its range data
    (:func:`_range_data`) and gets the model in its coordinates; a
    :class:`SnapshotPair` gets it lifted to the channels.
    """
    work = data if isinstance(data, _RangeData) else _range_data(data)
    U1, U2, U3 = _spectral_factors(work, params.R)
    rng = np.random.default_rng(params.seed)
    noise = [(0.5 / np.sqrt(n)) * rng.standard_normal((n, params.R)) for n in (len(work.Q_y), len(work.Q_x), work.T)]
    model = CpFactors(U1=U1 + work.Q_y.T @ noise[0], U2=U2 + work.Q_x.T @ noise[1], U3=U3 + noise[2],
                      affine=work.affine)
    return model if work is data else _change_spatial_basis(model, work.Q_y, work.Q_x)


# float64 normals run from 2^-1022 up to, not including, 2^1024
_LOG2_NORMAL_RANGE = (-1022.0, 1024.0)


def _log2_square_norm(values: np.ndarray) -> float:
    """log2 of ||values||_F^2, computed on values / max|values| so that nothing
    overflows or underflows; -inf for all-zero values."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return -math.inf
    return 2.0 * (math.log2(peak) + math.log2(float(np.linalg.norm(values / peak))))


def _check_scales(data: SnapshotPair, params: Hyperparams) -> None:
    """Reject data and hyperparameters whose squares are not normal float64s.

    ||X||^2, ||Y||^2, (1/eta)^2 and, with the spline penalty, (4 beta)^2 set
    the scale of every quantity the fit forms; zero data is left to
    :func:`_spectral_factors`.
    """
    scales = {"||X||^2": _log2_square_norm(data.X), "||Y||^2": _log2_square_norm(data.Y),
              "(1/eta)^2": -2.0 * math.log2(params.eta)}
    if _active_penalty(params, data.T) == "spline":
        scales["(4 beta)^2"] = 2.0 * math.log2(4.0 * params.reg.beta)
    low, high = _LOG2_NORMAL_RANGE
    for name, log2_value in scales.items():
        if log2_value != -math.inf and not low <= log2_value < high:
            raise ExtremeScaleError(
                f"{name} = 2^{log2_value:.0f} is outside the float64 range [2^{low:.0f}, 2^{high:.0f}); "
                "rescale the series (lrtvar.standardize) and eta and beta with it"
            )


def _extrapolation_steps(model: CpFactors, step: float) -> np.ndarray:
    """The step per component: ``step``, or 0 for a component whose weight
    ||U1_r|| ||U2_r|| ||U3_r|| is below float64 eps times the largest.

    The sweeps collapse an unused component towards zero faster than
    geometrically; the linear step would overshoot it and hold it near its
    previous size, where its products with the data run in subnormal
    arithmetic (several times slower) for the rest of the fit.
    """
    weights = np.prod([np.linalg.norm(U, axis=0) for U in (model.U1, model.U2, model.U3)], axis=0)
    return np.where(weights > np.finfo(float).eps * weights.max(), step, 0.0)


def _extrapolate(new: tuple, old: tuple, steps: np.ndarray) -> tuple:
    """new + steps * (new - old) for each pair of (rows, R) arrays, column r
    moving by steps[r]."""
    return tuple(a + steps * (a - b) for a, b in zip(new, old))


def fit(data: SnapshotPair, params: Hyperparams) -> tuple[CpFactors, FitReport]:
    """Alternating block minimization of the regularized cost, with an
    extrapolation trial after every sweep.

    Each outer iteration ``it`` runs one U1 -> U2 -> U3 sweep from the
    iterate U_prev to U, then tries U + it^(1/p) (U - U_prev) on all three
    factors at once (R. Bro, Multi-way Analysis in the Food Industry, 1998)
    and keeps the trial only if its cost, penalty included, is strictly
    lower than the sweep's; a rejection raises p by one.  p starts at
    ``EXTRAPOLATION_ROOT`` and stops at ``EXTRAPOLATION_MAX_ROOT``.
    Components too small to matter keep their sweep values in the trial
    (:func:`_extrapolation_steps`).  The iteration then records the cost
    and prediction error of the iterate it kept, and the fit stops when the
    cost decrease falls below ``rtol`` times the previous cost or ``atol``
    times the initial cost, or at the iteration cap.  Each outer iteration
    logs one INFO line on the ``lrtvar.solver`` logger, and a WARNING when
    it raised the cost by more than ``MONOTONE_SLACK`` times
    1 + |previous cost|.  Data or hyperparameters whose squares float64
    cannot carry raise :class:`ExtremeScaleError` before any update.

    The fit forms X'U2 and Y'U1 once per factor value and passes them to
    the block updates, and it takes the loss of the sweep and of the trial
    from the U3 quadratic (:func:`_quadratic_loss`) on products it already
    holds: those of the trial are the same extrapolation of the sweep's.  An
    outer iteration so makes four data contractions besides the U2 solve's:
    the right-hand sides of the U1 and U2 updates, and Y'U1 and X'U2 of the
    new U1 and U2.

    The fit runs in orthonormal bases Q_x of range(X) and Q_y of range(Y),
    each from one thin QR of the matrix of all transitions and square when
    these are at least as many as the channels (:func:`_range_data`): the
    fit's only factorizations of the data.  It initializes on Q_x'X and
    Q_y'Y (:func:`initialize`), runs every update on them and returns
    U2 = Q_x U2~ and U1 = Q_y U1~.  Every trace entry is the full-data cost
    and RMSE of the lifted iterate.  The quadratic's rounding error is a
    few ulps of ||Y||^2, so the last entry is evaluated from the residual of
    the lifted model on the data: it is :func:`cost` and :func:`rmse` to
    the bit.  ``report.outer`` holds one :class:`OuterIteration` per outer
    iteration.
    """
    t_start = time.perf_counter()
    _check_scales(data, params)
    work = _range_data(data)
    model = initialize(work, params)
    half_energy = 0.5 * float(np.sum(data.Y * data.Y))
    products = _products(model, work)
    value = _quadratic_loss(model, products, half_energy)
    cost_trace = [value + _regularization(model, params)]
    rmse_trace = [_rmse_from_loss(value, data)]
    outer = []
    spline = _active_penalty(params, data.T) == "spline"
    root = EXTRAPOLATION_ROOT

    for it in range(1, params.max_outer_iters + 1):
        start, start_products = model, products
        laps = [time.perf_counter()]
        U1 = update_left(model, work, params.eta, products=products)
        model = replace(model, U1=U1)
        products = (products[0], _transitions(work.Y) @ U1)
        laps.append(time.perf_counter())
        U2, cg_iters = update_right(model, work, params.eta, params.cg_max_iters, products=products)
        model = replace(model, U2=U2)
        products = (_transitions(work.X) @ U2, products[1])
        laps.append(time.perf_counter())
        outcome = {"face_steps": 0, "certificate": None}
        U3, inner_iters = update_temporal(model, work, params, products=products, outcome=outcome)
        model = replace(model, U3=U3)
        laps.append(time.perf_counter())

        value = _quadratic_loss(model, products, half_energy)
        c = value + _regularization(model, params)
        steps = _extrapolation_steps(model, it ** (1.0 / root))
        trial = CpFactors(*_extrapolate((model.U1, model.U2, model.U3), (start.U1, start.U2, start.U3), steps),
                          affine=model.affine)
        trial_products = _extrapolate(products, start_products, steps)
        trial_value = _quadratic_loss(trial, trial_products, half_energy)
        trial_cost = trial_value + _regularization(trial, params)
        extrapolated = trial_cost < c
        if extrapolated:
            model, products, value, c = trial, trial_products, trial_value, trial_cost
        else:
            root = min(root + 1, EXTRAPOLATION_MAX_ROOT)

        prev_cost = cost_trace[-1]
        termination = None
        if prev_cost > 0 and abs(c - prev_cost) / prev_cost < params.rtol:
            termination = "rtol"
        elif abs(c - prev_cost) < params.atol * cost_trace[0]:
            termination = "atol"
        elif it == params.max_outer_iters:
            termination = "max_iters"
        if termination is not None:
            model = _change_spatial_basis(model, work.Q_y, work.Q_x)
            c, value = _cost_and_loss(model, data, params)
        laps.append(time.perf_counter())

        cost_trace.append(c)
        rmse_trace.append(_rmse_from_loss(value, data))
        certificate = outcome["certificate"]
        record = OuterIteration(
            cg_iters, cg_iters >= params.cg_max_iters, inner_iters,
            certificate > SWEEP_TOL if certificate is not None else spline and inner_iters >= params.cg_max_iters,
            outcome["face_steps"], certificate, extrapolated, max(0.0, c - prev_cost) / (1.0 + abs(prev_cost)),
            *np.diff(laps).tolist())
        outer.append(record)
        logger.info("iter %d: cost=%.17g rmse=%.17g %s", it, c, rmse_trace[-1], record)
        if record.cost_rise > MONOTONE_SLACK:
            logger.warning("iter %d: cost rose from %.17g to %.17g, %.3g of 1 + |cost|, above the %g slack",
                           it, prev_cost, c, record.cost_rise, MONOTONE_SLACK)
        if termination is not None:
            break

    report = FitReport(
        cost_trace=cost_trace,
        rmse_trace=rmse_trace,
        iterations=it,
        termination=termination,
        wall_seconds=time.perf_counter() - t_start,
        outer=outer,
    )
    return model, report

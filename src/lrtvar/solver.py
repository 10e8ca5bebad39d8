"""Block-coordinate fitting of the factored time-varying linear model.

The regularized cost is

    C = 1/2 sum_k ||Y_k - U1 diag(U3[k]) U2' X_k||_F^2
        + 1/(2 eta) (||U1||_F^2 + ||U2||_F^2 + ||U3||_F^2)
        + beta * R(U3)

minimized by cycling exact or iterative solves over the three factor
blocks: a dense R x R solve for U1, matrix-free conjugate gradients on a
Sylvester-type system for U2, and per-window solves (no smoothing), the same
CG routine (spline smoothing), or monotone FISTA with the exact fixed step
1/L (total-variation smoothing) for U3.  Every update is non-increasing in C,
so the outer cost trace descends monotonically up to subproblem tolerances.

Nothing in the fit path ever forms an N x N or N_in x N_in matrix; all
contractions go through the data tensors and the R-column factors, which is
what makes large state dimensions tractable.  Each contraction is a BLAS
matmul of a 2-D (M*T, channels) view of a data tensor with an R-column
factor (the MTTKRP view of CP-ALS); diag(U3[k]) is a broadcast multiply on
the (M, T, R) view of the product, and the per-window R x R blocks are one
batched matmul.  ``fit`` evaluates the loss once per outer iteration and
derives both the cost and the RMSE from it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .cp_model import CpFactors
from .errors import DegenerateDataError, DimensionMismatchError, ExtremeScaleError, NonFiniteError, NonPositiveEtaError
from .regularizers import Regularizer, apply_diff, apply_diff_transpose, tikhonov_penalty, tv_prox_columns
from .windowing import SnapshotPair, write_csv

# CG stops once the residual falls to this fraction of the right-hand side.
CG_TOL = 1e-9

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparams:
    """All solver and model knobs.

    ``atol`` is relative to the initial cost, like ``rtol`` to the previous one.
    ``seed`` fixes the initialization noise (see :func:`initialize`).
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
        if self.R < 1:
            raise ValueError(f"rank must be >= 1, got {self.R}")
        for name in ("eta", "rtol", "atol"):
            if not np.isfinite(getattr(self, name)):
                raise NonFiniteError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta <= 0:
            raise NonPositiveEtaError(f"eta must be > 0, got {self.eta}")
        for name in ("max_outer_iters", "cg_max_iters", "pg_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rtol < 0 or self.atol < 0:
            raise ValueError("tolerances must be >= 0")


@dataclass
class FitReport:
    """Per-run diagnostics.

    ``cost_trace[0]`` is the cost at initialization; each outer iteration
    appends one entry after its temporal update.  The trace is
    non-increasing up to a slack of 1e-8 * (1 + |C|) per step.
    """

    cost_trace: list
    rmse_trace: list
    iterations: int
    termination: str
    wall_seconds: float
    subproblem_stats: dict

    def write_trace_csv(self, path, manifest: Optional[str] = None) -> None:
        """Trace as CSV with columns (iteration, cost, rmse); row 0 is the
        initialization."""
        rows = ((i, c, r) for i, (c, r) in enumerate(zip(self.cost_trace, self.rmse_trace)))
        write_csv(path, rows, header=["iteration", "cost", "rmse"], manifest=manifest)

    def summary(self) -> str:
        lines = [
            f"iterations: {self.iterations}",
            f"termination: {self.termination}",
            f"final cost: {self.cost_trace[-1]:.17g}",
            f"final rmse: {self.rmse_trace[-1]:.17g}",
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


def _scaled_projection(model: CpFactors, data: SnapshotPair) -> np.ndarray:
    """The (M*T, R) matrix of the rows of H_k' = X_k' U2 diag(U3[k])."""
    return _scale_windows(_transitions(data.X) @ model.U2, model.U3)


def _rmse_from_loss(value: float, data: SnapshotPair) -> float:
    """RMSE per channel and transition of a fit whose loss is ``value``."""
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
    return _cost_and_rmse(model, data, params)[0]


def _cost_and_rmse(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> tuple[float, float]:
    """(cost, rmse) of the model from a single loss evaluation."""
    value = loss(model, data)
    regularization = tikhonov_penalty(model.U1, model.U2, model.U3, params.eta) + params.reg.penalty(model.U3)
    return value + regularization, _rmse_from_loss(value, data)


# ---------------------------------------------------------------------------
# block gradients (smooth part of the cost: loss + ridge [+ spline])


def _left_normal_equations(model: CpFactors, data: SnapshotPair) -> tuple[np.ndarray, np.ndarray]:
    """S = sum_k H_k H_k' and B = sum_k Y_k H_k', so the loss in U1 is
    1/2 tr(U1 S U1') - tr(B' U1) + const."""
    H = _scaled_projection(model, data)
    return H.T @ H, _transitions(data.Y).T @ H


def grad_left(model: CpFactors, data: SnapshotPair, eta: float) -> np.ndarray:
    """Gradient of (loss + ridge) in U1."""
    _check_dims(model, data)
    S, B = _left_normal_equations(model, data)
    return model.U1 @ S - B + model.U1 / eta


def grad_right(model: CpFactors, data: SnapshotPair, eta: float) -> np.ndarray:
    """Gradient of (loss + ridge) in U2; never forms X_k X_k'."""
    _check_dims(model, data)
    return _right_operator(model, data, eta, model.U2) - _right_rhs(model, data)


def grad_temporal(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> np.ndarray:
    """Gradient of the smooth cost in U3: loss + ridge, plus the spline term
    when that regularizer is active (the TV term is nonsmooth and excluded)."""
    _check_dims(model, data)
    C, b = _temporal_quadratic(model, data)
    spline_beta = params.reg.beta if _active_penalty(params, model.T) == "spline" else 0.0
    return _temporal_operator(C, params.eta, spline_beta, model.U3) - b


# ---------------------------------------------------------------------------
# block updates


def update_left(model: CpFactors, data: SnapshotPair, eta: float) -> np.ndarray:
    """Exact minimizer of the cost over U1 (R x R ridge-damped solve)."""
    _check_dims(model, data)
    S, B = _left_normal_equations(model, data)
    S[np.diag_indices_from(S)] += 1.0 / eta
    return np.linalg.solve(S, B.T).T


def _right_operator(model: CpFactors, data: SnapshotPair, eta: float, U: np.ndarray) -> np.ndarray:
    """Apply U -> sum_k X_k X_k' U R_k + U/eta with R_k = diag(U3[k]) U1'U1 diag(U3[k])."""
    X = _transitions(data.X)
    W = _scale_windows(X @ U, model.U3)  # rows of X_k' U diag(U3[k])
    Z = _scale_windows(W @ (model.U1.T @ model.U1), model.U3)
    return X.T @ Z + U / eta


def _right_rhs(model: CpFactors, data: SnapshotPair) -> np.ndarray:
    """B = sum_k X_k Y_k' U1 diag(U3[k])."""
    F = _scale_windows(_transitions(data.Y) @ model.U1, model.U3)  # rows of Y_k' U1 diag(U3[k])
    return _transitions(data.X).T @ F


def _cg(operate, rhs: np.ndarray, x0: np.ndarray, max_iters: int, tol: float = CG_TOL) -> tuple[np.ndarray, int]:
    """Conjugate gradients on operate(x) = rhs for a symmetric positive-definite
    ``operate``, warm-started at ``x0``.

    Stops when the residual norm reaches ``tol * ||rhs||`` or after
    ``max_iters`` steps.  Every step lowers the quadratic 1/2 x'Ax - rhs'x,
    so the result is never worse than ``x0``.  Returns (x, iterations used).
    """
    x = x0.copy()
    r = rhs - operate(x)
    p = r.copy()
    rs = float(np.sum(r * r))
    rhs_norm = float(np.linalg.norm(rhs))
    threshold = tol * rhs_norm if rhs_norm > 0 else 0.0
    n_iters = 0
    for _ in range(max_iters):
        if np.sqrt(rs) <= threshold:
            break
        Ap = operate(p)
        alpha = rs / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
        n_iters += 1
    return x, n_iters


def update_right(
    model: CpFactors, data: SnapshotPair, eta: float, max_iters: int = 24, tol: float = CG_TOL
) -> tuple[np.ndarray, int]:
    """Approximate minimizer of the cost over U2 by matrix-valued CG.

    The normal equations are a Sylvester-type system
    sum_k L_k U2 R_k + U2/eta = B with L_k = X_k X_k' applied matrix-free.
    CG warm-starts from the current U2, so the quadratic objective (hence the
    cost) never increases.  Returns (new U2, CG iterations used).
    """
    _check_dims(model, data)
    operate = partial(_right_operator, model, data, eta)
    return _cg(operate, _right_rhs(model, data), model.U2, max_iters, tol)


def _temporal_quadratic(model: CpFactors, data: SnapshotPair) -> tuple[np.ndarray, np.ndarray]:
    """Per-window quadratic data: C[k] = (U2'X_k X_k'U2) * (U1'U1) (Hadamard)
    and b[k] = diag(U2' X_k Y_k' U1), so the smooth loss in U3 is
    sum_k 1/2 u_k' C_k u_k - b_k' u_k + const with u_k = U3[k]."""
    shape = (-1, model.T, model.R)
    G = (_transitions(data.X) @ model.U2).reshape(shape).transpose(1, 0, 2)  # G[k] = X_k' U2
    F = (_transitions(data.Y) @ model.U1).reshape(shape).transpose(1, 0, 2)  # F[k] = Y_k' U1
    C = (G.transpose(0, 2, 1) @ G) * (model.U1.T @ model.U1)
    b = np.sum(G * F, axis=1)
    return C, b


def _temporal_operator(C: np.ndarray, eta: float, spline_beta: float, U: np.ndarray) -> np.ndarray:
    """Apply the Hessian of the smooth cost in U3: (C_k + I/eta) u_k window by
    window, plus spline_beta * D'D U."""
    out = (C @ U[:, :, None])[:, :, 0] + U / eta
    if spline_beta:
        out += spline_beta * apply_diff_transpose(apply_diff(U))
    return out


def _active_penalty(params: Hyperparams, T: int) -> str:
    """The temporal penalty in effect: "none" when beta is 0 or a single
    window leaves no differences to penalize."""
    return params.reg.kind if params.reg.beta > 0 and T >= 2 else "none"


def update_temporal(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> tuple[np.ndarray, int]:
    """Minimize the cost over U3; returns (new U3, inner iterations used).

    Without temporal smoothing (or with a single window, where no difference
    exists) the problem decouples into T exact R x R ridge solves.  The
    spline penalty couples the windows through a block-tridiagonal term and
    is solved by warm-started CG; the TV penalty is handled by monotone FISTA
    with the fixed step 1/L, using the exact 1-D TV prox column by column.
    """
    _check_dims(model, data)
    C, b = _temporal_quadratic(model, data)
    kind = _active_penalty(params, model.T)

    if kind == "none":
        A = C.copy()
        idx = np.arange(model.R)
        A[:, idx, idx] += 1.0 / params.eta
        return np.linalg.solve(A, b[..., None])[..., 0], 0

    if kind == "spline":
        operate = partial(_temporal_operator, C, params.eta, params.reg.beta)
        return _cg(operate, b, model.U3, params.cg_max_iters)

    return _temporal_fista_tv(C, b, model.U3, params.eta, params.reg, params.pg_max_iters)


def _temporal_fista_tv(C, b, U3_init, eta, reg, max_iters):
    """Monotone FISTA (Beck & Teboulle 2009) with the fixed step 1/L.

    The Hessian of the smooth part is block-diagonal, diag(C_k + I/eta), so
    L = max_k lambda_max(C_k) + 1/eta is its exact Lipschitz constant.  When
    the momentum step would raise the objective by more than a rounding slack
    of 1e-12 (1 + |obj|), momentum restarts and a plain prox-gradient step
    from the previous iterate is taken instead; with step 1/L that step
    cannot raise the objective (up to rounding), so no step rises by more
    than the slack.  Without it, last-bit ties at a fixed point restart.
    """
    hessian = partial(_temporal_operator, C, eta, 0.0)
    L = float(np.linalg.eigvalsh(C).max()) + 1.0 / eta

    def objective(U):
        return float(0.5 * np.sum(U * hessian(U)) - np.sum(b * U)) + reg.penalty(U)

    def prox_step(U):
        return tv_prox_columns(U - (hessian(U) - b) / L, reg.beta / L)

    u_prev = U3_init.copy()
    z = u_prev
    obj_prev = objective(u_prev)
    t_momentum = 1.0
    for _ in range(max_iters):
        candidate = prox_step(z)
        obj_candidate = objective(candidate)
        if obj_candidate > obj_prev + 1e-12 * (1.0 + abs(obj_prev)):
            t_momentum = 1.0
            candidate = prox_step(u_prev)
            obj_candidate = objective(candidate)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        z = candidate + ((t_momentum - 1.0) / t_next) * (candidate - u_prev)
        u_prev = candidate
        obj_prev = obj_candidate
        t_momentum = t_next
    return u_prev, max_iters


# ---------------------------------------------------------------------------
# initialization and the outer loop


def _spectral_factors(data: SnapshotPair, R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free (U1, U2, U3) from a single global linear fit.

    All windows are concatenated into global snapshot matrices X, Y; the
    one-model fit A = Y pinv(X) is formed in factored form (never as a dense
    N x N_in matrix) and its leading R singular vectors seed the spatial
    modes.  Temporal modes are the constant matrix 1/sqrt(T).  Extra columns
    beyond the available spectrum are filled with constant unit vectors.
    """
    Xg = data.X.transpose(0, 2, 1).reshape(data.N_in, data.T * data.M)
    Yg = data.Y.transpose(0, 2, 1).reshape(data.N, data.T * data.M)
    if not np.any(Xg):
        raise DegenerateDataError("predictor tensor is identically zero")

    # A = Y pinv(X) = (Y V S^-1) Ux'; its SVD comes from a QR of the thin
    # left product followed by an SVD of a small core, keeping every
    # intermediate at O(N * min(N_in, T*M)) memory.
    Ux, s, Vtx = np.linalg.svd(Xg, full_matrices=False)
    keep = s > s[0] * 1e-12
    Ux, s, Vtx = Ux[:, keep], s[keep], Vtx[keep]
    Bmat = (Yg @ Vtx.T) / s
    Q, Rq = np.linalg.qr(Bmat)
    Uc, _, Vtc = np.linalg.svd(Rq @ Ux.T, full_matrices=False)
    U_A = Q @ Uc
    V_A = Vtc.T

    N, N_in, T = data.N, data.N_in, data.T
    U1 = np.empty((N, R))
    U2 = np.empty((N_in, R))
    take = min(R, U_A.shape[1])
    U1[:, :take] = U_A[:, :take]
    U2[:, :take] = V_A[:, :take]
    if R > take:
        U1[:, take:] = 1.0 / np.sqrt(N)
        U2[:, take:] = 1.0 / np.sqrt(N_in)
    U3 = np.full((T, R), 1.0 / np.sqrt(T))
    return U1, U2, U3


def initialize(data: SnapshotPair, params: Hyperparams) -> CpFactors:
    """Spectral initialization (:func:`_spectral_factors`) plus Gaussian noise
    of scale 0.5/sqrt(rows), drawn from ``params.seed`` for U1, U2, U3 in that
    order, which breaks the column symmetry."""
    rng = np.random.default_rng(params.seed)
    U1, U2, U3 = (U + (0.5 / np.sqrt(U.shape[0])) * rng.standard_normal(U.shape)
                  for U in _spectral_factors(data, params.R))
    return CpFactors(U1=U1, U2=U2, U3=U3, affine=data.affine)


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


def _timed(seconds: list, func, *args):
    """Call func(*args) and append its wall time to ``seconds``."""
    start = time.perf_counter()
    result = func(*args)
    seconds.append(time.perf_counter() - start)
    return result


def fit(data: SnapshotPair, params: Hyperparams) -> tuple[CpFactors, FitReport]:
    """Alternating block minimization of the regularized cost.

    Cycles U1 -> U2 -> U3 updates, recording cost and prediction error after
    each full cycle, until the cost decrease falls below ``rtol`` times the
    previous cost or ``atol`` times the initial cost, or the iteration cap
    is reached.  Each outer iteration logs one INFO line on the
    ``lrtvar.solver`` logger.  Data or hyperparameters whose squares float64
    cannot carry raise :class:`ExtremeScaleError` before any update.

    ``subproblem_stats`` holds one entry per outer iteration under each key:
    the inner iterations of the U2 and U3 updates (``cg_iters_right``,
    ``inner_iters_temporal``) and the wall seconds of the U1, U2 and U3
    updates and of the objective evaluation (``seconds_left``,
    ``seconds_right``, ``seconds_temporal``, ``seconds_objective``).
    """
    t_start = time.perf_counter()
    _check_scales(data, params)
    model = initialize(data, params)
    c, r = _cost_and_rmse(model, data, params)
    cost_trace = [c]
    rmse_trace = [r]
    keys = ("cg_iters_right", "inner_iters_temporal", "seconds_left", "seconds_right", "seconds_temporal",
            "seconds_objective")
    stats = {key: [] for key in keys}

    termination = "max_iters"
    iterations = 0
    prev_cost = cost_trace[0]
    for it in range(1, params.max_outer_iters + 1):
        U1 = _timed(stats["seconds_left"], update_left, model, data, params.eta)
        model = CpFactors(U1=U1, U2=model.U2, U3=model.U3, affine=model.affine)
        U2, cg_iters = _timed(stats["seconds_right"], update_right, model, data, params.eta, params.cg_max_iters)
        model = CpFactors(U1=model.U1, U2=U2, U3=model.U3, affine=model.affine)
        U3, inner_iters = _timed(stats["seconds_temporal"], update_temporal, model, data, params)
        model = CpFactors(U1=model.U1, U2=model.U2, U3=U3, affine=model.affine)

        iterations = it
        c, r = _timed(stats["seconds_objective"], _cost_and_rmse, model, data, params)
        cost_trace.append(c)
        rmse_trace.append(r)
        stats["cg_iters_right"].append(cg_iters)
        stats["inner_iters_temporal"].append(inner_iters)
        logger.info("iter %d: cost=%.17g rmse=%.17g cg=%d inner=%d", it, c, r, cg_iters, inner_iters)

        if prev_cost > 0 and abs(c - prev_cost) / prev_cost < params.rtol:
            termination = "rtol"
            break
        if abs(c - prev_cost) < params.atol * cost_trace[0]:
            termination = "atol"
            break
        prev_cost = c

    report = FitReport(
        cost_trace=cost_trace,
        rmse_trace=rmse_trace,
        iterations=iterations,
        termination=termination,
        wall_seconds=time.perf_counter() - t_start,
        subproblem_stats=stats,
    )
    return model, report

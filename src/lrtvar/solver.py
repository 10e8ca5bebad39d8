"""Block-coordinate fitting of the factored time-varying linear model.

The regularized cost is

    C = 1/2 sum_k ||Y_k - U1 diag(U3[k]) U2' X_k||_F^2
        + 1/(2 eta) (||U1||_F^2 + ||U2||_F^2 + ||U3||_F^2)
        + beta * R(U3)

minimized by cycling exact or iterative solves over the three factor
blocks: a dense R x R solve for U1, matrix-free conjugate gradients on a
Sylvester-type system for U2, and per-window solves (no smoothing), the
same CG routine on the banded Hessian blockdiag(C_k + I/eta) +
beta D'D kron I_R (spline smoothing), or a primal-dual active set on faces
(total-variation smoothing) for U3.  A
TV face is a set of fused segments and the signs of the jumps between them;
the U3 block is minimized exactly on a face by one dense solve over the
segment values, and the running sums of the gradient of that face minimizer
either pass the block's optimality conditions, which ends the update on the
block minimizer, or say which jumps to fuse and which fused pairs to open
for the next face.  Exact minimization one column at a time by the weighted
TV prox is only the fallback, for faces too large to solve or a face
iteration that does not certify, and it keeps the incoming U3 unless its
result lowers the block objective.  Each CG is an inexact block solve:
warm-started at the incoming block, where its residual is minus the block
gradient, it stops once that residual has fallen by the fixed factor
CG_FORCING (the forcing term of Eisenstat & Walker 1996, applied to block
coordinate descent as by Tappenden, Richtarik & Gondzio 2016) or to CG_TOL
of the right-hand side, or after CG_MAX_STEPS steps, and each of its steps
lowers the block cost.  It runs on its system divided by the power of two
that brings the largest right-hand side entry into [1, 2), which keeps its
sums of squares in the float64 range.  So every update is non-increasing
in C, up to the inner solves' rounding, at every scale the fit accepts.
After each sweep ``fit`` tries the extrapolated iterate
U + it^(1/p) (U - U_prev) on all three factors at once and keeps it only if
it lowers C (Bro's line search for PARAFAC), so the outer cost trace
descends monotonically up to subproblem tolerances.  Before that trial,
``fit`` sets every component whose weight ||U1_r|| ||U2_r|| ||U3_r|| is at
most float64 eps times the largest to exact zeros, where no update moves it
again.

Nothing in the fit path grows with the number of channels beyond the data
and its products with the R-column factors: the U2 system is applied
matrix-free and never formed.  The U3 update forms matrices whose size
depends on T and R alone, and for few channels they are larger than the
data: the (T, R, R) Hessian blocks C_k (160*4*4 = 2560 entries on the smooth
benchmark, against 1600 in X), and a TV face matrix of up to
min(T*R, FACE_MAX_SEGMENTS)^2 entries (80^2 = 6400 on the switching
benchmark, against 2000 in X).  All data contractions go through the data
tensors and the R-column factors, which is what makes large state
dimensions tractable.  Each contraction is
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
contractions besides the U2 CG's one per step.  What does not change within
a fit is formed once per fit in its workspace (:class:`_RangeData`): the
range bases and data and 1/2 ||Y||^2.  The iterate is carried as plain
arrays and validated once, as the :class:`CpFactors` ``fit`` returns;
every outer iteration instead checks that the cost of its sweep is finite,
which the ridge term makes it exactly when every factor entry is.  A trial
whose cost is not finite is rejected like any other that does not lower
the cost.

The loss sees U2 only through X_k'U2 and U1 only through its product with Y,
and the ridge term puts each block's exact minimizer in range(X), resp.
range(Y).  So ``fit`` runs the block updates on the data in orthonormal
bases of range(X) and range(Y), initializes there, and lifts U2 and U1 back
once at the end: the cost of every iterate is the same in either
coordinates.  A basis is the identity when the transitions are at least as
many as the channels, with no factorization of the data.  Otherwise it comes
from one eigendecomposition of the (T*M)^2 Gram of the (channels, T*M)
matrix A of the transitions, A'A = V diag(lam) V': the range data are
diag(lam)^1/2 V', and the basis Q = A V diag(lam)^-1/2 is never formed, U
lifting to A (V diag(lam)^-1/2 U).  Directions whose eigenvalue is at most
T*M eps lam_max are dropped; the lifted basis is orthonormal to about
eps lam_max / lam in each kept one.  No QR and no SVD is taken: the
spectral start's pseudoinverse and singular pairs come from
eigendecompositions of Grams of side at most T*M too.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .cp_model import CpFactors, _FactorShapes
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    ExtremeScaleError,
    NonFiniteError,
    NonPositiveEtaError,
    finite_real,
    integer_at_least,
    real_at_least,
)
from .regularizers import Regularizer, _ridge, tv_penalty, tv_prox_columns
from .windowing import SnapshotPair, write_csv

# CG stops once its residual falls to CG_TOL times the right-hand side or to
# CG_FORCING times its initial residual, whichever is larger, or after
# CG_MAX_STEPS steps.
CG_TOL = 1e-9
CG_FORCING = 0.1
CG_MAX_STEPS = 24
# A TV update of U3 ends on a face minimizer whose dual residual, over beta,
# is at most this or its rounding, or once a fallback sweep moves no entry by
# more than this fraction of the largest entry; neighbours within that
# fraction are fused.
SWEEP_TOL = 1e-10
# A TV update of U3 makes at most TV_MAX_STEPS face solves per face iteration
# and TV_MAX_STEPS fallback sweeps.
TV_MAX_STEPS = 40
# A TV face is minimized by a dense solve over its segments; faces of more
# segments than this (a face matrix over 8 MiB) are left to the sweeps.
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
    ``seed`` fixes the initialization noise (see :func:`initialize`).  The
    inner solves' budgets are the module constants ``CG_MAX_STEPS`` and
    ``TV_MAX_STEPS``, not knobs.  ``R`` and ``max_outer_iters`` must be
    integers >= 1, ``seed`` an integer >= 0, ``eta`` a real number > 0 and
    ``rtol`` and ``atol`` real numbers >= 0, none of them bools.  A value
    of another type or out of range raises
    :class:`InvalidHyperparameterError` (:class:`NonPositiveEtaError` for an
    ``eta`` <= 0), and a non-finite real one :class:`NonFiniteError`.
    """

    R: int
    eta: float
    reg: Regularizer = field(default_factory=Regularizer)
    max_outer_iters: int = 1000
    rtol: float = 1e-4
    atol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name, least in (("R", 1), ("max_outer_iters", 1), ("seed", 0)):
            integer_at_least(name, getattr(self, name), least)
        object.__setattr__(self, "eta", finite_real("eta", self.eta))
        if self.eta <= 0:
            raise NonPositiveEtaError(f"eta must be > 0, got {self.eta}")
        for name in ("rtol", "atol"):
            object.__setattr__(self, name, real_at_least(name, getattr(self, name)))


@dataclass(frozen=True)
class BlockOutcome:
    """How one block update ended: exact, or where its iteration stopped.

    ``method`` is ``"exact"`` for a direct solve, ``"cg"`` for conjugate
    gradients, ``"face"`` for a TV update that returned a certified face
    minimizer and ``"sweeps"`` for one that returned a fallback sweep
    iterate.  ``steps`` counts the CG steps, or the face solves plus the
    fallback sweeps of a TV update; 0 for an exact solve.  ``residual`` is
    the CG's relative residual ||rhs - K x|| / ||rhs||, the dual residual
    over beta of a TV update's result (:func:`_tv_dual_residual`), or 0.0
    for an exact solve.  ``tolerance`` is what the solve stopped on: the
    CG's stop threshold max(``CG_TOL`` ||rhs||, ``CG_FORCING`` ||r0||) over
    ||rhs|| (:func:`_cg`), for ``face`` ``SWEEP_TOL`` or, above it, the
    rounding its running sums can leave (:func:`_tv_rounding_tolerance`),
    ``SWEEP_TOL`` for ``sweeps`` and 0 for ``exact``.  ``capped`` is
    ``not residual <= tolerance``: the solve ended above its own tolerance,
    on a step cap or with a NaN residual.
    So an exact solve, with residual 0.0, is never capped.  ``str()`` is
    ``method/steps/residual``, with ``/capped`` appended when it is.
    """

    method: str
    steps: int
    residual: float
    tolerance: float
    capped: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "capped", not self.residual <= self.tolerance)

    def __str__(self) -> str:
        return f"{self.method}/{self.steps}/{self.residual:.3g}" + ("/capped" if self.capped else "")


# the outcome of every direct block solve
_EXACT = BlockOutcome("exact", 0, 0.0, 0.0)


@dataclass(frozen=True)
class OuterIteration:
    """What one outer iteration of :func:`fit` did.

    ``left``, ``right`` and ``temporal`` are the :class:`BlockOutcome` of
    the U1, U2 and U3 updates.  U1 is always solved exactly, U2 always by
    CG, and U3 exactly (no smoothing), by CG (spline) or on faces with
    column sweeps as the fallback (TV).  ``extrapolated`` says whether the
    extrapolation trial was kept, and ``cost_rise`` is the rise of the cost
    over the previous trace entry relative to 1 + |previous cost|, 0 when
    it fell.  The ``seconds_*`` fields are the wall seconds of the U1, U2
    and U3 updates, each with the product of its new factor, and of the
    objective evaluations and the trial.  ``str()`` is the outcome part of
    ``fit``'s INFO line.
    """

    left: BlockOutcome
    right: BlockOutcome
    temporal: BlockOutcome
    extrapolated: bool
    cost_rise: float
    seconds_left: float
    seconds_right: float
    seconds_temporal: float
    seconds_objective: float

    def __str__(self) -> str:
        return f"extrapolated={self.extrapolated} left={self.left} right={self.right} temporal={self.temporal}"


@dataclass
class FitReport:
    """Per-run diagnostics.

    ``cost_trace[0]`` is the cost at initialization; each outer iteration
    appends one entry after its extrapolation trial: the cost of the
    extrapolated iterate if the trial lowered it, else of the sweep's.  The
    trace is non-increasing up to a slack of ``MONOTONE_SLACK * (1 + |C|)``
    per step, which ``fit`` checks as it goes (``OuterIteration.cost_rise``).
    ``outer[i]`` records outer iteration i + 1, the one that appended
    ``cost_trace[i + 1]``, so the read-only ``iterations`` is
    ``len(outer)``.  :meth:`summary` counts the capped U2 and U3
    solves (:attr:`BlockOutcome.capped`: above the tolerance of the solve
    itself, for a CG its forcing threshold), their inner steps and the
    accepted extrapolations.
    """

    cost_trace: list
    rmse_trace: list
    termination: str
    wall_seconds: float
    outer: list
    iterations = property(lambda self: len(self.outer), doc="The number of outer iterations run, ``len(outer)``.")

    def write_trace_csv(self, path, manifest: Optional[str] = None) -> None:
        """Trace as CSV with columns (iteration, cost, rmse); row 0 is the
        initialization."""
        rows = ((i, c, r) for i, (c, r) in enumerate(zip(self.cost_trace, self.rmse_trace)))
        write_csv(path, rows, header=["iteration", "cost", "rmse"], manifest=manifest)

    def write_trace_json(self, path, manifest: Optional[str] = None) -> None:
        """Trace as one JSON object: the manifest, the termination and under
        ``outer`` one object per outer iteration, its ``iteration``, the
        ``cost`` and ``rmse`` it appended to the traces and the fields of its
        :class:`OuterIteration`, each :class:`BlockOutcome` an object of its
        ``method``, ``steps``, ``residual``, ``tolerance`` and ``capped``;
        wall seconds included, so unlike the CSV it differs between reruns."""
        rows = zip(self.cost_trace[1:], self.rmse_trace[1:], self.outer)
        outer = [{"iteration": i, "cost": c, "rmse": r, **asdict(o)} for i, (c, r, o) in enumerate(rows, start=1)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"manifest": manifest, "termination": self.termination, "outer": outer}, fh, indent=1)

    def summary(self) -> str:
        return "\n".join([
            f"iterations: {self.iterations}",
            f"termination: {self.termination}",
            f"final cost: {self.cost_trace[-1]:.17g}",
            f"final rmse: {self.rmse_trace[-1]:.17g}",
            f"capped U2 solves: {sum(o.right.capped for o in self.outer)} of {self.iterations}",
            f"capped U3 solves: {sum(o.temporal.capped for o in self.outer)} of {self.iterations}",
            f"U2 inner steps: {sum(o.right.steps for o in self.outer)}",
            f"U3 inner steps: {sum(o.temporal.steps for o in self.outer)}",
            f"extrapolated steps: {sum(o.extrapolated for o in self.outer)} of {self.iterations}",
            f"wall seconds: {self.wall_seconds:.3f}",
        ])


def _check_dims(model: CpFactors, data: SnapshotPair) -> None:
    if model.N != data.N or model.N_in != data.N_in or model.T != data.T:
        raise DimensionMismatchError(f"model dims (N={model.N}, N_in={model.N_in}, T={model.T}) vs "
                                     f"data dims (N={data.N}, N_in={data.N_in}, T={data.T})")


def _transitions(A: np.ndarray) -> np.ndarray:
    """A (channels, M, T) data tensor as the (M*T, channels) matrix whose row
    m*T + k is column m of window k.  This is a view of the memory layout
    ``build_snapshots`` produces and one copy of any other layout."""
    return A.transpose(1, 2, 0).reshape(A.shape[1] * A.shape[2], A.shape[0])


def _scale_windows(W: np.ndarray, U3: np.ndarray) -> np.ndarray:
    """Multiply the rows of an (M*T, R) matrix that belong to window k by
    U3[k], which applies diag(U3[k]) to every transition of window k."""
    return (W.reshape(-1, *U3.shape) * U3).reshape(W.shape)


def _products(model: CpFactors, data: SnapshotPair) -> tuple[np.ndarray, np.ndarray]:
    """(X'U2, Y'U1) as the (M*T, R) matrices whose row m*T + k is the
    product of column m of X_k, resp. Y_k, with U2, resp. U1."""
    return _transitions(data.X) @ model.U2, _transitions(data.Y) @ model.U1


def _rmse_from_loss(value: float, data: SnapshotPair) -> float:
    """RMSE per channel and transition of a fit whose loss is ``value``;
    ``data`` has the fit's original channels, whose loss is the one taken
    in range coordinates."""
    return float(np.sqrt(2.0 * value / (data.N * data.M * data.T)))


def loss(model: CpFactors, data: SnapshotPair) -> float:
    """Unregularized squared error: 1/2 sum_k ||Y_k - A_k X_k||_F^2."""
    _check_dims(model, data)
    H = _scale_windows(_transitions(data.X) @ model.U2, model.U3)  # rows of X_k' U2 diag(U3[k])
    resid = _transitions(data.Y) - H @ model.U1.T
    return 0.5 * float(np.sum(resid * resid))


def rmse(model: CpFactors, data: SnapshotPair) -> float:
    """Average one-step prediction error per channel:
    sqrt(sum_k ||Y_k - A_k X_k||_F^2 / (N M T))."""
    return _rmse_from_loss(loss(model, data), data)


def cost(model: CpFactors, data: SnapshotPair, params: Hyperparams) -> float:
    """Full regularized objective: loss + ridge + beta * temporal penalty."""
    return loss(model, data) + _regularization(model, params)


def _regularization(model: CpFactors, params: Hyperparams) -> float:
    """Ridge plus beta * temporal penalty: the cost without the loss."""
    return _ridge(model.U1, model.U2, model.U3, params.eta) + params.reg.penalty(model.U3)


def _quadratic_loss(model: CpFactors, products: tuple, half_energy: float) -> float:
    """The loss from the U3 quadratic, 1/2 ||Y||^2 - sum_k b_k'u_k +
    1/2 sum_k u_k'C_k u_k (see :func:`_temporal_quadratic`, s = 1), given
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
# block updates


def update_left(model: CpFactors, data: SnapshotPair, params: Hyperparams,
                products: tuple) -> tuple[np.ndarray, BlockOutcome]:
    """Exact minimizer of the cost over U1 (R x R ridge-damped solve).

    The loss in U1 is 1/2 tr(U1 S U1') - tr(B' U1) + const with
    S = sum_k H_k H_k', B = sum_k Y_k H_k' and H_k = U2' X_k diag(U3[k]),
    so U1 solves U1 (S + I/eta) = B.  ``products`` is (X'U2, Y'U1) of
    ``model`` and ``data`` (:func:`_products`), which ``fit`` holds.
    Returns (new U1, the ``exact`` :class:`BlockOutcome`).
    """
    _check_dims(model, data)
    H = _scale_windows(products[0], model.U3)
    S = H.T @ H
    S.flat[::len(S) + 1] += 1.0 / params.eta
    return np.linalg.solve(S, (_transitions(data.Y).T @ H).T).T, _EXACT


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


def _right_rhs(model: CpFactors, data: SnapshotPair, products: tuple) -> np.ndarray:
    """B = sum_k X_k Y_k' U1 diag(U3[k]); ``products`` is (X'U2, Y'U1)."""
    return _transitions(data.X).T @ _scale_windows(products[1], model.U3)  # rows of Y_k' U1 diag(U3[k])


def _cg(operate, rhs: np.ndarray, x0: np.ndarray, image=None) -> tuple[np.ndarray, BlockOutcome]:
    """Conjugate gradients on operate(x) = rhs for a symmetric positive-definite
    ``operate``, warm-started at ``x0``; ``image`` is operate(x0) when the
    caller has it.

    Stops when the residual norm reaches max(``CG_TOL`` ||rhs||,
    ``CG_FORCING`` ||r0||) or after ``CG_MAX_STEPS`` steps.  The initial
    residual r0 = rhs - operate(x0) is minus the gradient of the quadratic
    1/2 x'Ax - rhs'x at ``x0``, so the forcing term asks each solve for a
    fixed fraction of the progress its own start leaves to make (the
    inexact-Newton rule of Eisenstat & Walker 1996), which costs nothing
    extra.  Every step lowers that quadratic, so the result is never worse
    than ``x0``.  Returns (x, :class:`BlockOutcome`): ``cg`` with the steps
    taken, the relative residual ||r|| / ||rhs|| of the last recurrence
    residual r, which costs no extra application of ``operate``, and the
    stop threshold over ||rhs|| as its tolerance (for a zero ``rhs``, a
    residual of 0 or inf and a tolerance of 0).  A CG may meet its threshold
    on its last allowed step, so only the residual says whether it did.

    The iteration runs at unit scale: ``rhs``, ``x0`` and ``image`` are
    divided by the power of two 2^e that brings max|rhs| into [1, 2) (e = 0
    for a zero or non-finite ``rhs``), and x is multiplied by 2^e on return.
    CG is homogeneous in (rhs, x0), a power-of-two scaling is exact, and the
    recorded residual and tolerance are ratios, so this changes no bit of a
    solve whose sums of squares fit in float64; far above the data scale it
    keeps them, and p'Ap, from overflowing.
    """
    peak = float(np.abs(rhs).max(initial=0.0))
    e = math.frexp(peak)[1] - 1 if 0.0 < peak < math.inf else 0
    rhs, x = np.ldexp(rhs, -e), np.ldexp(x0, -e, order="C")
    r = rhs - (operate(x) if image is None else np.ldexp(image, -e))
    p = r.copy()
    rs = float(np.vdot(r, r))
    rhs_square = float(np.vdot(rhs, rhs))
    threshold = max(CG_TOL * CG_TOL * rhs_square, CG_FORCING * CG_FORCING * rs)
    n_iters = 0
    while n_iters < CG_MAX_STEPS and rs > threshold:
        Ap = operate(p)
        alpha = rs / float(np.vdot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        rs, rs_old = float(np.vdot(r, r)), rs
        p *= rs / rs_old
        p += r
        n_iters += 1
    residual = math.sqrt(rs / rhs_square) if rhs_square else 0.0 if rs == 0.0 else math.inf
    return np.ldexp(x, e), BlockOutcome("cg", n_iters, residual, math.sqrt(threshold / rhs_square) if rhs_square else 0.0)


def update_right(model: CpFactors, data: SnapshotPair, params: Hyperparams,
                 products: tuple) -> tuple[np.ndarray, BlockOutcome]:
    """Minimizer of the cost over U2 by matrix-valued CG.

    The normal equations are the Sylvester-type system
    sum_k L_k U2 R_k + U2/eta = B with L_k = X_k X_k' and the weights R_k
    of :func:`_right_weights`.  CG, with L_k applied matrix-free,
    warm-starts from the current U2, so the quadratic objective (hence the
    cost) never increases, and stops once its residual is at most
    ``CG_FORCING`` times the initial one, the gradient of the cost over U2
    at the current U2, or ``CG_TOL`` times ||B||, whichever is larger, or
    after ``CG_MAX_STEPS`` steps (:func:`_cg`).  ``products`` is as in
    :func:`update_left`; X'U2 also serves CG's initial residual.  Returns
    (new U2, :class:`BlockOutcome`): ``cg`` with its steps, final relative
    residual ||B - K U2|| / ||B|| and stop threshold over ||B||, capped
    when the residual is above that threshold.
    """
    _check_dims(model, data)
    operate = partial(_right_operator, _right_weights(model), data, params.eta)
    return _cg(operate, _right_rhs(model, data, products), model.U2, operate(model.U2, products[0]))


def _temporal_quadratic(model: CpFactors, data: SnapshotPair, products: tuple) -> tuple[np.ndarray, np.ndarray, float]:
    """(C, b, s), the per-window quadratic data times s: C[k] = s (U2'X_k
    X_k'U2) * (U1'U1) (Hadamard) and b[k] = s diag(U2' X_k Y_k' U1), so the
    smooth loss in U3 is sum_k 1/2 u_k' C_k u_k - b_k' u_k + 1/2 ||Y||^2
    over s, with u_k = U3[k]; ``products`` is (X'U2, Y'U1).

    s is 1 unless m = max|X'U2| max|U1| is 2^129 or more.  Far above the
    data scale of 1, C, b and the products of three of them that a CG step
    forms can overflow where the factors do not, so there s is the power
    of two 2^(-2e) that takes m into [2^128, 2^129), applied as 2^(-e) to
    each product.  It is exact, and the U3 block problem times s (ridge
    and penalty included, see :func:`_temporal_hessian`) has the same
    minimizer."""
    shape = (-1, model.T, model.R)
    e = max(math.frexp(np.abs(products[0]).max(initial=0.0) * np.abs(model.U1).max(initial=0.0))[1] - 129, 0)
    G, F = (np.ldexp(P, -e) for P in products) if e else products
    G = G.reshape(shape).transpose(1, 0, 2)  # G[k] = X_k' U2
    F = F.reshape(shape).transpose(1, 0, 2)  # F[k] = Y_k' U1
    C = (G.transpose(0, 2, 1) @ G) * (model.U1.T @ model.U1)
    b = np.sum(G * F, axis=1)
    return C, b, math.ldexp(1.0, -2 * e)


def _temporal_hessian(C: np.ndarray, params: Hyperparams, scale: float) -> tuple[np.ndarray, float]:
    """(H, spline_beta): C, the quadratic data times ``scale`` (see
    :func:`_temporal_quadratic`), completed in place to the diagonal blocks
    H_k = C_k + (scale/eta + spline_beta d_k) I of ``scale`` times the
    Hessian of the smooth cost in U3, where spline_beta is scale * beta
    under an active spline penalty and 0 otherwise, and d is the diagonal of
    D'D: 1 at the two ends, 2 inside."""
    spline_beta = scale * params.reg.beta if _active_penalty(params, len(C)) == "spline" else 0.0
    diagonals = np.einsum("kii->ki", C)  # a writable view
    diagonals += scale / params.eta
    if spline_beta:
        diagonals[1:] += spline_beta
        diagonals[:-1] += spline_beta
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


def update_temporal(model: CpFactors, data: SnapshotPair, params: Hyperparams,
                    products: tuple) -> tuple[np.ndarray, BlockOutcome]:
    """Minimize the cost over U3; returns (new U3, :class:`BlockOutcome`).

    Without temporal smoothing (or with a single window, where no difference
    exists) the problem decouples into T exact R x R ridge solves with
    H_k = C_k + I/eta, an ``exact`` outcome.  The spline penalty couples
    the windows through the block-tridiagonal Hessian
    blockdiag(C_k + I/eta) + beta D'D kron I_R, solved by warm-started CG
    to the larger of ``CG_FORCING`` times its initial residual and
    ``CG_TOL`` ||b||, capped at ``CG_MAX_STEPS`` steps (:func:`_cg`), a
    ``cg`` outcome with the CG's relative residual ||b - H U3|| / ||b||
    and that threshold over ||b||.  Its diagonal blocks
    C_k + (1/eta + beta d_k) I, d the diagonal of D'D, are
    formed in place once per update (:func:`_temporal_hessian`), so each
    step applies it as one window-wise product and two shifted
    subtractions of beta times the neighbouring windows.  The TV penalty is
    minimized by :func:`_temporal_tv_sweeps`: a primal-dual active set
    that solves one face (fused segments, signs of the jumps) per step by
    a dense solve, from the face of the incoming U3, and ends on the face
    minimizer whose dual residual (:func:`_tv_dual_residual`) is at most
    ``SWEEP_TOL``, or the rounding of its running sums where that is larger
    (a weak beta, a large N, data far above scale): the block minimizer.
    Exact column sweeps by the weighted TV prox are its fallback, for faces
    too large to solve or a face iteration that does not certify.
    ``TV_MAX_STEPS`` caps the sweeps and the face solves of each face
    iteration.  Its outcome is ``face`` or ``sweeps``, by which iterate it
    returned, with the face solves plus the sweeps it ran, the dual residual
    of its U3, whichever stop it took, and the tolerance of that stop.
    ``products`` is as in :func:`update_left`.  Far above the data scale of
    1 each path solves the block problem times a power of two, which keeps
    it in the float64 range (:func:`_temporal_quadratic`).
    """
    _check_dims(model, data)
    C, b, scale = _temporal_quadratic(model, data, products)
    H, spline_beta = _temporal_hessian(C, params, scale)
    if spline_beta:
        return _cg(partial(_temporal_hessian_apply, H, spline_beta), b, model.U3)
    if _active_penalty(params, model.T) == "none":
        return np.linalg.solve(H, b[..., None])[..., 0], _EXACT
    return _temporal_tv_sweeps(H, b, model.U3, scale * params.reg.beta)


def _temporal_tv_sweeps(H, b, U3_init, beta):
    """Minimize sum_k 1/2 u_k' H_k u_k - b_k' u_k + beta TV(U3), with
    u_k = U3[k], over U3 by a primal-dual active set on faces, with cyclic
    column sweeps as the fallback.

    A face fuses some neighbouring entries of each column into segments and
    fixes the sign of every other pair, a jump; :func:`_face_solve`
    minimizes the objective on it exactly.  The face iteration (the
    primal-dual active-set strategy of Hintermueller, Ito & Kunisch 2002,
    on the fused-lasso face of Friedman et al. 2007) starts from the face of
    ``U3_init`` (:func:`_jump_signs`).
    Each step solves the face and forms the running sums z of the face
    minimizer once.  If no jump changed sign and the dual residual
    (:func:`_tv_dual_residual`) is at most its tolerance, the face minimizer
    is the block minimizer and the update returns it.  The tolerance is
    ``SWEEP_TOL``; a residual above it is measured against the rounding of
    z as well (:func:`_tv_rounding_tolerance`), which grows with the terms
    |H_k||u_k| + |b_k| that cancel in z while beta stays fixed, so that a
    weak beta, a large N or data far above scale certify like any other.
    Otherwise every jump that changed sign is fused, every fused pair with
    |z_k| > beta opens as a jump of sign z_k, and the next face is solved;
    where that exchange leads back to a face already solved, only the last
    violated pair changes (Murty's single pivot), which breaks the cycle.

    The column sweeps (:func:`_column_sweeps`, from ``U3_init`` on) are
    the fallback.  One sweep runs when the face iteration meets a face of
    more than ``FACE_MAX_SEGMENTS`` segments, spends ``TV_MAX_STEPS`` face
    solves, or finds nothing to exchange without certifying, and the face
    iteration then restarts from the sweep's face.  The sweeps stop once a
    sweep moves no entry by more than ``SWEEP_TOL * max|U3|``, or when the
    face iteration after sweep ``TV_MAX_STEPS`` does not certify.  The
    update then returns the last sweep iterate if its block objective
    (:func:`_tv_block_objective`) is lower than that of ``U3_init``, and
    ``U3_init`` otherwise: in exact arithmetic no sweep raises the
    objective, and the check keeps rounding from letting one do so.  So it
    returns the certified block minimizer, a sweep iterate that lowers the
    objective or ``U3_init``, and never raises the objective.

    Returns (U3, :class:`BlockOutcome`): ``face`` or ``sweeps``, by which
    iterate it is (``U3_init`` reads ``sweeps``), the face solves plus the
    sweeps run, the dual residual of U3 and as tolerance the one the face
    certified on, or ``SWEEP_TOL`` for ``sweeps``; capped when the residual
    is above it.
    """
    face_solves = 0
    for sweeps, (U, move) in enumerate(_column_sweeps(H, b, U3_init, beta)):
        if move <= SWEEP_TOL * np.abs(U).max():
            break
        signs = _jump_signs(U, np.diff(U, axis=0))
        seen = {signs.tobytes()}
        for _ in range(TV_MAX_STEPS):
            face = _face_solve(H, b, signs, beta)
            if face is None:
                break
            face_solves += 1
            z = _running_sums(H, b, face)
            differences = np.diff(face, axis=0)
            flipped = signs * differences < 0
            certificate = _tv_dual_residual(z, _jump_signs(face, differences), beta)
            tolerance = SWEEP_TOL if certificate <= SWEEP_TOL else _tv_rounding_tolerance(H, b, face, beta)
            if certificate <= tolerance and not flipped.any():
                return face, BlockOutcome("face", sweeps + face_solves, certificate, tolerance)
            violated = flipped | ((signs == 0) & (np.abs(z[:-1]) > beta))
            if not violated.any():
                break
            exchanged = np.where(signs, 0.0, np.sign(z[:-1]))
            if np.where(violated, exchanged, signs).tobytes() in seen:
                # the full exchange would cycle: exchange the last violated pair only
                violated.flat[np.flatnonzero(violated)[:-1]] = False
            signs = np.where(violated, exchanged, signs)
            seen.add(signs.tobytes())
        if sweeps == TV_MAX_STEPS:
            break
    if not _tv_block_objective(H, b, U, beta) < _tv_block_objective(H, b, U3_init, beta):
        U = U3_init
    residual = _tv_dual_residual(_running_sums(H, b, U), _jump_signs(U, np.diff(U, axis=0)), beta)
    return U, BlockOutcome("sweeps", sweeps + face_solves, residual, SWEEP_TOL)


def _tv_block_objective(H, b, U, beta) -> float:
    """The TV block objective sum_k 1/2 u_k' H_k u_k - b_k' u_k + beta TV(U),
    u_k = U[k]; NaN where its terms overflow to inf of both signs."""
    return float(np.vdot(U, 0.5 * (H @ U[:, :, None])[:, :, 0] - b)) + beta * tv_penalty(U)


def _column_sweeps(H, b, U, beta):
    """Cyclic exact minimization over the columns of U3 from U, yielding U
    and after each sweep the iterate, each with the largest move of an entry
    in the sweep that made it (inf for U).

    The TV term is a sum over columns and the quadratic is strictly convex,
    so cycling exact column minimizations converges to the block minimizer
    (Tseng 2001; Friedman et al. 2007, pathwise coordinate descent for the
    fused lasso) and no step raises the objective.  Column r given the
    others is the weighted TV prox of y_k = U[k, r] - G[k, r] / w_k with
    weights w_k = H_k[r, r] and G = H U - b, kept up to date after every
    column.
    """
    yield U, math.inf
    weights = H.diagonal(axis1=1, axis2=2)
    U = U.copy()
    gradient = (H @ U[:, :, None])[:, :, 0] - b
    while True:
        move = 0.0
        for r in range(U.shape[1]):
            w = weights[:, r:r + 1]
            step = tv_prox_columns(U[:, r:r + 1] - gradient[:, r:r + 1] / w, beta, w) - U[:, r:r + 1]
            U[:, r:r + 1] += step
            gradient += H[:, :, r] * step
            move = max(move, float(np.abs(step).max()))
        yield U.copy(), move


def _tv_rounding_tolerance(H, b, U, beta) -> float:
    """The dual residual over beta that rounding alone can leave at U:
    max(``SWEEP_TOL``, 16 eps sigma / beta), with sigma the largest column
    sum of |H_k||u_k| + |b_k|, the size of the terms that cancel in the
    running sums z (:func:`_running_sums`)."""
    sigma = float(((np.abs(H) @ np.abs(U)[:, :, None])[:, :, 0] + np.abs(b)).sum(axis=0).max())
    return max(SWEEP_TOL, float(16.0 * np.finfo(float).eps * sigma / beta))


def _running_sums(H, b, U) -> np.ndarray:
    """z, the cumulative sum of the gradient g_k = H_k u_k - b_k of the
    quadratic down each column."""
    return np.cumsum((H @ U[:, :, None])[:, :, 0] - b, axis=0)


def _jump_signs(U, differences) -> np.ndarray:
    """The face of U, given its ``differences`` np.diff(U, axis=0):
    sign(U[k+1] - U[k]) down each column, 0 on a fused pair, one whose
    entries are within ``SWEEP_TOL * max|U|``."""
    return np.where(np.abs(differences) > SWEEP_TOL * np.abs(U).max(), np.sign(differences), 0.0)


def _tv_dual_residual(z, signs, beta) -> float:
    """Largest violation of the optimality conditions of the TV block
    objective at U, over beta, given its running sums z
    (:func:`_running_sums`) and its face ``signs`` (:func:`_jump_signs`);
    0 exactly at its minimizer.

    U minimizes sum_k 1/2 u_k' H_k u_k - b_k' u_k + beta TV(U) exactly when
    in every column z[T-1] = 0, |z_k| <= beta on every fused pair of U's
    face and z_k = beta sign(U[k+1] - U[k]) on every other pair, a jump:
    z_k / beta is then a TV subgradient.
    """
    violations = np.where(signs != 0, np.abs(z[:-1] - beta * signs), np.abs(z[:-1]) - beta)
    return float(max(np.abs(z[-1]).max(), violations.max(initial=0.0)) / beta)


def _face_solve(H, b, signs, beta):
    """Minimizer of the TV block objective on the face ``signs``, or None
    for a face of more than ``FACE_MAX_SEGMENTS`` segments.

    signs[k, r] is 0 where U[k, r] and U[k+1, r] are fused into one segment
    and the sign of the jump U[k+1, r] - U[k, r] elsewhere.  On that face
    U = P s, with P mapping the S segment values to the T*R entries, and TV
    is linear, so the face minimizer solves the S x S SPD system
    (P'HP) s = P'(b - g) with g the TV gradient in s, assembled by
    ``bincount`` and solved densely.
    """
    T, R = b.shape
    jumps = signs != 0
    # segment ids numbered down each column in turn
    segment = np.cumsum(np.vstack([np.ones((1, R), dtype=bool), jumps]).T).reshape(R, T).T - 1
    S = int(segment[-1, -1]) + 1
    if S > FACE_MAX_SEGMENTS:
        return None
    pairs = segment[:, :, None] * S + segment[:, None, :]
    face_matrix = np.bincount(pairs.ravel(), H.ravel(), S * S).reshape(S, S)
    # signs is 0 on the fused pairs, which so add nothing to the TV gradient
    tv_gradient = np.bincount(segment[1:].ravel(), signs.ravel(), S) - np.bincount(segment[:-1].ravel(), signs.ravel(), S)
    rhs = np.bincount(segment.ravel(), b.ravel(), S) - beta * tv_gradient
    return np.linalg.solve(face_matrix, rhs)[segment]


# ---------------------------------------------------------------------------
# initialization and the outer loop


@dataclass(frozen=True)
class _RangeData:
    """A fit's workspace: the data in channels (``source``) and in the
    coordinates of the column spans of its tensors, X~ = Q_x'X and
    Y~ = Q_y'Y, with what the bases are made of, ``basis_x`` and
    ``basis_y`` (:func:`_range_coordinates`: None for the identity, else the
    B of Q = AB, A the (channels, M*T) matrix of the transitions, so Q is
    never formed).  It has the shape properties the block updates read and
    ``half_energy`` = 1/2 ||Y||^2 of the data in channels, which stays
    fixed during the fit and is formed when first asked for."""

    source: SnapshotPair
    X: np.ndarray
    basis_x: Optional[np.ndarray]
    Y: np.ndarray
    basis_y: Optional[np.ndarray]
    M = property(lambda self: self.source.M)
    T = property(lambda self: self.source.T)
    N = property(lambda self: self.Y.shape[0])
    N_in = property(lambda self: self.X.shape[0])
    half_energy = cached_property(lambda self: 0.5 * float(np.sum(self.source.Y * self.source.Y)))


@dataclass(frozen=True)
class _Iterate(_FactorShapes):
    """An iterate of :func:`fit`: the factor triple as plain arrays, with
    the shape properties of :class:`CpFactors` that the block updates read.
    Unlike :class:`CpFactors` it checks nothing; ``fit`` checks that every
    cost it takes is finite and returns a :class:`CpFactors`."""

    U1: np.ndarray
    U2: np.ndarray
    U3: np.ndarray


def _gram_eigenpairs(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) of a positive semidefinite Gram, V'gram V = diag(lam), the
    largest eigenvalue first.  Eigenvalues at or below side * eps * lam_max
    are dropped: the Gram's rounding leaves nothing of them.  The cut is
    taken in that order so that it cannot overflow, and an all-zero or
    empty Gram keeps no pair."""
    lam, V = np.linalg.eigh(gram)
    keep = lam > np.max(lam, initial=0.0) * (len(lam) * np.finfo(float).eps)
    return lam[keep][::-1], V[:, keep][:, ::-1]


def _range_coordinates(A: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(Q'A, B) for a (channels, M, T) data tensor, A also the (channels,
    M*T) matrix of its transitions (:func:`_transitions` is A'), with Q an
    orthonormal basis of the column space of A and Q = AB.

    When the transitions are at least as many as the channels, Q is the
    identity and B is None: Q'A is A itself, copied at most once into the
    layout :func:`_transitions` views without a copy.  Otherwise, with the
    (M*T)^2 Gram A'A = V diag(lam) V' (:func:`_gram_eigenpairs`),
    Q'A = diag(lam)^1/2 V' and B = V diag(lam)^-1/2, which is also
    pinv(Q'A)'s transitions; directions of A whose eigenvalue is cut have
    no rows, so Q'A has the numerical rank of A rows.  Q'A comes in the
    (M, T, rows) memory layout, which :func:`_transitions` views.
    """
    rows = _transitions(A)
    if rows.shape[1] <= rows.shape[0]:
        return np.ascontiguousarray(rows).reshape(*A.shape[1:], -1).transpose(2, 0, 1), None
    lam, V = _gram_eigenpairs(rows @ rows.T)
    return (V * np.sqrt(lam)).reshape(*A.shape[1:], len(lam)).transpose(2, 0, 1), V / np.sqrt(lam)


def _range_data(data: SnapshotPair) -> _RangeData:
    """The snapshot pair with its tensors in range coordinates."""
    return _RangeData(data, *_range_coordinates(data.X), *_range_coordinates(data.Y))


def _to_range(A: np.ndarray, basis: Optional[np.ndarray], Z: np.ndarray) -> np.ndarray:
    """Q'Z = B'(A'Z) for the basis Q = AB of :func:`_range_coordinates` (B = ``basis``)."""
    return Z if basis is None else basis.T @ (_transitions(A) @ Z)


def _to_channels(A: np.ndarray, basis: Optional[np.ndarray], U: np.ndarray) -> np.ndarray:
    """QU = A(BU) for the basis Q = AB of :func:`_range_coordinates` (B = ``basis``)."""
    return U if basis is None else _transitions(A).T @ (basis @ U)


def _change_spatial_basis(model: CpFactors, work: _RangeData) -> CpFactors:
    """The model lifted from range coordinates to the channels of the data:
    U1 -> Q_y U1 and U2 -> Q_x U2."""
    return CpFactors(U1=_to_channels(work.source.Y, work.basis_y, model.U1),
                     U2=_to_channels(work.source.X, work.basis_x, model.U2), U3=model.U3, affine=work.source.affine)


def _spectral_factors(data: _RangeData, R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free (U1, U2, U3) from a single global linear fit.

    All windows are concatenated into global snapshot matrices X~ and Y~ of
    the range data, and the leading R singular pairs of the one-model fit
    A = Y~ pinv(X~) seed the spatial modes.  X~ has at most T*M rows, so A
    is at most T*M x T*M.  pinv(X~) is the B of a thin basis
    (:func:`_range_coordinates`) and comes from one eigendecomposition of
    X~X~' otherwise; the singular pairs of A come from one
    eigendecomposition of its smaller Gram (:func:`_gram_eigenpairs`), taken
    of A divided by a power of two where max|A| is 2^256 or more, which keeps
    the Gram in the float64 range and changes no singular vector.
    Temporal modes are the constant matrix 1/sqrt(T).  Columns beyond the
    pairs with a singular value above the Gram's cut, zero ones included,
    are filled with constant unit vectors.
    """
    X, Y = _transitions(data.X), _transitions(data.Y)
    if not np.any(X):
        raise DegenerateDataError("predictor tensor is identically zero")
    pinv = data.basis_x
    if pinv is None:
        lam, W = _gram_eigenpairs(X.T @ X)
        pinv = X @ (W / lam) @ W.T
    A = Y.T @ pinv
    wide = len(A) <= A.shape[1]
    B = A if wide else A.T  # B B' is the smaller Gram of A
    # scaled only where B B' would overflow: a scaled copy of A.T changes the start's bits
    e = max(math.frexp(np.abs(B).max(initial=0.0))[1] - 256, 0)
    B = np.ldexp(B, -e) if e else B
    s2, left = _gram_eigenpairs(B @ B.T)
    pairs = (left, B.T @ left / np.sqrt(s2))  # the singular pairs of B

    U1, U2, U3 = (np.full((n, R), 1.0 / np.sqrt(max(n, 1))) for n in (data.N, data.N_in, data.T))
    take = min(R, len(s2))
    U1[:, :take], U2[:, :take] = (P[:, :take] for P in (pairs if wide else pairs[::-1]))
    return U1, U2, U3


def initialize(data, params: Hyperparams) -> CpFactors:
    """The model ``fit`` starts from: the spectral factors of the data in
    range coordinates (:func:`_spectral_factors`) plus Gaussian noise of
    scale 0.5/sqrt(rows), drawn from ``params.seed`` in the channel shapes
    (N, R), (N_in, R) and (T, R) in that order and projected onto the bases
    (:func:`_to_range`, no Q formed), which breaks the column symmetry.  ``fit``
    passes its range data (:func:`_range_data`) and gets the model in its
    coordinates; a :class:`SnapshotPair` gets it lifted to the channels.
    """
    work = data if isinstance(data, _RangeData) else _range_data(data)
    U1, U2, U3 = _spectral_factors(work, params.R)
    rng = np.random.default_rng(params.seed)
    noise = [(0.5 / np.sqrt(n)) * rng.standard_normal((n, params.R)) for n in (work.source.N, work.source.N_in, work.T)]
    model = CpFactors(U1=U1 + _to_range(work.source.Y, work.basis_y, noise[0]),
                      U2=U2 + _to_range(work.source.X, work.basis_x, noise[1]), U3=U3 + noise[2])
    return model if work is data else _change_spatial_basis(model, work)


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

    ||X||^2, ||Y||^2, (1/eta)^2 and, with an active spline or TV penalty,
    (4 beta)^2 set the scale of every quantity the fit forms; zero data is
    left to :func:`_spectral_factors`.  log2 (4 beta)^2 is taken as
    2 (2 + log2 beta), which stays finite where 4 beta overflows.
    """
    scales = {"||X||^2": _log2_square_norm(data.X), "||Y||^2": _log2_square_norm(data.Y),
              "(1/eta)^2": -2.0 * math.log2(params.eta)}
    if _active_penalty(params, data.T) != "none":
        scales["(4 beta)^2"] = 2.0 * (2.0 + math.log2(params.reg.beta))
    low, high = _LOG2_NORMAL_RANGE
    for name, log2_value in scales.items():
        if log2_value != -math.inf and not low <= log2_value < high:
            raise ExtremeScaleError(
                f"{name} = 2^{log2_value:.0f} is outside the float64 range [2^{low:.0f}, 2^{high:.0f}); "
                "rescale the series (lrtvar.standardize) and eta and beta with it"
            )


def _live_components(model: CpFactors) -> np.ndarray:
    """Whether each component's weight ||U1_r|| ||U2_r|| ||U3_r|| is above
    float64 eps times the largest.

    The sweeps collapse an unused component towards zero faster than
    geometrically, through subnormal sizes where its products with the data
    run several times slower, and an extrapolation step would overshoot it
    and hold it near its previous size; so ``fit`` sets the other
    components to exact zeros, a fixed point of every update.  A NaN weight
    is not above, so ``fit`` applies the rule only to an iterate whose cost
    it has found finite.
    """
    weights = np.prod([np.linalg.norm(U, axis=0) for U in (model.U1, model.U2, model.U3)], axis=0)
    return weights > np.finfo(float).eps * weights.max()


def _extrapolate(new: tuple, old: tuple, steps: np.ndarray) -> tuple:
    """new + steps * (new - old) for each pair of (rows, R) arrays, column r
    moving by steps[r]."""
    return tuple(a + steps * (a - b) for a, b in zip(new, old))


def _finite_cost(value: float, model: _Iterate, it: int) -> float:
    """``value``, the cost of ``model`` at outer iteration ``it``, once it is
    finite; the ridge term makes it non-finite whenever a factor entry is,
    and then :class:`NonFiniteError` names the factors that are."""
    if not math.isfinite(value):
        names = [name for name in ("U1", "U2", "U3") if not np.isfinite(getattr(model, name)).all()]
        verb = "contains" if len(names) == 1 else "contain"
        raise NonFiniteError(f"outer iteration {it}: " + (f"{' and '.join(names)} {verb} non-finite entries"
                                                           if names else f"the cost is {value}"))
    return value


def fit(data: SnapshotPair, params: Hyperparams) -> tuple[CpFactors, FitReport]:
    """Alternating block minimization of the regularized cost, with an
    extrapolation trial after every sweep.

    Each outer iteration ``it`` runs one U1 -> U2 -> U3 sweep from the
    iterate U_prev to U, then tries U + it^(1/p) (U - U_prev) on all three
    factors at once (R. Bro, Multi-way Analysis in the Food Industry, 1998)
    and keeps the trial only if its cost, penalty included, is strictly
    lower than the sweep's; a rejection raises p by one.  p starts at
    ``EXTRAPOLATION_ROOT`` and stops at ``EXTRAPOLATION_MAX_ROOT``.
    Before the trial, once the sweep's cost has proved its iterate finite,
    every component whose weight ||U1_r|| ||U2_r|| ||U3_r|| is at most
    float64 eps times the largest is set to exact zeros in the factors and
    in the products, which the trial keeps; the sweep's cost is then that
    of the zeroed iterate (:func:`_live_components`).  The iteration then
    records the cost and prediction error of the iterate it kept, and the
    fit stops when the cost decrease falls below ``rtol`` times the
    previous cost or ``atol`` times the initial cost, or at the iteration
    cap.  Each outer iteration
    logs one INFO line on the ``lrtvar.solver`` logger, and a WARNING when
    it raised the cost by more than ``MONOTONE_SLACK`` times
    1 + |previous cost|.  Data or hyperparameters whose squares float64
    cannot carry raise :class:`ExtremeScaleError` before any update.

    The fit forms X'U2 and Y'U1 once per factor value and passes them to
    the block updates, and it takes the loss of the sweep and of the trial
    from the U3 quadratic (:func:`_quadratic_loss`) on products it already
    holds: those of the trial are the same extrapolation of the sweep's.  An
    outer iteration so makes four data contractions besides the U2 CG's one
    per step: the right-hand sides of the U1 and U2 updates, and Y'U1 and
    X'U2 of the new U1 and U2.  What stays fixed is formed once per fit in
    its workspace (:class:`_RangeData`): the range data and 1/2 ||Y||^2.
    The iterate is carried as plain arrays (:class:`_Iterate`) and
    validated once, as the returned :class:`CpFactors`; each outer
    iteration checks instead that the cost of its sweep is finite, and
    raises :class:`NonFiniteError` when it is not.  A trial whose cost is
    inf or NaN is not lower, so it is rejected.

    The fit runs in orthonormal bases Q_x of range(X) and Q_y of range(Y):
    the identity when the transitions are at least as many as the channels,
    else from one eigendecomposition of the (T*M)^2 Gram of the transitions
    (:func:`_range_coordinates`), the fit's only factorizations of the data.
    It initializes on Q_x'X and Q_y'Y (:func:`initialize`), runs every update
    on them and returns U2 = Q_x U2~ and U1 = Q_y U1~, each formed as a
    product with the data (no Q is).  Every trace entry is the full-data cost
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
    products = _products(model, work)
    value = _quadratic_loss(model, products, work.half_energy)
    cost_trace = [value + _regularization(model, params)]
    rmse_trace = [_rmse_from_loss(value, data)]
    outer = []
    root = EXTRAPOLATION_ROOT

    for it in range(1, params.max_outer_iters + 1):
        start, start_products = model, products
        laps = [time.perf_counter()]
        U1, left = update_left(model, work, params, products)
        model = _Iterate(U1, model.U2, model.U3)
        products = (products[0], _transitions(work.Y) @ U1)
        laps.append(time.perf_counter())
        U2, right = update_right(model, work, params, products)
        model = _Iterate(model.U1, U2, model.U3)
        products = (_transitions(work.X) @ U2, products[1])
        laps.append(time.perf_counter())
        U3, temporal = update_temporal(model, work, params, products)
        model = _Iterate(model.U1, model.U2, U3)
        laps.append(time.perf_counter())

        value = _quadratic_loss(model, products, work.half_energy)
        c = _finite_cost(value + _regularization(model, params), model, it)
        live = _live_components(model)
        # a component once zeroed stays zero, so only a newly collapsed one needs work
        if any(U[:, ~live].any() for U in (model.U1, model.U2, model.U3)):
            model = _Iterate(*(np.where(live, U, 0.0) for U in (model.U1, model.U2, model.U3)))
            products = tuple(np.where(live, P, 0.0) for P in products)
            value = _quadratic_loss(model, products, work.half_energy)
            c = value + _regularization(model, params)
        steps = np.where(live, it ** (1.0 / root), 0.0)
        trial = _Iterate(*_extrapolate((model.U1, model.U2, model.U3), (start.U1, start.U2, start.U3), steps))
        trial_products = _extrapolate(products, start_products, steps)
        trial_value = _quadratic_loss(trial, trial_products, work.half_energy)
        trial_cost = trial_value + _regularization(trial, params)
        extrapolated = trial_cost < c  # False for an inf or NaN trial cost
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
            model = _change_spatial_basis(model, work)
            value = loss(model, data)
            c = value + _regularization(model, params)
        laps.append(time.perf_counter())

        cost_trace.append(c)
        rmse_trace.append(_rmse_from_loss(value, data))
        record = OuterIteration(left, right, temporal, extrapolated, max(0.0, c - prev_cost) / (1.0 + abs(prev_cost)),
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
        termination=termination,
        wall_seconds=time.perf_counter() - t_start,
        outer=outer,
    )
    return model, report

import itertools
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lrtvar.cp_model import CpFactors
from lrtvar.errors import (
    DegenerateDataError,
    DimensionMismatchError,
    ExtremeScaleError,
    InvalidHyperparameterError,
    LrtvarError,
    NonFiniteError,
)
import lrtvar.regularizers
import lrtvar.solver
from lrtvar.regularizers import Regularizer, tv_prox_columns
from lrtvar.solver import (
    CG_FORCING,
    CG_MAX_STEPS,
    CG_TOL,
    MONOTONE_SLACK,
    SWEEP_TOL,
    TV_MAX_STEPS,
    BlockOutcome,
    Hyperparams,
    OuterIteration,
    cost,
    fit,
    initialize,
    loss,
    rmse,
    update_left,
    update_right,
    update_temporal,
    _cg,
    _face_solve,
    _jump_signs,
    _products,
    _quadratic_loss,
    _range_coordinates,
    _range_data,
    _right_operator,
    _right_rhs,
    _right_weights,
    _running_sums,
    _spectral_factors,
    _temporal_hessian,
    _temporal_hessian_apply,
    _temporal_quadratic,
    _temporal_tv_sweeps,
    _to_channels,
    _to_range,
    _transitions,
    _tv_dual_residual,
)
from lrtvar.evaluation import model_estimate, operator_norm_error
from lrtvar.synthetic import simulate_smooth, simulate_switching
from lrtvar.windowing import SnapshotPair, TimeSeries, build_snapshots

from oracles import (
    dense_diff_matrix,
    dense_gradients,
    fd_gradient,
    kron_oracle_right,
    kron_system_right,
    temporal_dense_oracle,
    tight_cg,
)


def random_model(rng, N, N_in, T, R):
    return CpFactors(
        U1=rng.standard_normal((N, R)),
        U2=rng.standard_normal((N_in, R)),
        U3=rng.standard_normal((T, R)),
    )


def random_data(rng, N, M, T, N_in=None):
    N_in = N if N_in is None else N_in
    return SnapshotPair(
        X=rng.standard_normal((N_in, M, T)),
        Y=rng.standard_normal((N, M, T)),
        affine=N_in == N + 1,
    )


def exact_data(rng, model, M):
    """SnapshotPair whose targets are generated exactly by the model."""
    X = rng.standard_normal((model.N_in, M, model.T))
    Y = np.stack([model.slice(k) @ X[:, :, k] for k in range(model.T)], axis=2)
    return SnapshotPair(X=X, Y=Y)


def loss_entrywise(model, data):
    total = 0.0
    for k in range(data.T):
        A = model.slice(k)
        for j in range(data.M):
            for i in range(data.N):
                pred = float(A[i] @ data.X[:, j, k])
                total += (data.Y[i, j, k] - pred) ** 2
    return 0.5 * total


def ridge(model, eta):
    """(1/2eta) (||U1||_F^2 + ||U2||_F^2 + ||U3||_F^2), entry by entry."""
    return sum(float(np.sum(U * U)) for U in (model.U1, model.U2, model.U3)) / (2.0 * eta)


def smooth_cost(model, data, params):
    """Loss + ridge + spline part (the smooth piece the gradients refer to)."""
    from lrtvar.regularizers import spline_penalty

    value = loss(model, data) + ridge(model, params.eta)
    if params.reg.kind == "spline":
        value += params.reg.beta * spline_penalty(model.U3)
    return value


class TestLoss:
    def test_zero_model_zero_data(self):
        model = CpFactors(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((3, 1)))
        data = SnapshotPair(X=np.ones((2, 4, 3)), Y=np.zeros((2, 4, 3)))
        assert loss(model, data) == 0.0

    def test_exact_model_zero_loss(self):
        rng = np.random.default_rng(40)
        model = random_model(rng, 3, 3, 4, 2)
        data = exact_data(rng, model, M=5)
        assert loss(model, data) <= 1e-18 * (1 + np.sum(data.Y**2))

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, 3, 4, 3, 2)
        data = random_data(rng, 3, 5, 3, N_in=4)
        assert loss(model, data) == pytest.approx(loss_entrywise(model, data), rel=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 3, 3, 4, 2)
        data = random_data(rng, 3, 5, 5)
        with pytest.raises(DimensionMismatchError):
            loss(model, data)

    def test_rmse_identity(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, 4, 4, 3, 2)
        data = random_data(rng, 4, 6, 3)
        assert rmse(model, data) ** 2 * (4 * 6 * 3) == pytest.approx(2 * loss(model, data), rel=1e-12)

    def test_rmse_zero_for_exact_model(self):
        rng = np.random.default_rng(44)
        model = random_model(rng, 3, 3, 3, 2)
        data = exact_data(rng, model, M=4)
        assert rmse(model, data) <= 1e-9


class TestCost:
    def test_recomposition(self):
        from lrtvar.regularizers import tv_penalty

        rng = np.random.default_rng(45)
        model = random_model(rng, 3, 3, 5, 2)
        data = random_data(rng, 3, 4, 5)
        params = Hyperparams(R=2, eta=0.7, reg=Regularizer("tv", 1.3))
        expected = loss(model, data) + ridge(model, 0.7) + 1.3 * tv_penalty(model.U3)
        assert cost(model, data, params) == pytest.approx(expected, rel=1e-12)

    def test_beta_linearity(self):
        rng = np.random.default_rng(46)
        model = random_model(rng, 3, 3, 5, 2)
        data = random_data(rng, 3, 4, 5)
        p1 = Hyperparams(R=2, eta=0.7, reg=Regularizer("spline", 1.0))
        p2 = Hyperparams(R=2, eta=0.7, reg=Regularizer("spline", 2.0))
        base = loss(model, data) + cost(model, data, Hyperparams(R=2, eta=0.7)) - loss(model, data)
        gap1 = cost(model, data, p1) - base
        gap2 = cost(model, data, p2) - base
        assert gap2 == pytest.approx(2 * gap1, rel=1e-12)


class TestUpdateLeft:
    def test_exact_data_fixed_point(self):
        rng = np.random.default_rng(47)
        model = random_model(rng, 4, 4, 5, 2)
        data = exact_data(rng, model, M=8)
        perturbed = CpFactors(rng.standard_normal((4, 2)), model.U2, model.U3)
        U1_new, _ = update_left(perturbed, data, Hyperparams(R=2, eta=1e12), _products(perturbed, data))
        assert np.allclose(U1_new, model.U1, atol=1e-5)

    def test_never_increases_cost(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            model = random_model(rng, 4, 4, 3, 2)
            data = random_data(rng, 4, 5, 3)
            params = Hyperparams(R=2, eta=0.5)
            before = cost(model, data, params)
            model2 = CpFactors(update_left(model, data, params, _products(model, data))[0], model.U2, model.U3)
            assert cost(model2, data, params) <= before + 1e-12 * (1 + before)

    def test_fd_gradient_vanishes_at_update(self):
        rng = np.random.default_rng(49)
        model = random_model(rng, 4, 4, 3, 2)
        data = random_data(rng, 4, 6, 3)
        params = Hyperparams(R=2, eta=0.8)
        model = CpFactors(update_left(model, data, params, _products(model, data))[0], model.U2, model.U3)
        g = fd_gradient(lambda: smooth_cost(model, data, params), model.U1)
        assert np.linalg.norm(g) <= 1e-8


def temporal_window_matrix(model, data, k):
    """C_k = (U2'X_k X_k'U2) * (U1'U1), the loss Hessian of window k in U3."""
    Gk = model.U2.T @ data.X[:, :, k]
    return (Gk @ Gk.T) * (model.U1.T @ model.U1)


def spline_dense_oracle(model, data, eta, beta):
    """Dense solve of blockdiag(C_k + I/eta) + beta (D'D kron I_R) for the
    spline-smoothed U3, with U3 vectorized row by row (window-major)."""
    A, rhs = spline_dense_system(model, data, eta, beta)
    return np.linalg.solve(A, rhs).reshape(model.T, model.R)


def spline_dense_system(model, data, eta, beta):
    """The dense (A, rhs) of the spline-smoothed U3 system that
    :func:`spline_dense_oracle` solves."""
    T, R = model.T, model.R
    A = np.zeros((T * R, T * R))
    rhs = np.zeros(T * R)
    for k in range(T):
        block = slice(k * R, (k + 1) * R)
        A[block, block] = temporal_window_matrix(model, data, k) + np.eye(R) / eta
        rhs[block] = np.diag(model.U2.T @ data.X[:, :, k] @ data.Y[:, :, k].T @ model.U1)
    D = dense_diff_matrix(T)
    A += beta * np.kron(D.T @ D, np.eye(R))
    return A, rhs


def small_right_problems():
    rng = np.random.default_rng(50)
    for _ in range(20):
        N = int(rng.integers(2, 9))
        R = int(rng.integers(1, 4))
        T = int(rng.integers(2, 5))
        M = int(rng.integers(2, 7))
        yield random_model(rng, N, N, T, R), random_data(rng, N, M, T)


class TestUpdateRight:
    def test_matches_kronecker_oracle(self, monkeypatch):
        # the CG run to 1e-13 of ||B|| with no forcing term
        tight_cg(monkeypatch, 200)
        for model, data in small_right_problems():
            ref = kron_oracle_right(model, data, eta=0.5)
            out, outcome = update_right(model, data, Hyperparams(R=model.R, eta=0.5), _products(model, data))
            assert outcome.method == "cg" and outcome.steps > 0 and not outcome.capped
            assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref), (model.N, model.R, model.T, data.M)

    def test_cg_matches_kronecker_oracle(self):
        # at the default cap, tolerance and forcing term: the residual the CG
        # records is that of the Kronecker system at the U2 it returns, and
        # it meets the CG's threshold
        for model, data in small_right_problems():
            A, b = kron_system_right(model, data, eta=0.5)
            out, outcome = update_right(model, data, Hyperparams(R=model.R, eta=0.5), _products(model, data))
            residual = np.linalg.norm(b - A @ out.flatten(order="F")) / np.linalg.norm(b)
            assert outcome.method == "cg" and outcome.steps > 0 and not outcome.capped
            assert outcome.residual == pytest.approx(residual, rel=1e-6), (model.N, model.R, model.T, data.M)

    @pytest.mark.parametrize(
        "name, rows, R",
        [("switching", 10, 8), ("smooth", 10, 4), ("large_n", 200, 4), ("cli-fit", 200, 8), ("cli-compare", 200, 4)],
    )
    def test_benchmark_u2_cgs_stop_below_the_cap(self, name, rows, R):
        # the benchmark's fits in range coordinates; the cli workload fits N=200
        # at rank 8 and compares at rank 4
        data, params = cli_setting(name) if name.startswith("cli") else benchmark_setting(name)
        assert (_range_data(data).N_in, params.R) == (rows, R)
        _, report = fit(data, params)
        outcomes = [o.right for o in report.outer]
        assert all(o.method == "cg" and not o.capped and 0 < o.steps < CG_MAX_STEPS for o in outcomes), outcomes

    def test_never_increases_cost_beyond_slack(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            model = random_model(rng, 5, 5, 3, 2)
            data = random_data(rng, 5, 4, 3)
            params = Hyperparams(R=2, eta=0.5)
            before = cost(model, data, params)
            U2, _ = update_right(model, data, params, _products(model, data))
            model2 = CpFactors(model.U1, U2, model.U3)
            after = cost(model2, data, params)
            assert after <= before + 1e-8 * (1 + abs(before))

    def test_capped_cg_never_increases_cost(self, monkeypatch):
        # CG warm-starts from the current U2, so even two steps cannot raise the cost
        monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", 2)
        rng = np.random.default_rng(51)
        for _ in range(10):
            model = random_model(rng, 5, 5, 3, 2)
            data = random_data(rng, 5, 4, 3)
            params = Hyperparams(R=2, eta=0.5)
            before = cost(model, data, params)
            U2, outcome = update_right(model, data, params, _products(model, data))
            assert outcome.steps == 2
            assert cost(CpFactors(model.U1, U2, model.U3), data, params) <= before + 1e-8 * (1 + abs(before))

    def test_cg_meeting_tol_on_its_last_allowed_step_is_not_capped(self, monkeypatch):
        # three channels at rank 2 make the U2 system 6 x 6: CG meets its
        # forcing threshold 0.1 ||r0|| on its third step, and one step fewer
        # leaves it above; with the forcing pinned to 0 it meets CG_TOL on
        # its sixth step, and one step fewer leaves it above
        rng = np.random.default_rng(0)
        model, data = random_model(rng, 3, 3, 4, 2), random_data(rng, 3, 5, 4)
        params, products = Hyperparams(R=2, eta=0.5), _products(model, data)
        rhs = _right_rhs(model, data, products)
        initial = rhs - _right_operator(_right_weights(model), data, params.eta, model.U2)
        for forcing, steps in ((CG_FORCING, 3), (0.0, 6)):
            tolerance = max(CG_TOL, forcing * np.linalg.norm(initial) / np.linalg.norm(rhs))
            monkeypatch.setattr(lrtvar.solver, "CG_FORCING", forcing)
            monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", steps)
            _, outcome = update_right(model, data, params, products)
            assert outcome.tolerance == pytest.approx(tolerance, rel=1e-12)
            assert outcome.steps == steps and outcome.residual <= outcome.tolerance and not outcome.capped
            monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", steps - 1)
            _, outcome = update_right(model, data, params, products)
            assert outcome.steps == steps - 1 and outcome.residual > outcome.tolerance and outcome.capped

    def test_exact_data_fixed_point(self, monkeypatch):
        tight_cg(monkeypatch, 100)
        rng = np.random.default_rng(52)
        model = random_model(rng, 4, 4, 4, 2)
        data = exact_data(rng, model, M=8)
        perturbed = CpFactors(model.U1, model.U2 + 0.3 * rng.standard_normal((4, 2)), model.U3)
        U2_new, _ = update_right(perturbed, data, Hyperparams(R=2, eta=1e12), _products(perturbed, data))
        assert np.allclose(U2_new, model.U2, atol=1e-4)


def textbook_cg(A, b, x0, max_iters, tol, forcing):
    """Conjugate gradients on A x = b as textbooks write it (vectors, norms),
    stopped at max(tol ||b||, forcing ||r0||)."""
    x, r = x0.copy(), b - A @ x0
    p, k = r.copy(), 0
    stop = max(tol * np.linalg.norm(b), forcing * np.linalg.norm(r))
    while k < max_iters and np.linalg.norm(r) > stop:
        Ap = A @ p
        alpha = (r @ r) / (p @ Ap)
        x = x + alpha * p
        r_new = r - alpha * Ap
        p = r_new + ((r_new @ r_new) / (r @ r)) * p
        r, k = r_new, k + 1
    return x, k


class TestConjugateGradients:
    def spd_system(self):
        rng = np.random.default_rng(120)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = (Q * np.logspace(0, 3, 30)) @ Q.T
        return A, rng.standard_normal(30), rng.standard_normal(30)

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-9, 1e-13])
    @pytest.mark.parametrize("max_iters", [1, 5, 20, 200])
    def test_matches_textbook_cg(self, tol, max_iters, monkeypatch):
        # the same steps and stop, on (15, 2) matrices as the block updates
        # pass them, with no forcing term and with two
        A, b, x0 = self.spd_system()
        operate = lambda U: (A @ U.ravel()).reshape(U.shape)
        monkeypatch.setattr(lrtvar.solver, "CG_TOL", tol)
        monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", max_iters)
        for forcing in (0.0, 0.1, 0.01):
            monkeypatch.setattr(lrtvar.solver, "CG_FORCING", forcing)
            x, outcome = _cg(operate, b.reshape(15, 2), x0.reshape(15, 2))
            ref, ref_iters = textbook_cg(A, b, x0, max_iters, tol, forcing)
            assert outcome.steps == ref_iters
            assert np.linalg.norm(x.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)
            image = operate(x0.reshape(15, 2))
            x_image, outcome_image = _cg(operate, b.reshape(15, 2), x0.reshape(15, 2), image)
            assert outcome_image == outcome and np.array_equal(x_image, x)

    def test_stops_at_tolerance_and_cap(self, monkeypatch):
        # the tolerance is the larger of CG_TOL and the forcing term over ||b||
        A, b, x0 = self.spd_system()
        for forcing in (CG_FORCING, 0.0):
            tolerance = max(CG_TOL, forcing * np.linalg.norm(b - A @ x0) / np.linalg.norm(b))
            monkeypatch.setattr(lrtvar.solver, "CG_FORCING", forcing)
            monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", 1000)
            _, outcome = _cg(lambda x: A @ x, b, x0)
            converged = outcome.steps
            assert 0 < converged < 1000 and outcome.tolerance == pytest.approx(tolerance, rel=1e-12)
            assert outcome.residual <= outcome.tolerance and not outcome.capped
            monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", converged - 1)
            _, outcome = _cg(lambda x: A @ x, b, x0)
            assert outcome.steps == converged - 1 and outcome.capped

    def test_zero_rhs_and_start_take_no_step(self):
        A, _, x0 = self.spd_system()
        x, outcome = _cg(lambda x: A @ x, np.zeros(30), np.zeros(30))
        assert (outcome.steps, outcome.residual, outcome.tolerance, outcome.capped) == (0, 0.0, 0.0, False)
        assert not np.any(x)
        # from another start no relative residual is met: inf against a tolerance of 0
        _, outcome = _cg(lambda x: A @ x, np.zeros(30), x0)
        assert (outcome.residual, outcome.tolerance, outcome.capped) == (math.inf, 0.0, True)

    def test_overflowing_sums_read_capped(self):
        # an operator that returns NaN: the initial residual is NaN, so the
        # CG takes no step, returns its start and reads capped
        A, b, x0 = self.spd_system()
        x, outcome = _cg(lambda x: np.full_like(x, np.nan), b, x0)
        assert outcome.steps == 0 and math.isnan(outcome.residual) and outcome.capped
        assert np.array_equal(x, x0)

    @pytest.mark.parametrize("k", [100, 250, 500, 1000, -500, -1000])
    def test_runs_at_unit_scale(self, k):
        # the system times 2^k solves to the same steps and 2^k times the
        # same x, bit for bit; at 2^1000 ||b||^2 once overflowed, and at
        # 2^-1000 it underflowed
        A, b, x0 = self.spd_system()
        x, outcome = _cg(lambda x: A @ x, b, x0)
        scaled_x, scaled = _cg(lambda x: A @ x, np.ldexp(b, k), np.ldexp(x0, k))
        assert scaled == outcome and not scaled.capped
        assert np.array_equal(scaled_x, np.ldexp(x, k))


def cli_setting(name, seed=0):
    """The two low-rank fits of the cli benchmark: ``fit`` at rank 8 and
    ``compare``'s lowrank-r4, on the N=200 switching series."""
    data = build_snapshots(simulate_switching(N=200, tau=200, sigma=0.5, seed=seed).series, M=20)
    R, beta, iterations = (8, 5.0, 30) if name == "cli-fit" else (4, 1.0, 60)
    return data, Hyperparams(R=R, eta=1.0 / 200, reg=Regularizer("tv", beta), max_outer_iters=iterations,
                             rtol=0.0, atol=0.0, seed=seed)


class TestForcingTerm:
    """Each CG stops at max(CG_TOL ||b||, CG_FORCING ||r0||), r0 the residual
    of its warm start, and records that threshold over ||b|| as its
    tolerance: capped means above it, NaN included."""

    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_non_finite_residual_reads_capped(self, residual):
        for tolerance in (CG_TOL, 0.0, math.nan):
            outcome = BlockOutcome("cg", 0, residual, tolerance)
            assert outcome.capped and str(outcome).endswith("/capped")

    @pytest.mark.parametrize("forcing", [0.1, 0.01])
    def test_forced_cg_never_raises_the_cost(self, forcing, monkeypatch):
        monkeypatch.setattr(lrtvar.solver, "CG_FORCING", forcing)
        rng = np.random.default_rng(53)
        for _ in range(10):
            model = random_model(rng, 6, 6, 4, 3)
            data = random_data(rng, 6, 4, 4)
            params = Hyperparams(R=3, eta=0.5)
            before = cost(model, data, params)
            U2, outcome = update_right(model, data, params, _products(model, data))
            assert outcome.steps > 0 and outcome.residual <= outcome.tolerance and not outcome.capped
            assert cost(CpFactors(model.U1, U2, model.U3), data, params) <= before + 1e-12 * (1 + abs(before))

    @pytest.mark.parametrize("name, seed", [("large_n", s) for s in range(4)] + [("cli-fit", 0), ("cli-compare", 0)])
    def test_final_cost_is_that_of_exact_block_solves(self, name, seed, monkeypatch):
        # every U2 CG meets its forcing threshold, and the fit ends within
        # 2e-5 relative of the one whose CGs run to CG_TOL (1.1e-5 at most here)
        data, params = benchmark_setting(name, seed) if name == "large_n" else cli_setting(name, seed)
        _, report = fit(data, params)
        assert all(o.right.method == "cg" and not o.right.capped for o in report.outer)
        monkeypatch.setattr(lrtvar.solver, "CG_FORCING", 0.0)
        _, exact = fit(data, params)
        assert report.cost_trace[-1] == pytest.approx(exact.cost_trace[-1], rel=2e-5)


class TestSplineHessian:
    @pytest.mark.parametrize("T", [2, 3, 160])
    @pytest.mark.parametrize("R", [1, 4])
    def test_banded_apply_matches_dense_hessian(self, T, R):
        rng = np.random.default_rng(121 + T + R)
        model = random_model(rng, 5, 5, T, R)
        data = random_data(rng, 5, 3, T)
        params = Hyperparams(R=R, eta=0.7, reg=Regularizer("spline", 2.5))
        A, _ = spline_dense_system(model, data, eta=0.7, beta=2.5)
        C, _, scale = _temporal_quadratic(model, data, _products(model, data))
        H, spline_beta = _temporal_hessian(C, params, scale)
        assert spline_beta == 2.5
        for _ in range(3):
            U = rng.standard_normal((T, R))
            ref = A @ U.ravel()
            out = _temporal_hessian_apply(H, spline_beta, U)
            assert np.linalg.norm(out.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("reg", [Regularizer(), Regularizer("tv", 2.5), Regularizer("spline", 0.0)])
    def test_without_spline_the_hessian_is_blockdiagonal(self, reg):
        rng = np.random.default_rng(122)
        model = random_model(rng, 5, 5, 6, 3)
        data = random_data(rng, 5, 3, 6)
        C, _, scale = _temporal_quadratic(model, data, _products(model, data))
        H, spline_beta = _temporal_hessian(C.copy(), Hyperparams(R=3, eta=0.7, reg=reg), scale)
        assert spline_beta == 0.0
        assert np.array_equal(H, C + np.eye(3) / 0.7)


class TestUpdateTemporal:
    @pytest.mark.parametrize("reg", [Regularizer(), Regularizer("tv", 2.0**-8), Regularizer("spline", 2.0**-8)],
                             ids=["none", "tv", "spline"])
    def test_update_at_the_top_of_the_range_is_the_update_of_the_scaled_down_problem(self, reg):
        # data x 2^512, beta x 2^1024 and eta / 2^1024 scale the U3 block
        # problem by 2^1024 exactly, so its minimizer stays the same; its C_k
        # overflowed before the update solved the problem divided by a power of two
        data, _ = benchmark_setting("switching")
        params = Hyperparams(R=8, eta=1e3, reg=reg)
        model = initialize(data, params)
        big = replace(data, X=2.0**512 * data.X, Y=2.0**512 * data.Y)
        big_params = replace(params, eta=math.ldexp(params.eta, -1024), reg=replace(reg, beta=math.ldexp(reg.beta, 1024)))
        U3, outcome = update_temporal(model, data, params, _products(model, data))
        big_U3, big_outcome = update_temporal(model, big, big_params, _products(model, big))
        assert np.array_equal(big_U3, U3) and big_outcome == outcome

    def test_beta_zero_matches_dense_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            N = int(rng.integers(2, 7))
            R = int(rng.integers(1, 4))
            T = int(rng.integers(2, 6))
            model = random_model(rng, N, N, T, R)
            data = random_data(rng, N, 5, T)
            params = Hyperparams(R=R, eta=0.8)
            out, _ = update_temporal(model, data, params, _products(model, data))
            ref = temporal_dense_oracle(model, data, eta=0.8)
            assert np.allclose(out, ref, atol=1e-10)

    def test_beta_zero_fd_gradient_vanishes(self):
        rng = np.random.default_rng(54)
        model = random_model(rng, 4, 4, 4, 2)
        data = random_data(rng, 4, 5, 4)
        params = Hyperparams(R=2, eta=0.9)
        U3, _ = update_temporal(model, data, params, _products(model, data))
        model = CpFactors(model.U1, model.U2, U3)
        g = fd_gradient(lambda: smooth_cost(model, data, params), model.U3)
        assert np.linalg.norm(g) <= 1e-8

    def test_tv_saturation_matches_constant_minimizer(self, monkeypatch):
        monkeypatch.setattr(lrtvar.solver, "TV_MAX_STEPS", 200)
        rng = np.random.default_rng(55)
        model = random_model(rng, 3, 3, 6, 2)
        data = random_data(rng, 3, 4, 6)
        params = Hyperparams(R=2, eta=0.5, reg=Regularizer("tv", 1e8))
        U3, _ = update_temporal(model, data, params, _products(model, data))
        assert np.all(np.abs(U3 - U3[0]) < 1e-6)
        # unique minimizer over constant-column matrices
        C, b, _ = _temporal_quadratic(model, data, _products(model, data))
        A = C.sum(axis=0) + (data.T / 0.5) * np.eye(2)
        c_star = np.linalg.solve(A, b.sum(axis=0))
        assert np.allclose(U3[0], c_star, atol=1e-6)

    def test_spline_never_increases_cost(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            model = random_model(rng, 4, 4, 5, 2)
            data = random_data(rng, 4, 4, 5)
            params = Hyperparams(R=2, eta=0.7, reg=Regularizer("spline", 2.0))
            before = cost(model, data, params)
            U3, _ = update_temporal(model, data, params, _products(model, data))
            after = cost(CpFactors(model.U1, model.U2, U3), data, params)
            assert after <= before + 1e-8 * (1 + abs(before))

    def test_spline_matches_dense_block_tridiagonal_oracle(self, monkeypatch):
        monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", 500)
        monkeypatch.setattr(lrtvar.solver, "CG_FORCING", 0.0)
        rng = np.random.default_rng(72)
        for _ in range(10):
            N = int(rng.integers(2, 7))
            R = int(rng.integers(1, 4))
            T = int(rng.integers(2, 9))
            model = random_model(rng, N, N, T, R)
            data = random_data(rng, N, 4, T)
            params = Hyperparams(R=R, eta=0.7, reg=Regularizer("spline", 2.0))
            out, _ = update_temporal(model, data, params, _products(model, data))
            ref = spline_dense_oracle(model, data, eta=0.7, beta=2.0)
            assert np.allclose(out, ref, atol=1e-6), (N, R, T)

    def test_tv_reaches_prox_gradient_fixed_point(self, monkeypatch):
        monkeypatch.setattr(lrtvar.solver, "TV_MAX_STEPS", 5000)
        rng = np.random.default_rng(73)
        for _ in range(5):
            model = random_model(rng, 4, 4, 6, 2)
            data = random_data(rng, 4, 5, 6)
            params = Hyperparams(R=2, eta=0.7, reg=Regularizer("tv", 1.5))
            U3, _ = update_temporal(model, data, params, _products(model, data))
            C = np.stack([temporal_window_matrix(model, data, k) for k in range(data.T)])
            L = max(np.linalg.eigvalsh(Ck).max() for Ck in C) + 1 / 0.7
            g = dense_gradients(CpFactors(model.U1, model.U2, U3), data, params)[2]
            assert np.linalg.norm(U3 - tv_prox_columns(U3 - g / L, 1.5 / L, np.ones_like(U3))) <= 1e-8

    def test_tv_never_increases_cost(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            model = random_model(rng, 4, 4, 5, 2)
            data = random_data(rng, 4, 4, 5)
            params = Hyperparams(R=2, eta=0.7, reg=Regularizer("tv", 1.5))
            before = cost(model, data, params)
            U3, _ = update_temporal(model, data, params, _products(model, data))
            after = cost(CpFactors(model.U1, model.U2, U3), data, params)
            assert after <= before + 1e-8 * (1 + abs(before))

    def test_tv_fixed_point_takes_no_sweep(self, monkeypatch):
        # criterion-1 instance, seed 1: from a converged U3 the face iteration
        # starts on the minimizer's face and certifies it, with no sweep
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=1)
        data = build_snapshots(truth.series, M=20)
        params = Hyperparams(R=8, eta=0.1, reg=Regularizer("tv", 5.0), seed=1, max_outer_iters=3)
        model, _ = fit(data, params)
        with monkeypatch.context() as patched:
            patched.setattr(lrtvar.solver, "TV_MAX_STEPS", 3000)
            U3, outcome = update_temporal(model, data, params, _products(model, data))
        assert not outcome.capped
        model = CpFactors(model.U1, model.U2, U3)
        calls = []

        def counted(*args):
            calls.append(args)
            return tv_prox_columns(*args)

        monkeypatch.setattr(lrtvar.solver, "tv_prox_columns", counted)
        U3_again, outcome = update_temporal(model, data, params, _products(model, data))
        assert calls == []
        assert outcome.method == "face" and type(outcome.steps) is int and outcome.steps >= 1
        assert outcome.residual <= SWEEP_TOL
        assert np.abs(U3_again - U3).max() <= 1e-10 * np.abs(U3).max()


def random_tv_block(rng, T, R, coupling=0.5):
    """SPD blocks H_k = C_k + I with off-diagonal strength ``coupling`` and a
    right-hand side b for the TV block objective of U3."""
    G = rng.standard_normal((T, 3 * R, R))
    C = G.transpose(0, 2, 1) @ G / (3 * R)
    scale = np.sqrt(np.einsum("kii->ki", C))
    C = C / scale[:, :, None] / scale[:, None, :]
    C = coupling * C + (1.0 - coupling) * np.eye(R)
    return C + np.eye(R), rng.standard_normal((T, R))


def counted_prox(monkeypatch):
    """The list that gets one entry per TV prox call of the solver, R per
    fallback sweep."""
    calls = []
    monkeypatch.setattr(lrtvar.solver, "tv_prox_columns", lambda *args: calls.append(None) or tv_prox_columns(*args))
    return calls


def tv_update(H, b, U0, beta, max_steps):
    """The (U3, outcome) of ``_temporal_tv_sweeps`` with ``TV_MAX_STEPS``
    set to ``max_steps``, and the fallback sweeps it ran, counted from its
    prox calls."""
    with pytest.MonkeyPatch.context() as patched:
        calls = counted_prox(patched)
        patched.setattr(lrtvar.solver, "TV_MAX_STEPS", max_steps)
        U, outcome = _temporal_tv_sweeps(H, b, U0, beta)
    return U, outcome, len(calls) // U0.shape[1]


def tv_block_objective(H, b, U, beta):
    quadratic = sum(0.5 * U[k] @ H[k] @ U[k] - b[k] @ U[k] for k in range(U.shape[0]))
    return quadratic + beta * np.abs(np.diff(U, axis=0)).sum()


def tv_dual_residual(H, b, U, beta, tol):
    """The largest violation of the TV block's optimality conditions over
    beta, entry by entry: the running sum z of H_k u_k - b_k down a column
    is beta times a subgradient of |U[k+1] - U[k]| at every pair and ends
    at 0."""
    T, R = U.shape
    worst = 0.0
    for r in range(R):
        z = 0.0
        for k in range(T):
            z += H[k, r] @ U[k] - b[k, r]
            if k == T - 1:
                worst = max(worst, abs(z))
            elif abs(U[k + 1, r] - U[k, r]) > tol:
                worst = max(worst, abs(z - beta * np.sign(U[k + 1, r] - U[k, r])))
            else:
                worst = max(worst, abs(z) - beta)
    return worst / beta


def face_target(H, b, U, beta):
    """Minimizer of the TV block objective on U's face, from a dense solve
    of P'·blockdiag(H)·P with U's exactly equal neighbours fused."""
    T, R = U.shape
    jumps = np.diff(U, axis=0) != 0
    segment_of = np.vstack([np.zeros((1, R), dtype=int), np.cumsum(jumps, axis=0)])
    offsets = np.concatenate([[0], np.cumsum(segment_of[-1] + 1)])
    P = np.zeros((T * R, offsets[-1]))
    for k in range(T):
        for r in range(R):
            P[k * R + r, offsets[r] + segment_of[k, r]] = 1.0
    blockdiag = np.zeros((T * R, T * R))
    for k in range(T):
        blockdiag[k * R:(k + 1) * R, k * R:(k + 1) * R] = H[k]
    signs = np.sign(np.diff(U, axis=0))
    zero = np.zeros((1, R))
    tv_gradient = beta * (np.vstack([zero, signs]) - np.vstack([signs, zero]))
    values = np.linalg.solve(P.T @ blockdiag @ P, P.T @ (b - tv_gradient).ravel())
    return (P @ values).reshape(T, R)


def face_signs(U):
    """The face of U with its exactly equal neighbours fused: the sign of
    each neighbouring difference, 0 on a fused pair."""
    return np.sign(np.diff(U, axis=0))


class TestFaceStep:
    """The TV U3 update iterates on faces (fused segments, signs of the
    jumps), minimizing the block objective exactly on each, until a face
    minimizer passes the block's optimality conditions; column sweeps are
    only its fallback."""

    @pytest.mark.parametrize("T", [6, 12, 25, 40])
    def test_tv_reaches_prox_gradient_fixed_point_within_default_budget(self, T):
        rng = np.random.default_rng(400 + T)
        for _ in range(3):
            model = random_model(rng, 4, 4, T, 3)
            data = random_data(rng, 4, 5, T)
            params = Hyperparams(R=3, eta=0.7, reg=Regularizer("tv", 1.5))
            U3, outcome = update_temporal(model, data, params, _products(model, data))
            assert not outcome.capped
            C = np.stack([temporal_window_matrix(model, data, k) for k in range(data.T)])
            L = max(np.linalg.eigvalsh(Ck).max() for Ck in C) + 1 / 0.7
            g = dense_gradients(CpFactors(model.U1, model.U2, U3), data, params)[2]
            assert np.linalg.norm(U3 - tv_prox_columns(U3 - g / L, 1.5 / L, np.ones_like(U3))) <= 1e-8

    @pytest.mark.parametrize("face", ["all-zero", "no-fusion", "fused-runs"])
    def test_never_raises_the_block_objective(self, face):
        # from each kind of starting face, the update returns the certified
        # minimizer, which is no higher than the start
        rng = np.random.default_rng(401)
        T, R, beta = 12, 3, 0.8
        for _ in range(40):
            H, b = random_tv_block(rng, T, R)
            if face == "all-zero":
                U = np.zeros((T, R))
            elif face == "no-fusion":
                U = rng.standard_normal((T, R))
            else:
                U = np.repeat(rng.standard_normal((4, R)), [2, 5, 1, 4], axis=0)
            moved, outcome, sweeps = tv_update(H, b, U, beta, 40)
            assert sweeps == 0 and outcome.method == "face" and 1 <= outcome.steps <= 40
            assert outcome.residual <= SWEEP_TOL
            before = tv_block_objective(H, b, U, beta)
            assert tv_block_objective(H, b, moved, beta) <= before + 1e-14 * (1 + abs(before))

    def test_all_zero_face_solves_the_constant_columns(self):
        # S = R: the face minimizer is the best matrix of constant columns
        rng = np.random.default_rng(402)
        H, b = random_tv_block(rng, 9, 3)
        moved = _face_solve(H, b, np.zeros((8, 3)), 0.5)
        assert np.all(moved == moved[0])
        assert np.allclose(moved[0], np.linalg.solve(H.sum(axis=0), b.sum(axis=0)), rtol=1e-12, atol=1e-14)

    def test_fused_runs_face_target_is_the_dense_face_solve(self):
        rng = np.random.default_rng(405)
        T, R, beta = 12, 3, 0.8
        for _ in range(40):
            H, b = random_tv_block(rng, T, R)
            U = np.repeat(rng.standard_normal((4, R)), [2, 5, 1, 4], axis=0)
            target = face_target(H, b, U, beta)
            assert np.abs(_face_solve(H, b, face_signs(U), beta) - target).max() <= 1e-12 * np.abs(target).max()

    @pytest.mark.parametrize(
        "R, T", [(1, 6), (1, 12), (1, 25), (1, 40), (1, 160), (3, 6), (3, 12), (3, 25), (3, 40), (3, 160),
                 (8, 12), (8, 40), (8, 128)])
    def test_certified_update_is_the_sweeps_only_minimizer(self, T, R, monkeypatch):
        # random and all-zero starts, weak to strong penalties and coupling up
        # to 0.99; T * R stays within FACE_MAX_SEGMENTS, so no face is too big
        rng = np.random.default_rng(10 * T + R)
        for beta, coupling, start in itertools.product((1e-3, 0.05, 0.5, 3.0), (0.5, 0.99), ("random", "zero")):
            H, b = random_tv_block(rng, T, R, coupling)
            U0 = rng.standard_normal((T, R)) if start == "random" else np.zeros((T, R))
            U, outcome, sweeps = tv_update(H, b, U0, beta, 40)
            case = (beta, coupling, start)
            assert sweeps == 0 and outcome.method == "face" and 1 <= outcome.steps <= 40, (case, outcome)
            assert outcome.residual <= SWEEP_TOL, (case, outcome)
            tol = SWEEP_TOL * np.abs(U).max()
            assert tv_dual_residual(H, b, U, beta, tol) <= SWEEP_TOL
            # a perturbed U reads above the certificate's bound
            perturbed = U + 1e-6 * rng.standard_normal(U.shape)
            assert tv_dual_residual(H, b, perturbed, beta, tol) > SWEEP_TOL
            with monkeypatch.context() as patched:
                patched.setattr(lrtvar.solver, "FACE_MAX_SEGMENTS", 0)
                U_ref, outcome_ref, sweeps_ref = tv_update(H, b, U0, beta, 3000)
            # every step a sweep, none a face solve
            assert outcome_ref.method == "sweeps" and outcome_ref.steps == sweeps_ref < 3000
            assert np.abs(U - U_ref).max() <= 1e-8 * np.abs(U_ref).max(), case
            # both are the minimizer to 1e-8, so their objectives differ by
            # less than the rounding of the sums: no higher up to that
            reference = tv_block_objective(H, b, U_ref, beta)
            assert tv_block_objective(H, b, U, beta) <= reference + 1e-14 * (1 + abs(reference))
            start_value = tv_block_objective(H, b, U0, beta)
            assert tv_block_objective(H, b, U, beta) <= start_value + 1e-14 * (1 + abs(start_value))

    def test_dual_residual_reads_each_optimality_condition(self):
        # at a certified minimizer, break one condition at a time: the column
        # sum (b moved in the last window only), the jump signs (a column
        # reversed), the fused pairs (U perturbed); the solver's residual
        # matches the one recomputed entry by entry
        rng = np.random.default_rng(406)
        T, R, beta = 25, 3, 0.5
        H, b = random_tv_block(rng, T, R)
        U, outcome = _temporal_tv_sweeps(H, b, rng.standard_normal((T, R)), beta)
        tol = SWEEP_TOL * np.abs(U).max()
        assert np.any(np.abs(np.diff(U, axis=0)) > tol) and np.any(np.diff(U, axis=0) == 0)
        assert outcome.residual <= SWEEP_TOL
        shifted = b.copy()
        shifted[-1] += 1e-3
        cases = [(shifted, U), (b, U[::-1]), (b, U + 1e-6 * rng.standard_normal(U.shape))]
        for b_case, U_case in cases:
            expected = tv_dual_residual(H, b_case, U_case, beta, SWEEP_TOL * np.abs(U_case).max())
            assert expected > 1e3 * SWEEP_TOL
            signs = _jump_signs(U_case, np.diff(U_case, axis=0))
            residual = _tv_dual_residual(_running_sums(H, b_case, U_case), signs, beta)
            assert residual == pytest.approx(expected, rel=1e-9)
        assert tv_dual_residual(H, shifted, U, beta, tol) == pytest.approx(1e-3 / beta, rel=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_criterion_1_updates_end_on_a_certified_face(self, seed, monkeypatch):
        # every update returns its last face solve, certified, with no prox
        # call (no sweep) and no evaluation of the TV objective in between
        data, params = benchmark_setting("switching", seed)
        events = []

        def spy(name, function, outcome=lambda result: None):
            def wrapped(*args):
                events.append((name, "start"))
                result = function(*args)
                events.append((name, outcome(result)))
                return result
            return wrapped

        solver = lrtvar.solver
        monkeypatch.setattr(solver, "tv_prox_columns", spy("prox", solver.tv_prox_columns))
        monkeypatch.setattr(lrtvar.regularizers, "tv_penalty", spy("objective", lrtvar.regularizers.tv_penalty))
        monkeypatch.setattr(solver, "_face_solve", spy("face", solver._face_solve, lambda out: out))
        monkeypatch.setattr(solver, "_temporal_tv_sweeps", spy("update", solver._temporal_tv_sweeps, lambda out: out))
        _, report = fit(data, params)
        starts = [i for i, event in enumerate(events) if event == ("update", "start")]
        ends = [i for i, (name, mark) in enumerate(events) if name == "update" and mark != "start"]
        assert len(starts) == len(ends) == report.iterations
        assert ("objective", None) in events  # the fit's cost evaluates the TV penalty, outside the updates
        for start, end in zip(starts, ends):
            update = events[start + 1:end]
            U3, outcome = events[end][1]
            assert {name for name, _ in update} == {"face"}
            assert outcome.method == "face" and 1 <= outcome.steps == len(update) // 2 <= TV_MAX_STEPS
            assert outcome.residual <= SWEEP_TOL and update[-1][1] is U3

    def test_first_update_of_the_long_weak_tv_fit_certifies(self, monkeypatch):
        # T = 160 windows at beta = 0.05: this update once ended on the
        # 40-sweep cap with certificate 16.4
        data = build_snapshots(simulate_smooth(N=10, tau=160, sigma=0.2, seed=0).series, M=1)
        calls = counted_prox(monkeypatch)
        _, report = fit(data, Hyperparams(R=4, eta=0.6, reg=Regularizer("tv", 0.05), seed=0, max_outer_iters=1))
        (record,) = report.outer
        assert calls == [] and record.temporal.method == "face" and 1 <= record.temporal.steps <= 40
        assert record.temporal.residual <= SWEEP_TOL and not record.temporal.capped

    def test_a_face_already_solved_is_left_by_a_single_pivot(self, monkeypatch):
        # the fourth U3 update of the T = 160, beta = 0.05 TV fit: six times
        # the full exchange leads back to a face already solved, and the next
        # face then changes only the last violated pair
        data = build_snapshots(simulate_smooth(N=10, tau=160, sigma=0.2, seed=0).series, M=1)
        blocks, faces = [], []
        update, face_solve = _temporal_tv_sweeps, _face_solve
        monkeypatch.setattr(lrtvar.solver, "_temporal_tv_sweeps", lambda *args: blocks.append(args) or update(*args))
        fit(data, Hyperparams(R=4, eta=0.6, reg=Regularizer("tv", 0.05), seed=0, max_outer_iters=4))
        H, b, U3_init, beta = blocks[3]
        monkeypatch.setattr(lrtvar.solver, "_face_solve", lambda *args: faces.append(args[2]) or face_solve(*args))
        _, outcome = update(H, b, U3_init, beta)
        assert outcome.method == "face" and not outcome.capped and outcome.steps == len(faces)  # no sweep
        pivots = 0
        for i, (signs, after) in enumerate(zip(faces, faces[1:])):
            face = face_solve(H, b, signs, beta)
            z = _running_sums(H, b, face)
            violated = (signs * np.diff(face, axis=0) < 0) | ((signs == 0) & (np.abs(z[:-1]) > beta))
            exchanged = np.where(violated, np.where(signs, 0.0, np.sign(z[:-1])), signs)
            if not np.array_equal(after, exchanged):
                assert any(np.array_equal(exchanged, seen) for seen in faces[:i + 1])
                assert np.flatnonzero(after != signs).tolist() == [np.flatnonzero(violated)[-1]]
                pivots += 1
        assert pivots == 6

    def test_a_sweep_iterate_that_raises_the_objective_is_not_kept(self, monkeypatch):
        # no face small enough to solve and a sweep that moves U3 uphill: the
        # update returns the incoming U3 itself, an uncertified sweeps outcome
        rng = np.random.default_rng(407)
        H, b = random_tv_block(rng, 12, 3)
        U0 = rng.standard_normal((12, 3))

        def uphill(H, b, U, beta):
            yield U, math.inf
            yield U + 100.0, 0.0

        monkeypatch.setattr(lrtvar.solver, "FACE_MAX_SEGMENTS", 0)
        monkeypatch.setattr(lrtvar.solver, "_column_sweeps", uphill)
        U, outcome = _temporal_tv_sweeps(H, b, U0, 0.5)
        assert U is U0 and outcome.method == "sweeps" and outcome.steps == 1 and outcome.capped
        signs = _jump_signs(U0, np.diff(U0, axis=0))
        assert outcome.residual == _tv_dual_residual(_running_sums(H, b, U0), signs, 0.5) > SWEEP_TOL

    def test_sweeps_alone_above_the_segment_limit_reach_the_same_minimizer(self, monkeypatch):
        # T*R just above FACE_MAX_SEGMENTS and a weak penalty: no face is
        # ever small enough to solve, so the sweeps run alone
        R = 4
        T = lrtvar.solver.FACE_MAX_SEGMENTS // R + 1
        rng = np.random.default_rng(403)
        H, b = random_tv_block(rng, T, R, coupling=0.3)
        U0 = rng.standard_normal((T, R))
        beta = 1e-3
        U, outcome, sweeps = tv_update(H, b, U0, beta, 500)
        # the sweeps stop on their move test, with no face solve; the residual
        # is the dual residual of what they return, which at this small beta
        # is mostly the rounding of the running sums, so the two sums agree to 1%
        assert outcome.method == "sweeps" and outcome.steps == sweeps < 500
        expected = tv_dual_residual(H, b, U, beta, SWEEP_TOL * np.abs(U).max())
        assert outcome.residual == pytest.approx(expected, rel=1e-2)
        assert tv_block_objective(H, b, U, beta) < tv_block_objective(H, b, U0, beta)
        monkeypatch.setattr(lrtvar.solver, "FACE_MAX_SEGMENTS", 2 * T * R)
        U_face, outcome, sweeps_face = tv_update(H, b, U0, beta, 500)
        # at least one face solve besides the sweeps
        assert outcome.method == "face" and outcome.steps > sweeps_face and sweeps_face < sweeps
        assert outcome.residual <= SWEEP_TOL
        assert np.abs(U_face - U).max() <= 1e-8 * np.abs(U).max()

    def test_uncertified_sweep_stop_reports_a_capped_update(self, monkeypatch):
        # with the faces disabled and a weak penalty, the sweeps stop on their
        # move test well inside the budget, with a dual residual above SWEEP_TOL
        rng = np.random.default_rng(7)
        data = random_data(rng, 6, 5, 20)
        params = Hyperparams(R=2, eta=0.5, reg=Regularizer("tv", 1e-3), seed=1, max_outer_iters=3)
        monkeypatch.setattr(lrtvar.solver, "FACE_MAX_SEGMENTS", 0)
        _, report = fit(data, params)
        outcomes = [o.temporal for o in report.outer]
        assert all(o.method == "sweeps" and o.steps < TV_MAX_STEPS for o in outcomes)
        assert all(o.residual > SWEEP_TOL and o.capped for o in outcomes)
        assert "capped U3 solves: 3 of 3" in report.summary()
        monkeypatch.undo()
        _, report = fit(data, params)
        assert all(o.temporal.residual <= SWEEP_TOL and not o.temporal.capped for o in report.outer)

    @pytest.mark.parametrize("seed", range(6))
    def test_criterion_1_fits_never_cap_the_u3_sweeps(self, seed):
        data, params = benchmark_setting("switching", seed)
        _, report = fit(data, params)
        assert len(report.outer) == report.iterations
        assert not any(o.temporal.capped for o in report.outer)
        assert {o.temporal.method for o in report.outer} == {"face"}
        assert all(o.temporal.steps >= 1 and o.temporal.residual <= SWEEP_TOL for o in report.outer)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1e-3, 1e-5, 1e-13])
    def test_weak_penalties_end_every_update_on_a_face(self, beta):
        # the rounding of the running sums does not shrink with beta; before the
        # certificate allowed for it, 7, 19 and 19 of these 19 updates ended
        # as capped sweeps
        data, params = benchmark_setting("switching")
        _, report = fit(data, replace(params, reg=Regularizer("tv", beta)))
        assert report.outer and {o.temporal.method for o in report.outer} == {"face"}
        assert not any(o.temporal.capped for o in report.outer)

    @pytest.mark.filterwarnings("error")
    def test_large_n_series_at_8000_channels_ends_every_update_on_a_face(self):
        # the large_n series and settings at N = 8000: 20 of the 60 U3 updates
        # once ended as capped sweeps, their residual growing with N
        data = build_snapshots(simulate_switching(N=8000, tau=200, sigma=0.5, seed=0).series, M=20)
        params = Hyperparams(R=4, eta=1.0 / 8000, reg=Regularizer("tv", 1.0), seed=0, max_outer_iters=60,
                             rtol=0.0, atol=0.0)
        _, report = fit(data, params)
        assert len(report.outer) == 60 and {o.temporal.method for o in report.outer} == {"face"}
        assert not any(o.temporal.capped or o.right.capped for o in report.outer)

    def test_outcome_is_logged_recorded_summarized_and_deterministic(self, caplog):
        data, params = benchmark_setting("switching", seed=3)
        with caplog.at_level(logging.INFO, logger="lrtvar.solver"):
            _, report = fit(data, params)
        _, again = fit(data, params)
        outcomes = [o.temporal for o in report.outer]
        assert len(outcomes) == report.iterations
        assert all(type(o.steps) is int and o.steps >= 0 and type(o.residual) is float for o in outcomes)
        assert [o.temporal for o in again.outer] == outcomes
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "lrtvar.solver"]
        for line, o in zip(lines, outcomes):
            assert line.endswith(f" temporal={o.method}/{o.steps}/{o.residual:.3g}"), line
        assert f"U3 inner steps: {sum(o.steps for o in outcomes)}" in report.summary().splitlines()

    @pytest.mark.parametrize("case", ["none", "spline", "smooth"])
    def test_other_u3_updates_record_no_face_steps(self, case, monkeypatch):
        # the unsmoothed U3 solve is exact; the spline CG records the relative
        # residual ||grad U3|| / ||b|| of the U3 it returns and is capped
        # exactly when that is above its tolerance: it meets its forcing
        # threshold on the small random data and on the smooth benchmark but
        # for the fifth and sixth updates, which stop on their step cap
        iterations, capped = (6, {4, 5}) if case == "smooth" else (3, set())
        if case == "smooth":
            data, params = benchmark_setting("smooth")
            params = replace(params, max_outer_iters=iterations)
        else:
            data = random_data(np.random.default_rng(404), 3, 5, 4)
            reg = Regularizer() if case == "none" else Regularizer("spline", 2.0)
            params = Hyperparams(R=2, eta=0.5, reg=reg, seed=1, max_outer_iters=iterations)
        original = lrtvar.solver.update_temporal
        recomputed = []

        def spy(model, data, params, products):
            U3, outcome = original(model, data, params, products)
            gradient = dense_gradients(CpFactors(model.U1, model.U2, U3), data, params)[2]
            recomputed.append(np.linalg.norm(gradient) / np.linalg.norm(_temporal_quadratic(model, data, products)[1]))
            return U3, outcome

        monkeypatch.setattr(lrtvar.solver, "update_temporal", spy)
        _, report = fit(data, params)
        outcomes = [o.temporal for o in report.outer]
        assert len(outcomes) == len(recomputed) == iterations
        if case == "none":
            assert [(o.method, o.steps, o.residual, o.capped) for o in outcomes] == [("exact", 0, 0.0, False)] * 3
        for i, (o, residual) in enumerate(zip(outcomes, recomputed)):
            if case != "none":
                assert o.method == "cg" and o.residual == pytest.approx(residual, rel=1e-9, abs=1e-15)
            assert o.capped is (not o.residual <= o.tolerance) is (i in capped)
            assert o.capped is (o.steps == CG_MAX_STEPS)
        summary = report.summary().splitlines()
        assert f"U3 inner steps: {sum(o.steps for o in outcomes)}" in summary
        assert f"capped U3 solves: {len(capped)} of {iterations}" in summary


class TestGradients:
    def test_all_blocks_match_central_differences(self):
        rng = np.random.default_rng(58)
        for trial in range(20):
            N = int(rng.integers(2, 7))
            R = int(rng.integers(1, 4))
            T = int(rng.integers(2, 6))
            reg = Regularizer("spline", 1.2) if trial % 2 else Regularizer()
            model = random_model(rng, N, N, T, R)
            data = random_data(rng, N, 4, T)
            params = Hyperparams(R=R, eta=0.6, reg=reg)
            blocks = (model.U1, model.U2, model.U3)
            for analytic, block in zip(dense_gradients(model, data, params), blocks):
                numeric = fd_gradient(lambda: smooth_cost(model, data, params), block)
                denom = max(np.linalg.norm(numeric), 1.0)
                assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


class TestInitialize:
    def test_orthonormal_spatial_modes_without_noise(self):
        rng = np.random.default_rng(59)
        data = random_data(rng, 4, 10, 3)
        model = CpFactors(*_spectral_factors(_range_data(data), 4))
        assert np.allclose(model.U1.T @ model.U1, np.eye(4), atol=1e-10)
        assert np.allclose(model.U2.T @ model.U2, np.eye(4), atol=1e-10)

    def test_temporal_init_constant_unit_columns(self):
        rng = np.random.default_rng(60)
        data = random_data(rng, 3, 8, 5)
        model = CpFactors(*_spectral_factors(_range_data(data), 2))
        assert np.allclose(model.U3, 1 / np.sqrt(5), atol=1e-15)
        assert np.allclose(np.linalg.norm(model.U3, axis=0), 1.0, atol=1e-12)

    def test_rank_above_dimension_padded(self):
        rng = np.random.default_rng(61)
        data = random_data(rng, 3, 8, 4)
        model = CpFactors(*_spectral_factors(_range_data(data), 6))
        assert model.U1.shape == (3, 6)
        assert np.allclose(model.U1[:, 3:], 1 / np.sqrt(3))
        assert np.allclose(model.U2[:, 3:], 1 / np.sqrt(3))

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(62)
        data = random_data(rng, 3, 6, 4)
        params = Hyperparams(R=2, eta=1.0, seed=123)
        a = initialize(data, params)
        b = initialize(data, params)
        assert np.array_equal(a.U1, b.U1) and np.array_equal(a.U2, b.U2) and np.array_equal(a.U3, b.U3)

    def test_degenerate_data(self):
        data = SnapshotPair(X=np.zeros((2, 3, 2)), Y=np.zeros((2, 3, 2)))
        with pytest.raises(DegenerateDataError):
            initialize(data, Hyperparams(R=1, eta=1.0))

    @pytest.mark.filterwarnings("error")
    def test_far_apart_data_scales_keep_the_start_in_range(self):
        # the criterion-1 pair with X x2^-290 and Y x2^290: the one-model fit
        # has entries near 2^580, whose Gram once overflowed and failed in
        # eigh with a bare LinAlgError; its singular vectors are those of the
        # unscaled pair
        data, params = benchmark_setting("switching")
        pair = SnapshotPair(X=np.ldexp(data.X, -290), Y=np.ldexp(data.Y, 290))
        for got, want in zip(_spectral_factors(_range_data(pair), 8), _spectral_factors(_range_data(data), 8)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        _, report = fit(pair, params)
        trace = np.array(report.cost_trace)
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= MONOTONE_SLACK * (1 + np.abs(trace[:-1])))

    def test_factored_init_matches_naive_pinv_svd(self):
        # the memory-lean construction must agree with svd(Y @ pinv(X))
        rng = np.random.default_rng(63)
        data = random_data(rng, 5, 7, 3)
        model = CpFactors(*_spectral_factors(_range_data(data), 3))
        Xg = data.X.transpose(0, 2, 1).reshape(5, -1)
        Yg = data.Y.transpose(0, 2, 1).reshape(5, -1)
        A = Yg @ np.linalg.pinv(Xg)
        U, _, Vt = np.linalg.svd(A)
        # compare spans (signs/rotations of singular vectors are not unique)
        for got, want in ((model.U1, U[:, :3]), (model.U2, Vt.T[:, :3])):
            proj = want @ (want.T @ got)
            assert np.allclose(proj, got, atol=1e-8)


class TestFit:
    def test_planted_rank_one_recovery(self):
        rng = np.random.default_rng(64)
        planted = CpFactors(
            U1=rng.standard_normal((4, 1)),
            U2=rng.standard_normal((4, 1)),
            U3=np.ones((5, 1)),
        )
        data = exact_data(rng, planted, M=6)
        params = Hyperparams(R=1, eta=1e6, seed=7)
        model, report = fit(data, params)
        assert rmse(model, data) <= 1e-3

    def test_cost_trace_never_increases(self):
        rng = np.random.default_rng(65)
        for trial in range(6):
            kind = ["none", "tv", "spline"][trial % 3]
            model = random_model(rng, 4, 4, 4, 2)
            data = random_data(rng, 4, 5, 4)
            params = Hyperparams(R=2, eta=0.5, reg=Regularizer(kind, 0.0 if kind == "none" else 1.0), max_outer_iters=25, seed=trial)
            _, report = fit(data, params)
            trace = np.array(report.cost_trace)
            slack = 1e-8 * (1 + np.abs(trace[:-1]))
            assert np.all(np.diff(trace) <= slack)

    def test_same_seed_identical_trace(self):
        rng = np.random.default_rng(66)
        data = random_data(rng, 3, 5, 4)
        params = Hyperparams(R=2, eta=0.5, reg=Regularizer("tv", 0.5), max_outer_iters=15, seed=11)
        _, r1 = fit(data, params)
        _, r2 = fit(data, params)
        assert r1.cost_trace == r2.cost_trace
        assert r1.rmse_trace == r2.rmse_trace

    def test_scale_equivariance_of_final_loss(self):
        rng = np.random.default_rng(67)
        data = random_data(rng, 3, 6, 3)
        scaled = SnapshotPair(X=4.0 * data.X, Y=4.0 * data.Y)
        params = Hyperparams(R=2, eta=1e12, seed=3, max_outer_iters=60)
        m1, _ = fit(data, params)
        m2, _ = fit(scaled, params)
        assert rmse(m2, scaled) == pytest.approx(4.0 * rmse(m1, data), rel=1e-2)

    def test_termination_reason_rtol(self):
        rng = np.random.default_rng(68)
        data = random_data(rng, 3, 5, 3)
        params = Hyperparams(R=2, eta=0.5, seed=1)
        _, report = fit(data, params)
        assert report.termination in ("rtol", "atol")
        assert report.iterations <= params.max_outer_iters

    def test_single_window_spline_matches_unregularized(self):
        rng = np.random.default_rng(74)
        data = random_data(rng, 3, 8, 1)
        common = dict(R=2, eta=0.5, seed=2, max_outer_iters=20)
        _, plain = fit(data, Hyperparams(**common))
        _, spline = fit(data, Hyperparams(**common, reg=Regularizer("spline", 3.0)))
        assert spline.cost_trace == plain.cost_trace

    def test_atol_is_relative_to_initial_cost(self):
        # the series scaled by s, eta by 1/s^2 and beta by s^2 is the same
        # problem with the cost multiplied by s^2
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=0)
        runs = []
        for s in (1e-4, 1e-2, 1.0, 1e3, 1e6):
            data = build_snapshots(TimeSeries(values=s * truth.series.values), M=20)
            params = Hyperparams(R=8, eta=0.1 / s**2, reg=Regularizer("tv", 5.0 * s**2), seed=0)
            model, report = fit(data, params)
            runs.append((report.iterations, report.termination, operator_norm_error(model_estimate(model), truth)))
        assert len({(n, why) for n, why, _ in runs}) == 1
        errors = [err for _, _, err in runs]
        assert max(errors) - min(errors) <= 1e-4 * min(errors)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale, changes",
        [
            (1e160, {}),  # ||X||^2 overflows
            (1.0, {"eta": 1e-300}),  # (1/eta)^2 overflows
            (1.0, {"reg": Regularizer("spline", 1e300)}),  # (4 beta)^2 overflows
            (1e-170, {}),  # ||X||^2 underflows: tiny data, not zero data
            (1.0, {"reg": Regularizer("tv", 2e307)}),  # (4 beta)^2 overflows under TV too
            (1.0, {"reg": Regularizer("tv", 1e-160)}),  # (4 beta)^2 underflows
            (1.0, {"reg": Regularizer("tv", 1.7e308)}),  # 4 beta overflows as well
        ],
        ids=["series-1e160", "eta-1e-300", "spline-beta-1e300", "series-1e-170", "tv-beta-2e307", "tv-beta-1e-160",
             "tv-beta-1.7e308"],
    )
    def test_extreme_scales_rejected_at_entry(self, scale, changes, monkeypatch):
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=0)
        data = build_snapshots(TimeSeries(values=scale * truth.series.values), M=20)
        params = replace(Hyperparams(R=8, eta=0.1, seed=0), **changes)
        monkeypatch.setattr(lrtvar.solver, "initialize", lambda *args: pytest.fail("the fit started"))
        with pytest.raises(ExtremeScaleError, match="standardize") as raised:
            fit(data, params)
        assert "2^inf" not in str(raised.value)

    @pytest.mark.filterwarnings("error")
    def test_trial_whose_cost_overflows_is_rejected(self, monkeypatch):
        # x1.4e152 passes the entry checks; the extrapolation trial of outer
        # iteration 1 has finite factors but a loss that overflows to inf
        # (from this start, at x1.2e152 the trial's loss is 3.9e307: finite)
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=0)
        data = build_snapshots(TimeSeries(values=1.4e152 * truth.series.values), M=20)
        losses = []
        quadratic_loss = lrtvar.solver._quadratic_loss
        monkeypatch.setattr(lrtvar.solver, "_quadratic_loss",
                            lambda *args: losses.append(quadratic_loss(*args)) or losses[-1])
        _, report = fit(data, Hyperparams(R=8, eta=0.1, reg=Regularizer("tv", 5.0), seed=0, max_outer_iters=30))
        assert losses[2] == np.inf and not report.outer[0].extrapolated  # initialization, sweep, trial
        trace = np.array(report.cost_trace)
        assert report.iterations == 30 and np.all(np.isfinite(trace)) and np.all(np.isfinite(report.rmse_trace))
        assert np.all(np.diff(trace) <= MONOTONE_SLACK * (1 + np.abs(trace[:-1])))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0e152, 1.2e152, 1.4e152, 1.6e152, 1.8e152, 2.0e152, 2.2e152, 2.4e152, 2.6e152])
    def test_descent_is_monotone_at_extreme_accepted_scales(self, scale):
        # these scales pass the entry checks; every TV U3 update once fell back
        # to the sweeps, and from x1.8e152 up a sweep iterate could lie above
        # the incoming U3 in the block objective, so the cost rose by up to
        # 0.325 of 1 + |cost| (x2.4e152).  The certificate now allows for the
        # rounding of the running sums, and every update ends on a face
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=0)
        data = build_snapshots(TimeSeries(values=scale * truth.series.values), M=20)
        _, report = fit(data, Hyperparams(R=8, eta=0.1, reg=Regularizer("tv", 5.0), seed=0, max_outer_iters=30))
        trace = np.array(report.cost_trace)
        assert np.all(np.isfinite(trace)) and {o.temporal.method for o in report.outer} == {"face"}
        assert all(o.cost_rise <= MONOTONE_SLACK for o in report.outer)
        assert np.all(np.diff(trace) <= MONOTONE_SLACK * (1 + np.abs(trace[:-1])))

    @pytest.mark.filterwarnings("error")
    def test_large_n_fit_is_the_same_problem_far_above_the_data_scale(self):
        # the large_n series times 2^k, eta / 2^2k and beta 2^2k is the same
        # problem with its cost times 2^2k, and the entry checks accept it;
        # at 2^200 the U2 CG's p'Ap once overflowed and the fit died in a
        # singular face solve, at 2^250 every U2 CG stopped on a NaN residual
        data, params = benchmark_setting("large_n")
        _, report = fit(data, params)
        for k in (100, 200, 250):
            scaled_data = SnapshotPair(X=np.ldexp(data.X, k), Y=np.ldexp(data.Y, k))
            reg = Regularizer(params.reg.kind, math.ldexp(params.reg.beta, 2 * k))
            _, scaled = fit(scaled_data, replace(params, eta=math.ldexp(params.eta, -2 * k), reg=reg))
            assert math.ldexp(scaled.cost_trace[-1], -2 * k) == pytest.approx(report.cost_trace[-1], rel=1e-12)
            assert [o.right.method for o in scaled.outer] == ["cg"] * 60
            assert not any(o.right.capped for o in scaled.outer)

    def test_logs_one_line_per_outer_iteration(self, caplog):
        rng = np.random.default_rng(72)
        data = random_data(rng, 3, 5, 3)
        with caplog.at_level(logging.INFO, logger="lrtvar.solver"):
            _, report = fit(data, Hyperparams(R=2, eta=0.5, seed=1, max_outer_iters=4))
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "lrtvar.solver"]
        assert report.iterations == 4
        assert [line.split(":")[0] for line in lines] == ["iter 1", "iter 2", "iter 3", "iter 4"]
        assert lines[-1].startswith(f"iter 4: cost={report.cost_trace[-1]:.17g} rmse={report.rmse_trace[-1]:.17g} ")
        # no penalty: U1 and U3 are solved exactly, U2 by CG
        assert re.search(r" left=exact/0/0 right=cg/[1-9]\d*/\S+ temporal=exact/0/0$", lines[-1]), lines[-1]

    def test_one_record_per_outer_iteration_formats_the_info_line(self, monkeypatch, caplog):
        data, params = benchmark_setting("switching")
        with caplog.at_level(logging.INFO, logger="lrtvar.solver"):
            _, report = fit(data, replace(params, max_outer_iters=6, rtol=0.0, atol=0.0))
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "lrtvar.solver"]
        assert len(report.outer) == len(lines) == report.iterations == 6
        for it, (line, record) in enumerate(zip(lines, report.outer), start=1):
            assert line == f"iter {it}: cost={report.cost_trace[it]:.17g} rmse={report.rmse_trace[it]:.17g} {record}"
            assert all(getattr(record, name) >= 0.0 for name in
                       ("seconds_left", "seconds_right", "seconds_temporal", "seconds_objective"))
        with pytest.raises(AttributeError):
            report.outer[0].extrapolated = False
        with pytest.raises(AttributeError):
            report.outer[0].right.steps = 0
        # with INFO disabled the line, and so the record's text, is never built
        formatted = []
        monkeypatch.setattr(OuterIteration, "__str__", lambda record: formatted.append(record) or "")
        with caplog.at_level(logging.WARNING, logger="lrtvar.solver"):
            fit(data, replace(params, max_outer_iters=3))
        assert formatted == []

    @pytest.mark.parametrize(
        "changes, budget, face_limit, block",
        [({"reg": Regularizer("tv", 0.5)}, "TV_MAX_STEPS", 0, "temporal"),
         ({}, "CG_MAX_STEPS", lrtvar.solver.FACE_MAX_SEGMENTS, "right")],
        ids=["tv-one-sweep", "cg-one-step"],
    )
    def test_inner_solves_report_hitting_their_cap(self, changes, budget, face_limit, block, monkeypatch):
        # with no face small enough to solve, the TV update is one sweep
        monkeypatch.setattr(lrtvar.solver, "FACE_MAX_SEGMENTS", face_limit)
        rng = np.random.default_rng(75)
        data = random_data(rng, 20, 5, 4)
        monkeypatch.setattr(lrtvar.solver, budget, 1)
        _, report = fit(data, Hyperparams(R=4, eta=0.5, seed=1, max_outer_iters=5, **changes))
        assert len(report.outer) == report.iterations
        assert all(type(o.right.capped) is bool and type(o.temporal.capped) is bool for o in report.outer)
        assert all(getattr(o, block).capped and str(getattr(o, block)).endswith("/capped") for o in report.outer)
        if "reg" not in changes:
            assert not any(o.temporal.capped for o in report.outer)  # the exact solve has no cap

    @pytest.mark.parametrize("cap", [24, 2], ids=["default-cap", "capped"])
    def test_right_cg_records_its_final_relative_residual(self, cap, monkeypatch):
        # the CG's own last residual against ||B - K U2|| / ||B|| recomputed
        # through the operator, on the large_n fit that takes CG
        data, params = benchmark_setting("large_n")
        original = lrtvar.solver.update_right
        recomputed = []

        def spy(model, data, knobs, products):
            U2, outcome = original(model, data, knobs, products)
            rhs = _right_rhs(model, data, products)
            residual = rhs - _right_operator(_right_weights(model), data, knobs.eta, U2)
            recomputed.append(np.linalg.norm(residual) / np.linalg.norm(rhs))
            return U2, outcome

        monkeypatch.setattr(lrtvar.solver, "update_right", spy)
        monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", cap)
        _, report = fit(data, replace(params, max_outer_iters=8))
        assert len(recomputed) == len(report.outer) == 8
        for record, residual in zip(report.outer, recomputed):
            assert record.right.method == "cg" and abs(record.right.residual - residual) <= 1e-12
            # the CG stops on its tolerance or its step cap, and is capped only above the tolerance
            assert record.right.residual <= record.right.tolerance or record.right.steps == cap
            assert record.right.capped is (not record.right.residual <= record.right.tolerance)
            assert CG_TOL <= record.right.tolerance
        if cap == 2:
            assert all(record.right.capped and record.right.residual > record.right.tolerance for record in report.outer)
        else:  # at the default cap every one meets its forcing threshold
            assert not any(record.right.capped for record in report.outer)

    @pytest.mark.parametrize("name", ["switching", "smooth"])
    def test_exact_right_solves_record_no_residual(self, name, monkeypatch):
        # U1 is solved exactly: no step, residual 0, never capped; with no
        # forcing term and a 1e-13 tolerance the U2 CG is an exact solve too,
        # its residual of rounding size and never capped
        tight_cg(monkeypatch)
        data, params = benchmark_setting(name)
        _, report = fit(data, replace(params, max_outer_iters=4))
        left = [(o.left.method, o.left.steps, o.left.residual, o.left.capped) for o in report.outer]
        assert left == [("exact", 0, 0.0, False)] * 4
        right = [o.right for o in report.outer]
        assert all(o.method == "cg" and o.steps > 0 and o.tolerance == pytest.approx(1e-13)
                   and o.residual <= o.tolerance and not o.capped for o in right), right

    @pytest.mark.parametrize("kind", ["none", "spline", "tv"])
    def test_non_finite_block_update_raises(self, kind, monkeypatch):
        # U1 turns NaN, then in a second fit inf, at outer iteration 2; a TV
        # update meets it first, in its prox.  The U2 CG keeps its start on the
        # non-finite right-hand side, so the sweep's cost check names U1 and
        # what U3 took from it.  The collapse rule runs only on iterates that
        # check has proved finite, so it never zeroes a NaN or inf column;
        # numpy's own invalid-value warnings on inf arithmetic are expected
        original, live = lrtvar.solver.update_left, lrtvar.solver._live_components
        data, params = benchmark_setting("switching")
        message = {"none": "outer iteration 2: U1 and U3 contain", "spline": "outer iteration 2: U1 contains",
                   "tv": "non-finite"}[kind]
        for value in (math.nan, math.inf):
            calls, ruled = [], []

            def non_finite_on_second_call(model, data, params, products):
                U1, outcome = original(model, data, params, products)
                calls.append(None)
                return (np.full_like(U1, value) if len(calls) == 2 else U1), outcome

            def finite_only(model):
                ruled.append(all(np.isfinite(U).all() for U in (model.U1, model.U2, model.U3)))
                return live(model)

            monkeypatch.setattr(lrtvar.solver, "update_left", non_finite_on_second_call)
            monkeypatch.setattr(lrtvar.solver, "_live_components", finite_only)
            with np.errstate(invalid="ignore" if math.isinf(value) else "warn"):
                with pytest.raises(NonFiniteError, match=message):
                    fit(data, replace(params, reg=Regularizer(kind, 5.0), max_outer_iters=5, rtol=0.0, atol=0.0))
            assert len(calls) == 2 and ruled == [True]

    @pytest.mark.parametrize("name", ["switching", "large_n"])
    def test_returns_validated_factors(self, name):
        data, params = benchmark_setting(name)
        model, _ = fit(data, replace(params, max_outer_iters=3))
        assert type(model) is CpFactors
        assert (model.N, model.N_in, model.T, model.R) == (data.N, data.N_in, data.T, params.R)

    def test_smooth_spline_fit_caps_every_temporal_cg(self, monkeypatch):
        # the smooth benchmark's settings: with the forcing term pinned to 0
        # the U3 CG uses all 24 steps on every outer iteration; with it, 3 of
        # the 41 stop on the cap and every other one on its forcing threshold
        N = 10
        truth = simulate_smooth(N=N, tau=160, sigma=0.2, seed=0)
        data = build_snapshots(truth.series, M=1)
        params = Hyperparams(R=4, eta=6.0 / N, reg=Regularizer("spline", 600.0 * np.log10(N) ** 2), seed=0)
        _, report = fit(data, params)
        outcomes = [o.temporal for o in report.outer]
        assert len(outcomes) == report.iterations == 41
        assert [o.capped for o in outcomes] == [o.steps == CG_MAX_STEPS for o in outcomes]
        assert sum(o.capped for o in outcomes) == 3
        assert all(o.residual <= o.tolerance for o in outcomes if not o.capped)
        monkeypatch.setattr(lrtvar.solver, "CG_FORCING", 0.0)
        _, report = fit(data, params)
        assert len(report.outer) == report.iterations
        assert all(o.temporal.capped for o in report.outer)
        assert [o.temporal.steps for o in report.outer] == [CG_MAX_STEPS] * report.iterations

    def test_cost_rise_is_recorded_and_warned(self, monkeypatch, caplog):
        rng = np.random.default_rng(76)
        data = random_data(rng, 3, 5, 4)
        original = lrtvar.solver.update_temporal
        calls = []

        def doubled_on_third_call(model, data, params, products):
            U3, outcome = original(model, data, params, products)
            calls.append(None)
            return (2.0 * U3 if len(calls) == 3 else U3), outcome

        monkeypatch.setattr(lrtvar.solver, "update_temporal", doubled_on_third_call)
        with caplog.at_level(logging.WARNING, logger="lrtvar.solver"):
            _, report = fit(data, Hyperparams(R=2, eta=0.5, seed=1, max_outer_iters=5, rtol=0.0, atol=0.0))
        rises = [o.cost_rise for o in report.outer]
        assert len(rises) == report.iterations == 5
        assert rises[2] > MONOTONE_SLACK
        assert all(rise <= MONOTONE_SLACK for i, rise in enumerate(rises) if i != 2)
        warnings = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("iter 3: cost rose")

    @pytest.mark.parametrize(
        "N, tau, M, R, kind, beta",
        [(10, 200, 20, 8, "tv", 5.0), (10, 160, 1, 4, "spline", 60.0), (80, 60, 10, 3, "none", 0.0),
         (80, 60, 10, 3, "tv", 1.0)],
        ids=["switching-tv", "smooth-spline", "range-none", "range-tv"],
    )
    def test_default_fits_record_no_cost_rise(self, N, tau, M, R, kind, beta):
        truth = (simulate_smooth if kind == "spline" else simulate_switching)(N=N, tau=tau, sigma=0.5, seed=3)
        data = build_snapshots(truth.series, M=M)
        _, report = fit(data, Hyperparams(R=R, eta=1.0 / N, reg=Regularizer(kind, beta), seed=3))
        rises = [o.cost_rise for o in report.outer]
        assert len(rises) == report.iterations
        assert all(0.0 <= rise <= MONOTONE_SLACK for rise in rises)

    def test_summary_counts_capped_solves(self, monkeypatch):
        # no TV face small enough to solve: the U3 update is one uncertified sweep
        rng = np.random.default_rng(77)
        with monkeypatch.context() as patched:
            patched.setattr(lrtvar.solver, "FACE_MAX_SEGMENTS", 0)
            data = random_data(rng, 20, 5, 4)
            patched.setattr(lrtvar.solver, "CG_MAX_STEPS", 1)
            patched.setattr(lrtvar.solver, "TV_MAX_STEPS", 1)
            _, report = fit(data, Hyperparams(R=4, eta=0.5, seed=1, max_outer_iters=5, reg=Regularizer("tv", 0.5)))
        lines = report.summary().splitlines()
        assert "capped U2 solves: 5 of 5" in lines
        assert "capped U3 solves: 5 of 5" in lines
        # three channels: the U2 CG meets its threshold at the default cap
        _, report = fit(random_data(rng, 3, 5, 4), Hyperparams(R=2, eta=0.5, seed=1, max_outer_iters=3))
        lines = report.summary().splitlines()
        assert "capped U2 solves: 0 of 3" in lines
        assert "capped U3 solves: 0 of 3" in lines

    def test_trace_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        data = random_data(rng, 3, 5, 3)
        _, report = fit(data, Hyperparams(R=2, eta=0.5, seed=1, max_outer_iters=5))
        path = tmp_path / "trace.csv"
        report.write_trace_csv(path, manifest="m")
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        assert rows.shape[1] == 3
        assert np.allclose(rows[:, 1], report.cost_trace)


def range_projector(A):
    """Orthogonal projector onto the span of a data tensor's transitions, or
    the identity when they are at least as many as its channels."""
    channels, M, T = A.shape
    U = np.linalg.svd(A.reshape(channels, M * T), full_matrices=False)[0]
    return U @ U.T


def live_components(model):
    """Whether each component's weight ||U1_r|| ||U2_r|| ||U3_r|| is above
    float64 eps times the largest; after each sweep ``fit`` sets the others
    to exact zeros, which its trial keeps."""
    weights = np.linalg.norm(model.U1, axis=0) * np.linalg.norm(model.U2, axis=0) * np.linalg.norm(model.U3, axis=0)
    return weights > np.finfo(float).eps * weights.max()


def collapse(model):
    """``model`` with every component that is not live set to exact zeros."""
    live = live_components(model)
    return replace(model, **{name: np.where(live, getattr(model, name), 0.0) for name in ("U1", "U2", "U3")})


def full_data_trace(data, params, iterations, model=None):
    """Cost trace of the public block updates on the full data, started from
    ``model`` or else the initialization lifted to the channels, with the
    collapse rule and extrapolation trial of ``fit`` after each sweep: the
    components that are not live are set to zeros (:func:`collapse`), and
    U + it^(1/p) (U - U_prev) on the live ones is kept if ``cost`` says it
    is lower, else p rises by one up to 6."""
    model = initialize(data, params) if model is None else model
    trace = [cost(model, data, params)]
    root = 3
    for it in range(1, iterations + 1):
        start = model
        model = replace(model, U1=update_left(model, data, params, _products(model, data))[0])
        model = replace(model, U2=update_right(model, data, params, _products(model, data))[0])
        model = collapse(replace(model, U3=update_temporal(model, data, params, _products(model, data))[0]))
        steps = np.where(live_components(model), it ** (1.0 / root), 0.0)
        trial = CpFactors(*(U + steps * (U - U0) for U, U0 in zip((model.U1, model.U2, model.U3),
                                                                  (start.U1, start.U2, start.U3))),
                          affine=model.affine)
        if cost(trial, data, params) < cost(model, data, params):
            model = trial
        else:
            root = min(root + 1, 6)
        trace.append(cost(model, data, params))
    return np.array(trace)


RANGE_CASES = {
    "switching-tv": (dict(N=80), dict(M=10), 3, Regularizer("tv", 1.0)),
    "switching-spline": (dict(N=80), dict(M=10), 3, Regularizer("spline", 5.0)),
    "switching-none": (dict(N=80), dict(M=10), 3, Regularizer("none", 0.0)),
    "affine-lags-2": (dict(N=40), dict(M=10, P=2, affine=True), 3, Regularizer("tv", 1.0)),
    # T*M = 60 transitions: as many as the channels, and more
    "square-tv": (dict(N=60), dict(M=10), 3, Regularizer("tv", 1.0)),
    "wide-tv": (dict(N=10), dict(M=20), 3, Regularizer("tv", 1.0)),
}


def range_case(name, seed=0):
    simulate, window, R, reg = RANGE_CASES[name]
    data = build_snapshots(simulate_switching(tau=60, sigma=0.5, seed=seed, **simulate).series, **window)
    return data, Hyperparams(R=R, eta=1.0 / data.N, reg=reg, seed=seed, max_outer_iters=15, rtol=0.0, atol=0.0)


def range_basis_oracle(A):
    """An orthonormal basis of the span of a data tensor's transitions from
    a test-side QR: the leading columns of Q, as many as the numerical rank."""
    C = A.reshape(A.shape[0], -1)
    return np.linalg.qr(C)[0][:, :np.linalg.matrix_rank(C)]


def basis_case(name):
    """A (channels, M, T) data tensor: random ones with 20 transitions and
    more, as many or fewer channels, the lagged affine predictors of
    ``affine-lags-2``, and a thin one of rank 6."""
    rng = np.random.default_rng(11)
    if name == "affine-lags":
        return range_case("affine-lags-2")[0].X
    if name == "rank-deficient-thin":
        return (rng.standard_normal((40, 6)) @ rng.standard_normal((6, 20))).reshape(40, 5, 4)
    return rng.standard_normal(({"thin": 40, "square": 20, "wide": 10}[name], 5, 4))


class TestRangeBases:
    """Each data tensor's range coordinates come from one eigendecomposition
    of its (M*T)^2 Gram when the channels outnumber the transitions, and the
    basis is the identity otherwise; a test-side QR is the oracle."""

    @pytest.mark.parametrize("name", ["thin", "square", "wide", "affine-lags", "rank-deficient-thin"])
    def test_bases_match_a_qr_oracle(self, name):
        A = basis_case(name)
        channels, M, T = A.shape
        C = A.reshape(channels, M * T)
        coordinates, basis = _range_coordinates(A)
        oracle = range_basis_oracle(A)
        rows = coordinates.shape[0]
        assert (basis is None) == (channels <= M * T)
        assert rows == (channels if basis is None else oracle.shape[1])
        assert rows == {"thin": 20, "square": 20, "wide": 10, "rank-deficient-thin": 6}.get(name, M * T)
        # the Gram of the range data is the channel-space Gram
        coordinate_rows = _transitions(coordinates)
        assert np.linalg.norm(coordinate_rows @ coordinate_rows.T - C.T @ C) <= 1e-12 * np.linalg.norm(C.T @ C)
        # the lifted basis is orthonormal, spans range(X) and carries the data
        Q = _to_channels(A, basis, np.eye(rows))
        assert np.linalg.norm(Q.T @ Q - np.eye(rows)) <= 1e-12
        assert np.linalg.norm(Q @ Q.T - oracle @ oracle.T) <= 1e-12
        assert np.linalg.norm(C - Q @ coordinate_rows.T) <= 1e-12 * np.linalg.norm(C)
        assert np.linalg.norm(_to_range(A, basis, C) - coordinate_rows.T) <= 1e-12 * np.linalg.norm(C)


class TestRangeSpaceFit:
    """``fit`` runs in orthonormal bases of range(X) and range(Y), the
    identity when the transitions are at least as many as the channels, and
    lifts U1 and U2 back once at the end."""

    @pytest.mark.parametrize("name", sorted(RANGE_CASES))
    def test_cost_trace_matches_full_data_updates(self, name):
        data, params = range_case(name)
        _, report = fit(data, params)
        oracle = full_data_trace(data, params, params.max_outer_iters)
        assert np.max(np.abs(np.array(report.cost_trace) - oracle) / np.abs(oracle)) <= 1e-8

    @pytest.mark.parametrize("name", sorted(RANGE_CASES))
    def test_lifted_factors_lie_in_the_ranges_and_score_on_the_full_data(self, name):
        data, params = range_case(name, seed=1)
        model, report = fit(data, params)
        for P, U in ((range_projector(data.Y), model.U1), (range_projector(data.X), model.U2)):
            assert np.linalg.norm(U - P @ U) <= 1e-12 * np.linalg.norm(U)
        assert report.cost_trace[-1] == pytest.approx(cost(model, data, params), rel=1e-12)
        assert report.rmse_trace[-1] == pytest.approx(rmse(model, data), rel=1e-12)

    def test_block_updates_see_range_coordinates(self, monkeypatch):
        seen = []
        original = lrtvar.solver.update_left

        def spy(model, data, params, products):
            seen.append((model.N, model.N_in, data.N, data.N_in))
            return original(model, data, params, products)

        monkeypatch.setattr(lrtvar.solver, "update_left", spy)
        data, params = range_case("affine-lags-2")
        fit(data, replace(params, max_outer_iters=2))
        # T*M = 50 transitions: a thin basis of the 81 inputs, a square one of the 40 outputs
        assert seen == [(40, 50, 40, 50)] * 2

    @pytest.mark.parametrize("name", ["switching-tv", "square-tv", "wide-tv"])
    def test_final_trace_entry_is_exactly_the_cost(self, name):
        data, params = range_case(name, seed=2)
        model, report = fit(data, params)
        assert report.cost_trace[-1] == cost(model, data, params)
        assert report.rmse_trace[-1] == rmse(model, data)

    def test_each_data_tensor_is_factored_once(self, monkeypatch):
        # no QR and no SVD; one eigh per Gram of side <= min(channels, M*T): of
        # both data tensors in thin bases (large_n, N=500), of X~X~' for the
        # spectral start's pinv in square ones (the cli workload's N=200), and
        # one of the spectral start's Gram
        cli = build_snapshots(simulate_switching(N=200, tau=200, sigma=0.5, seed=0).series, M=20)
        cases = (benchmark_setting("large_n") + (3,), (cli, Hyperparams(R=8, eta=1.0 / 200, max_outer_iters=5), 2))
        sides, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            sides.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: pytest.fail("fit called np.linalg.qr"))
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("fit called np.linalg.svd"))
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for data, params, grams in cases:
            sides.clear()
            fit(data, params)
            assert data.N_in == data.N and (data.N > data.M * data.T) == (grams == 3)
            assert len(sides) == grams
            assert all(side <= min(data.N, data.M * data.T) for side in sides)

    @pytest.mark.parametrize("seed", range(2))
    def test_ill_conditioned_thin_fit_matches_a_qr_basis_fit(self, seed, monkeypatch):
        # cond(X) = 1e10, singular values logspaced over 30 transitions: the
        # Gram keeps the 21 directions whose eigenvalue is above
        # 30 eps lam_max, and drops 9 whose share of ||X||^2 is below 1e-13,
        # which a test-side QR basis keeps.  In the kept directions just
        # above the cut the lifted basis is orthonormal only to about
        # eps lam_max / lam.  So the start, whose noise reaches them, costs
        # in range coordinates what its lift costs to 1.7e-5 and 1.0e-4
        # relative at seeds 0 and 1 (at most 1.0e-4 over seeds 0-5).  The
        # first sweep leaves little weight there: from the same start, the
        # same block updates in the QR basis give every later entry to at
        # most 7.6e-13 and the final cost to 2e-16 (seeds 0-5).  The fit
        # solves U2 by CG in 21 rows and the reference in 30, which with no
        # forcing term is an exact solve.
        monkeypatch.setattr(lrtvar.solver, "CG_FORCING", 0.0)
        rng = np.random.default_rng(seed)
        n, M, T = 60, 5, 6
        left = np.linalg.qr(rng.standard_normal((n, M * T)))[0]
        right = np.linalg.qr(rng.standard_normal((M * T, M * T)))[0]
        X = ((left * np.logspace(0, -10, M * T)) @ right.T).reshape(n, M, T)
        Y = 0.8 * X + 0.1 * rng.standard_normal((n, M, T))
        data = SnapshotPair(X=X, Y=Y)
        assert np.linalg.cond(X.reshape(n, -1)) == pytest.approx(1e10, rel=1e-3)
        params = Hyperparams(R=3, eta=0.5, reg=Regularizer("tv", 0.1), seed=seed, max_outer_iters=15,
                             rtol=0.0, atol=0.0)
        work = _range_data(data)
        assert (work.N_in, work.N) == (21, M * T)
        _, report = fit(data, params)

        (Q_x, R_x), (Q_y, R_y) = np.linalg.qr(X.reshape(n, -1)), np.linalg.qr(Y.reshape(n, -1))
        qr_pair = SnapshotPair(X=R_x.reshape(-1, M, T), Y=R_y.reshape(-1, M, T))
        start = initialize(data, params)
        start = CpFactors(Q_y.T @ start.U1, Q_x.T @ start.U2, start.U3)
        reference = full_data_trace(qr_pair, params, params.max_outer_iters, start)
        moved = np.abs(np.array(report.cost_trace) - reference) / reference
        assert moved[0] <= 1e-3 and moved[1:].max() <= 5e-12 and moved[-1] <= 1e-14

    def test_rank_deficient_thin_fit_keeps_the_numerical_rank(self):
        rng = np.random.default_rng(3)
        n, M, T, rank = 60, 5, 6, 7
        X = (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, M * T))).reshape(n, M, T)
        Y = (rng.standard_normal((n, rank + 2)) @ rng.standard_normal((rank + 2, M * T))).reshape(n, M, T)
        data = SnapshotPair(X=X, Y=Y)
        work = _range_data(data)
        assert (work.N_in, work.N) == (np.linalg.matrix_rank(X.reshape(n, -1)), np.linalg.matrix_rank(Y.reshape(n, -1)))
        assert (work.N_in, work.N) == (rank, rank + 2)
        params = Hyperparams(R=4, eta=0.5, reg=Regularizer("tv", 1.0), max_outer_iters=10)
        model, report = fit(data, params)
        for A, U in ((Y, model.U1), (X, model.U2)):
            basis = range_basis_oracle(A)
            assert np.linalg.norm(U - basis @ (basis.T @ U)) <= 1e-12 * np.linalg.norm(U)
        assert report.cost_trace[-1] == cost(model, data, params)

    @pytest.mark.parametrize("degenerate", ["zero-targets", "zeroed-window"])
    def test_degenerate_data_descends(self, degenerate):
        data, params = range_case("switching-tv", seed=2)
        X, Y = data.X.copy(), data.Y.copy()
        if degenerate == "zero-targets":
            Y[:] = 0.0
        else:
            X[:, :, 0] = 0.0
            Y[:, :, 0] = 0.0
        data = SnapshotPair(X=X, Y=Y)
        model, report = fit(data, params)
        trace = np.array(report.cost_trace)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) <= MONOTONE_SLACK * (1 + np.abs(trace[:-1])))
        assert report.cost_trace[-1] == pytest.approx(cost(model, data, params), rel=1e-12, abs=1e-300)


# the benchmark's fits: TV switching at N=10 (square bases), the fit in thin
# bases at N=500 (T*M = 200) and the spline fit with one transition per window
BENCHMARK_SETTINGS = {
    "switching": (simulate_switching, dict(N=10, tau=200, sigma=0.5), 20,
                  dict(R=8, eta=0.1, reg=Regularizer("tv", 5.0))),
    "large_n": (simulate_switching, dict(N=500, tau=200, sigma=0.5), 20,
                dict(R=4, eta=1.0 / 500, reg=Regularizer("tv", 1.0), max_outer_iters=60, rtol=0.0, atol=0.0)),
    "smooth": (simulate_smooth, dict(N=10, tau=160, sigma=0.2), 1,
               dict(R=4, eta=0.6, reg=Regularizer("spline", 600.0))),
}


def benchmark_setting(name, seed=0):
    simulate, size, M, knobs = BENCHMARK_SETTINGS[name]
    data = build_snapshots(simulate(seed=seed, **size).series, M=M)
    return data, Hyperparams(seed=seed, **knobs)


def half_energy(data):
    return 0.5 * float(np.sum(data.Y * data.Y))


class TestExtrapolation:
    """After each sweep ``fit`` tries U + it^(1/p) (U - U_prev) on all three
    factors and keeps it only if it lowers the cost; it takes every loss but
    the last from the U3 quadratic on the products X'U2 and Y'U1 it holds."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SETTINGS))
    def test_quadratic_loss_matches_the_residual(self, name):
        data, params = benchmark_setting(name)
        fitted, _ = fit(data, params)
        for model in (initialize(data, params), fitted):
            value = _quadratic_loss(model, _products(model, data), half_energy(data))
            assert value == pytest.approx(loss(model, data), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e3, 1e6])
    def test_quadratic_loss_error_is_relative_to_the_data(self, scale):
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=0)
        data = build_snapshots(TimeSeries(values=scale * truth.series.values), M=20)
        params = Hyperparams(R=8, eta=0.1 / scale**2, reg=Regularizer("tv", 5.0 * scale**2), seed=0)
        model, _ = fit(data, params)
        value = _quadratic_loss(model, _products(model, data), half_energy(data))
        assert abs(value - loss(model, data)) <= 1e-10 * half_energy(data)
        # a model that fits exactly: the rounding of the quadratic cannot take the loss below 0
        rng = np.random.default_rng(81)
        planted = random_model(rng, 4, 4, 5, 2)
        planted = replace(planted, U1=scale * planted.U1)
        exact = exact_data(rng, planted, M=6)
        value = _quadratic_loss(planted, _products(planted, exact), half_energy(exact))
        assert 0.0 <= value <= 1e-10 * half_energy(exact)

    @pytest.mark.parametrize("name", ["switching", "large_n"], ids=["square-range", "range-coordinates"])
    def test_final_trace_entry_is_the_direct_cost(self, name):
        data, params = benchmark_setting(name)
        model, report = fit(data, params)
        assert report.cost_trace[-1] == pytest.approx(cost(model, data, params), rel=1e-12)
        assert report.rmse_trace[-1] == pytest.approx(rmse(model, data), rel=1e-12)

    def test_trial_is_kept_only_when_it_lowers_the_cost(self, monkeypatch):
        data, params = benchmark_setting("switching")
        params = replace(params, max_outer_iters=15, rtol=0.0, atol=0.0)
        starts, sweeps, seen, last = [], [], [], []
        left, temporal = lrtvar.solver.update_left, lrtvar.solver.update_temporal
        lift = lrtvar.solver._change_spatial_basis

        def left_spy(model, data, knobs, products):
            starts.append(model)
            seen.append(data)
            return left(model, data, knobs, products)

        def temporal_spy(model, data, knobs, products):
            U3, inner = temporal(model, data, knobs, products)
            sweeps.append(replace(model, U3=U3))
            return U3, inner

        def lift_spy(model, work):
            last.append(model)
            return lift(model, work)

        monkeypatch.setattr(lrtvar.solver, "update_left", left_spy)
        monkeypatch.setattr(lrtvar.solver, "update_temporal", temporal_spy)
        monkeypatch.setattr(lrtvar.solver, "_change_spatial_basis", lift_spy)
        _, report = fit(data, params)
        # the iterate each outer iteration ended on, in the coordinates of the
        # updates; ``fit`` lifts the last one to the channels
        kept = starts[1:] + last
        data = seen[0]  # the data every update received
        assert all(d is data for d in seen)
        flags = [o.extrapolated for o in report.outer]
        assert len(flags) == len(sweeps) == len(kept) == params.max_outer_iters
        assert True in flags and False in flags
        root = 3
        def factors(model):
            return model.U1, model.U2, model.U3

        collapsed = 0
        for it, (flag, start, sweep, iterate) in enumerate(zip(flags, starts, sweeps, kept), start=1):
            # the components that are not live are exact zeros in the kept iterate, trial or not
            live = live_components(sweep)
            collapsed += np.any([S[:, ~live].any() for S in factors(sweep)])
            sweep = collapse(sweep)
            assert not any(U[:, ~live].any() for U in factors(iterate))
            if flag:
                steps = np.where(live, it ** (1.0 / root), 0.0)
                assert cost(iterate, data, params) < cost(sweep, data, params)
                for U, S, P in zip(factors(iterate), factors(sweep), factors(start)):
                    assert np.allclose(U, S + steps * (S - P), rtol=1e-12, atol=1e-12)
            else:
                root = min(root + 1, 6)
                assert all(np.array_equal(U, S) for U, S in zip(factors(iterate), factors(sweep)))
            assert report.cost_trace[it] == pytest.approx(cost(iterate, data, params), rel=1e-12)
        assert collapsed > 0  # the rule zeroed a sweep's component at least once

    def test_unused_components_collapse_to_zero(self):
        # four of the eight components are not needed; the sweeps drive them
        # below eps times the largest weight, the collapse rule sets them to
        # exact zeros, and the trial must not hold them at tiny sizes whose
        # products with the data are subnormal
        data, params = benchmark_setting("switching")
        model, report = fit(data, replace(params, max_outer_iters=30, rtol=0.0, atol=0.0))
        assert sum(o.extrapolated for o in report.outer) >= 10
        unused = ~model.U3.any(axis=0)
        assert unused.sum() == 4
        assert not model.U1[:, unused].any()
        for U in (model.U1, model.U2, model.U3):
            assert not np.any((U != 0) & (np.abs(U) < np.finfo(float).tiny))

    @pytest.mark.parametrize("name", ["switching", "cli-fit"])
    def test_no_iterate_holds_a_subnormal_entry(self, name, monkeypatch):
        # the iterate and products every outer iteration starts from, and the
        # model the fit returns: a collapsing component goes to exact zeros
        # after the sweep that takes it below eps times the largest weight,
        # not through subnormal sizes
        data, params = cli_setting(name) if name == "cli-fit" else benchmark_setting(name)
        params = replace(params, max_outer_iters=30, rtol=0.0, atol=0.0)
        original = lrtvar.solver.update_left
        seen = []

        def left_spy(model, data, knobs, products):
            seen.extend((model.U1, model.U2, model.U3, *products))
            return original(model, data, knobs, products)

        monkeypatch.setattr(lrtvar.solver, "update_left", left_spy)
        model, report = fit(data, params)
        assert report.iterations == 30 and len(seen) == 5 * 30
        subnormal = [int(np.sum((U != 0) & (np.abs(U) < np.finfo(float).tiny)))
                     for U in seen + [model.U1, model.U2, model.U3]]
        assert sum(subnormal) == 0, subnormal

    @pytest.mark.parametrize("path", ["square-range", "range-coordinates"])
    def test_four_data_contractions_per_outer_iteration(self, monkeypatch, path):
        # every contraction with the data views it through _transitions once;
        # the U2 CG operator views X once per application
        calls = {"all": 0, "operator": 0}
        transitions, operator = lrtvar.solver._transitions, lrtvar.solver._right_operator

        def counted_transitions(A):
            calls["all"] += 1
            return transitions(A)

        def counted_operator(*args, **kwargs):
            calls["operator"] += 1
            return operator(*args, **kwargs)

        monkeypatch.setattr(lrtvar.solver, "_transitions", counted_transitions)
        monkeypatch.setattr(lrtvar.solver, "_right_operator", counted_operator)
        # T*M = N = 60 gives square bases, N = 80 thin ones
        data, params = range_case("square-tv" if path == "square-range" else "switching-tv")

        def contractions(iterations):
            calls.update(all=0, operator=0)
            _, report = fit(data, replace(params, max_outer_iters=iterations, rtol=0.0, atol=0.0))
            assert calls["operator"] == sum(1 + o.right.steps for o in report.outer) > 0
            return calls["all"] - calls["operator"]

        assert contractions(7) - contractions(3) == 4 * 4

    def test_trial_outcome_is_logged_recorded_and_summarized(self, caplog):
        data, params = benchmark_setting("switching")
        with caplog.at_level(logging.INFO, logger="lrtvar.solver"):
            _, report = fit(data, params)
        flags = [o.extrapolated for o in report.outer]
        assert len(flags) == report.iterations and all(type(flag) is bool for flag in flags)
        assert True in flags and False in flags
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "lrtvar.solver"]
        assert len(lines) == report.iterations
        for line, flag in zip(lines, flags):
            assert re.search(rf" rmse=\S+ extrapolated={flag} left=", line), line
        assert f"extrapolated steps: {sum(flags)} of {report.iterations}" in report.summary().splitlines()


class TestWindowedSeriesLayout:
    """The contractions on tensors from ``build_snapshots``, whose memory is
    not C-ordered (N_in, M, T) as in ``random_data``: lags with an affine row
    (N_in = 2N + 1), and windows of a single transition."""

    @pytest.mark.parametrize(
        "M, P, affine, reg",
        [(4, 2, True, Regularizer("tv", 0.5)), (1, 1, False, Regularizer("spline", 2.0))],
        ids=["lags-affine", "single-transition-windows"],
    )
    def test_contractions_match_oracles(self, M, P, affine, reg, monkeypatch):
        rng = np.random.default_rng(80)
        N, T, R = 3, 5, 2
        data = build_snapshots(TimeSeries(rng.standard_normal((N, P + M * T))), M=M, P=P, affine=affine)
        assert data.N_in == N * P + affine and data.T == T
        model = random_model(rng, N, data.N_in, T, R)

        tight_cg(monkeypatch, 200)
        out, _ = update_right(model, data, Hyperparams(R=R, eta=0.5), _products(model, data))
        assert np.allclose(out, kron_oracle_right(model, data, eta=0.5), atol=1e-6)
        C, _, _ = _temporal_quadratic(model, data, _products(model, data))
        for k in range(T):
            assert np.allclose(C[k], temporal_window_matrix(model, data, k), rtol=1e-12, atol=1e-12)
        assert loss(model, data) == pytest.approx(loss_entrywise(model, data), rel=1e-12)

        params = Hyperparams(R=R, eta=0.5, reg=reg, max_outer_iters=8, seed=3)
        fitted, report = fit(data, params)
        assert report.cost_trace[-1] == cost(fitted, data, params)
        assert report.rmse_trace[-1] == rmse(fitted, data)


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(R=0, eta=1.0)
        with pytest.raises(Exception):
            Hyperparams(R=1, eta=0.0)
        with pytest.raises(ValueError):
            Hyperparams(R=1, eta=1.0, max_outer_iters=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Hyperparams(R=1, eta=float("nan")),
            lambda: Hyperparams(R=1, eta=float("inf")),
            lambda: Hyperparams(R=1, eta=1.0, rtol=float("nan")),
            lambda: Hyperparams(R=1, eta=1.0, atol=float("inf")),
            lambda: Regularizer("tv", float("nan")),
            lambda: Regularizer("tv", float("inf")),
            lambda: Regularizer("spline", float("-inf")),
            lambda: Hyperparams(R=1, eta=10**400),
        ],
        ids=[
            "eta-nan",
            "eta-inf",
            "rtol-nan",
            "atol-inf",
            "beta-nan",
            "beta-inf",
            "beta-neg-inf",
            "eta-int-beyond-float",
        ],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(NonFiniteError):
            make()

    @pytest.mark.parametrize(
        "changes",
        [{"R": 2.5}, {"R": True}, {"R": "2"}, {"max_outer_iters": 2.5}, {"seed": 1.5}, {"seed": -1}, {"seed": None}],
        ids=["R-float", "R-bool", "R-str", "max-outer-float", "seed-float", "seed-negative", "seed-none"],
    )
    def test_integer_knobs_validated_at_entry(self, changes):
        with pytest.raises(InvalidHyperparameterError):
            Hyperparams(**{"R": 2, "eta": 1.0, **changes})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Hyperparams(R=2, eta="0.1"),
            lambda: Hyperparams(R=2, eta=None),
            lambda: Hyperparams(R=2, eta=True),
            lambda: Hyperparams(R=2, eta=1.0, rtol=None),
            lambda: Hyperparams(R=2, eta=1.0, rtol=False),
            lambda: Hyperparams(R=2, eta=1.0, atol="x"),
            lambda: Hyperparams(R=2, eta=1.0, atol=1j),
            lambda: Regularizer("tv", "1"),
            lambda: Regularizer("tv", None),
            lambda: Regularizer("tv", True),
            lambda: Regularizer("spline", np.bool_(True)),
            lambda: Regularizer("tv", -1.0),
            lambda: Regularizer("lasso", 1.0),
        ],
        ids=["eta-str", "eta-none", "eta-bool", "rtol-none", "rtol-bool", "atol-str", "atol-complex", "beta-str",
             "beta-none", "beta-bool", "beta-numpy-bool", "beta-negative", "kind-unknown"],
    )
    def test_real_knobs_validated_at_entry(self, make):
        with pytest.raises(InvalidHyperparameterError):
            make()

    @pytest.mark.parametrize(
        "changes, message",
        [({"rtol": -1}, "rtol must be >= 0, got -1"), ({"atol": -0.5}, "atol must be >= 0, got -0.5"),
         ({"R": 0}, "R must be an integer >= 1, got 0"), ({"seed": -1}, "seed must be an integer >= 0, got -1")],
        ids=["rtol", "atol", "R", "seed"],
    )
    def test_out_of_range_knob_is_named(self, changes, message):
        with pytest.raises(InvalidHyperparameterError, match=message):
            Hyperparams(**{"R": 2, "eta": 1.0, **changes})

    def test_real_knobs_accept_any_real_number(self):
        p = Hyperparams(R=2, eta=np.float32(0.5), rtol=0, atol=np.int64(1), reg=Regularizer("tv", 2))
        assert (p.eta, p.rtol, p.atol, p.reg.beta) == (0.5, 0.0, 1.0, 2.0)
        assert all(type(v) is float for v in (p.eta, p.rtol, p.atol, p.reg.beta))

    def test_numpy_integers_accepted(self):
        p = Hyperparams(R=np.int64(2), eta=1.0, max_outer_iters=np.int32(3), seed=np.uint8(4))
        assert p.R == 2 and p.seed == 4

    def test_defaults_match_documented_values(self):
        p = Hyperparams(R=2, eta=1.0)
        assert p.rtol == 1e-4 and p.atol == 1e-6
        assert CG_MAX_STEPS == 24 and TV_MAX_STEPS == 40
        assert p.max_outer_iters == 1000


# Edge-case grid: N, tau, M, R, lags, affine, penalty, first window zeroed,
# scale (series x 1e160 or x 1e-170, eta = 1e-300, beta = 1e300).
EDGE_SCALES = ("unit", "series-1e160", "series-1e-170", "eta-1e-300", "beta-1e300")
EDGE_GRID = list(itertools.product((1, 3), (6, 40), (1, 5, 40), (1, 4), (1, 2), (False, True),
                                   ("none", "tv", "spline"), (False, True), EDGE_SCALES))


@pytest.mark.filterwarnings("error")
def test_edge_case_sweep():
    """Every sampled case gives finite, non-increasing traces or raises a
    named ``LrtvarError`` (a series too short for one window, all-zero
    predictors, or scales float64 cannot carry); no case fails with another
    exception or a warning."""
    rng = np.random.default_rng(2026)
    outcomes = set()
    for i in rng.choice(len(EDGE_GRID), size=800, replace=False):
        N, tau, M, R, lags, affine, kind, zero_first, scale = case = EDGE_GRID[i]
        values = rng.standard_normal((N, tau + 1)) * {"series-1e160": 1e160, "series-1e-170": 1e-170}.get(scale, 1.0)
        if zero_first:
            values[:, : M + lags] = 0.0
        eta = 1e-300 if scale == "eta-1e-300" else 0.5
        beta = 1e300 if scale == "beta-1e300" else 2.0
        try:
            data = build_snapshots(TimeSeries(values), M=M, P=lags, affine=affine)
            _, report = fit(data, Hyperparams(R=R, eta=eta, reg=Regularizer(kind, beta), max_outer_iters=10))
        except LrtvarError as exc:
            outcomes.add(type(exc).__name__)
            continue
        trace = np.array(report.cost_trace)
        assert np.all(np.isfinite(trace)) and np.all(np.isfinite(report.rmse_trace)), case
        assert np.all(np.diff(trace) <= 1e-8 * (1 + np.abs(trace[:-1]))), case
        outcomes.add("fit")
    assert outcomes == {"fit", "SeriesTooShortError", "DegenerateDataError", "ExtremeScaleError"}

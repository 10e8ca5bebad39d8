import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest

from lrtvar.cp_model import CpFactors
from lrtvar.errors import DegenerateDataError, DimensionMismatchError, ExtremeScaleError, LrtvarError, NonFiniteError
import lrtvar.solver
from lrtvar.regularizers import Regularizer, tv_prox_columns
from lrtvar.solver import (
    Hyperparams,
    cost,
    fit,
    grad_left,
    grad_right,
    grad_temporal,
    initialize,
    loss,
    rmse,
    update_left,
    update_right,
    update_temporal,
    _spectral_factors,
    _temporal_quadratic,
)
from lrtvar.evaluation import model_estimate, operator_norm_error
from lrtvar.synthetic import simulate_switching
from lrtvar.windowing import SnapshotPair, TimeSeries, build_snapshots


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
        M=M,
        T=T,
        affine=N_in == N + 1,
    )


def exact_data(rng, model, M):
    """SnapshotPair whose targets are generated exactly by the model."""
    X = rng.standard_normal((model.N_in, M, model.T))
    Y = np.stack([model.slice(k) @ X[:, :, k] for k in range(model.T)], axis=2)
    return SnapshotPair(X=X, Y=Y, M=M, T=model.T)


def loss_entrywise(model, data):
    total = 0.0
    for k in range(data.T):
        A = model.slice(k)
        for j in range(data.M):
            for i in range(data.N):
                pred = float(A[i] @ data.X[:, j, k])
                total += (data.Y[i, j, k] - pred) ** 2
    return 0.5 * total


def smooth_cost(model, data, params):
    """Loss + ridge + spline part (the smooth piece the gradients refer to)."""
    from lrtvar.regularizers import spline_penalty, tikhonov_penalty

    value = loss(model, data) + tikhonov_penalty(model.U1, model.U2, model.U3, params.eta)
    if params.reg.kind == "spline":
        value += params.reg.beta * spline_penalty(model.U3)
    return value


def fd_gradient(func, mat, h=1e-5):
    """Central finite differences of a scalar function of one matrix."""
    g = np.zeros_like(mat)
    it = np.nditer(mat, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = mat[idx]
        mat[idx] = orig + h
        up = func()
        mat[idx] = orig - h
        down = func()
        mat[idx] = orig
        g[idx] = (up - down) / (2 * h)
        it.iternext()
    return g


class TestLoss:
    def test_zero_model_zero_data(self):
        model = CpFactors(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((3, 1)))
        data = SnapshotPair(X=np.ones((2, 4, 3)), Y=np.zeros((2, 4, 3)), M=4, T=3)
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
        from lrtvar.regularizers import tikhonov_penalty, tv_penalty

        rng = np.random.default_rng(45)
        model = random_model(rng, 3, 3, 5, 2)
        data = random_data(rng, 3, 4, 5)
        params = Hyperparams(R=2, eta=0.7, reg=Regularizer("tv", 1.3))
        expected = (
            loss(model, data)
            + tikhonov_penalty(model.U1, model.U2, model.U3, 0.7)
            + 1.3 * tv_penalty(model.U3)
        )
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
        U1_new = update_left(perturbed, data, eta=1e12)
        assert np.allclose(U1_new, model.U1, atol=1e-5)

    def test_never_increases_cost(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            model = random_model(rng, 4, 4, 3, 2)
            data = random_data(rng, 4, 5, 3)
            params = Hyperparams(R=2, eta=0.5)
            before = cost(model, data, params)
            model2 = CpFactors(update_left(model, data, 0.5), model.U2, model.U3)
            assert cost(model2, data, params) <= before + 1e-12 * (1 + before)

    def test_fd_gradient_vanishes_at_update(self):
        rng = np.random.default_rng(49)
        model = random_model(rng, 4, 4, 3, 2)
        data = random_data(rng, 4, 6, 3)
        params = Hyperparams(R=2, eta=0.8)
        model = CpFactors(update_left(model, data, 0.8), model.U2, model.U3)
        g = fd_gradient(lambda: smooth_cost(model, data, params), model.U1)
        assert np.linalg.norm(g) <= 1e-8


def kron_oracle_right(model, data, eta):
    """Dense solve of the vectorized normal equations for U2 (column-major vec)."""
    N_in, R = model.N_in, model.R
    P = model.U1.T @ model.U1
    A = np.zeros((N_in * R, N_in * R))
    B = np.zeros((N_in, R))
    for k in range(data.T):
        Xk = data.X[:, :, k]
        Lk = Xk @ Xk.T
        d = model.U3[k]
        Rk = P * np.outer(d, d)
        A += np.kron(Rk.T, Lk)
        B += Xk @ data.Y[:, :, k].T @ (model.U1 * d)
    A += np.eye(N_in * R) / eta
    vec = np.linalg.solve(A, B.flatten(order="F"))
    return vec.reshape((N_in, R), order="F")


def temporal_dense_oracle(model, data, eta):
    """Per-window dense Hadamard normal equations for the unsmoothed U3."""
    R = model.R
    P = model.U1.T @ model.U1
    U3 = np.zeros((data.T, R))
    for k in range(data.T):
        Gk = model.U2.T @ data.X[:, :, k]
        Lk = Gk @ Gk.T
        A = Lk * P + np.eye(R) / eta
        b = np.diag(model.U2.T @ data.X[:, :, k] @ data.Y[:, :, k].T @ model.U1)
        U3[k] = np.linalg.solve(A, b)
    return U3


def temporal_window_matrix(model, data, k):
    """C_k = (U2'X_k X_k'U2) * (U1'U1), the loss Hessian of window k in U3."""
    Gk = model.U2.T @ data.X[:, :, k]
    return (Gk @ Gk.T) * (model.U1.T @ model.U1)


def spline_dense_oracle(model, data, eta, beta):
    """Dense solve of blockdiag(C_k + I/eta) + beta (D'D kron I_R) for the
    spline-smoothed U3, with U3 vectorized row by row (window-major)."""
    T, R = model.T, model.R
    A = np.zeros((T * R, T * R))
    rhs = np.zeros(T * R)
    for k in range(T):
        block = slice(k * R, (k + 1) * R)
        A[block, block] = temporal_window_matrix(model, data, k) + np.eye(R) / eta
        rhs[block] = np.diag(model.U2.T @ data.X[:, :, k] @ data.Y[:, :, k].T @ model.U1)
    D = np.eye(T - 1, T) - np.eye(T - 1, T, k=1)
    A += beta * np.kron(D.T @ D, np.eye(R))
    return np.linalg.solve(A, rhs).reshape(T, R)


class TestUpdateRight:
    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            N = int(rng.integers(2, 9))
            R = int(rng.integers(1, 4))
            T = int(rng.integers(2, 5))
            M = int(rng.integers(2, 7))
            model = random_model(rng, N, N, T, R)
            data = random_data(rng, N, M, T)
            ref = kron_oracle_right(model, data, eta=0.5)
            out, _ = update_right(model, data, eta=0.5, max_iters=200, tol=1e-13)
            assert np.allclose(out, ref, atol=1e-6), (N, R, T, M)

    def test_never_increases_cost_beyond_slack(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            model = random_model(rng, 5, 5, 3, 2)
            data = random_data(rng, 5, 4, 3)
            params = Hyperparams(R=2, eta=0.5)
            before = cost(model, data, params)
            U2, _ = update_right(model, data, 0.5)
            model2 = CpFactors(model.U1, U2, model.U3)
            after = cost(model2, data, params)
            assert after <= before + 1e-8 * (1 + abs(before))

    def test_exact_data_fixed_point(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 4, 4, 4, 2)
        data = exact_data(rng, model, M=8)
        perturbed = CpFactors(model.U1, model.U2 + 0.3 * rng.standard_normal((4, 2)), model.U3)
        U2_new, _ = update_right(perturbed, data, eta=1e12, max_iters=100, tol=1e-13)
        assert np.allclose(U2_new, model.U2, atol=1e-4)


class TestUpdateTemporal:
    def test_beta_zero_matches_dense_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            N = int(rng.integers(2, 7))
            R = int(rng.integers(1, 4))
            T = int(rng.integers(2, 6))
            model = random_model(rng, N, N, T, R)
            data = random_data(rng, N, 5, T)
            params = Hyperparams(R=R, eta=0.8)
            out, _ = update_temporal(model, data, params)
            ref = temporal_dense_oracle(model, data, eta=0.8)
            assert np.allclose(out, ref, atol=1e-10)

    def test_beta_zero_fd_gradient_vanishes(self):
        rng = np.random.default_rng(54)
        model = random_model(rng, 4, 4, 4, 2)
        data = random_data(rng, 4, 5, 4)
        params = Hyperparams(R=2, eta=0.9)
        U3, _ = update_temporal(model, data, params)
        model = CpFactors(model.U1, model.U2, U3)
        g = fd_gradient(lambda: smooth_cost(model, data, params), model.U3)
        assert np.linalg.norm(g) <= 1e-8

    def test_tv_saturation_matches_constant_minimizer(self):
        rng = np.random.default_rng(55)
        model = random_model(rng, 3, 3, 6, 2)
        data = random_data(rng, 3, 4, 6)
        params = Hyperparams(R=2, eta=0.5, reg=Regularizer("tv", 1e8), pg_max_iters=200)
        U3, _ = update_temporal(model, data, params)
        assert np.all(np.abs(U3 - U3[0]) < 1e-6)
        # unique minimizer over constant-column matrices
        C, b = _temporal_quadratic(model, data)
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
            U3, _ = update_temporal(model, data, params)
            after = cost(CpFactors(model.U1, model.U2, U3), data, params)
            assert after <= before + 1e-8 * (1 + abs(before))

    def test_spline_matches_dense_block_tridiagonal_oracle(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            N = int(rng.integers(2, 7))
            R = int(rng.integers(1, 4))
            T = int(rng.integers(2, 9))
            model = random_model(rng, N, N, T, R)
            data = random_data(rng, N, 4, T)
            params = Hyperparams(R=R, eta=0.7, reg=Regularizer("spline", 2.0), cg_max_iters=500)
            out, _ = update_temporal(model, data, params)
            ref = spline_dense_oracle(model, data, eta=0.7, beta=2.0)
            assert np.allclose(out, ref, atol=1e-6), (N, R, T)

    def test_tv_reaches_prox_gradient_fixed_point(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            model = random_model(rng, 4, 4, 6, 2)
            data = random_data(rng, 4, 5, 6)
            params = Hyperparams(R=2, eta=0.7, reg=Regularizer("tv", 1.5), pg_max_iters=5000)
            U3, _ = update_temporal(model, data, params)
            C = np.stack([temporal_window_matrix(model, data, k) for k in range(data.T)])
            L = max(np.linalg.eigvalsh(Ck).max() for Ck in C) + 1 / 0.7
            g = grad_temporal(CpFactors(model.U1, model.U2, U3), data, params)
            assert np.linalg.norm(U3 - tv_prox_columns(U3 - g / L, 1.5 / L)) <= 1e-8

    def test_tv_never_increases_cost(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            model = random_model(rng, 4, 4, 5, 2)
            data = random_data(rng, 4, 4, 5)
            params = Hyperparams(R=2, eta=0.7, reg=Regularizer("tv", 1.5))
            before = cost(model, data, params)
            U3, _ = update_temporal(model, data, params)
            after = cost(CpFactors(model.U1, model.U2, U3), data, params)
            assert after <= before + 1e-8 * (1 + abs(before))

    def test_tv_fixed_point_takes_one_prox_per_iteration(self, monkeypatch):
        # criterion-1 instance, seed 1: rounding at the converged U3 must not
        # restart momentum, which would cost a second prox call
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=1)
        data = build_snapshots(truth.series, M=20)
        params = Hyperparams(R=8, eta=0.1, reg=Regularizer("tv", 5.0), seed=1, max_outer_iters=3)
        model, _ = fit(data, params)
        U3, _ = update_temporal(model, data, replace(params, pg_max_iters=3000))
        model = CpFactors(model.U1, model.U2, U3)
        calls = []

        def counted(*args):
            calls.append(args)
            return tv_prox_columns(*args)

        monkeypatch.setattr(lrtvar.solver, "tv_prox_columns", counted)
        update_temporal(model, data, params)
        assert len(calls) == params.pg_max_iters


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
            cases = [
                (grad_left(model, data, 0.6), model.U1),
                (grad_right(model, data, 0.6), model.U2),
                (grad_temporal(model, data, params), model.U3),
            ]
            for analytic, block in cases:
                numeric = fd_gradient(lambda: smooth_cost(model, data, params), block)
                denom = max(np.linalg.norm(numeric), 1.0)
                assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


class TestInitialize:
    def test_orthonormal_spatial_modes_without_noise(self):
        rng = np.random.default_rng(59)
        data = random_data(rng, 4, 10, 3)
        model = CpFactors(*_spectral_factors(data, 4))
        assert np.allclose(model.U1.T @ model.U1, np.eye(4), atol=1e-10)
        assert np.allclose(model.U2.T @ model.U2, np.eye(4), atol=1e-10)

    def test_temporal_init_constant_unit_columns(self):
        rng = np.random.default_rng(60)
        data = random_data(rng, 3, 8, 5)
        model = CpFactors(*_spectral_factors(data, 2))
        assert np.allclose(model.U3, 1 / np.sqrt(5), atol=1e-15)
        assert np.allclose(np.linalg.norm(model.U3, axis=0), 1.0, atol=1e-12)

    def test_rank_above_dimension_padded(self):
        rng = np.random.default_rng(61)
        data = random_data(rng, 3, 8, 4)
        model = CpFactors(*_spectral_factors(data, 6))
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
        data = SnapshotPair(X=np.zeros((2, 3, 2)), Y=np.zeros((2, 3, 2)), M=3, T=2)
        with pytest.raises(DegenerateDataError):
            initialize(data, Hyperparams(R=1, eta=1.0))

    def test_factored_init_matches_naive_pinv_svd(self):
        # the memory-lean construction must agree with svd(Y @ pinv(X))
        rng = np.random.default_rng(63)
        data = random_data(rng, 5, 7, 3)
        model = CpFactors(*_spectral_factors(data, 3))
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
        scaled = SnapshotPair(X=4.0 * data.X, Y=4.0 * data.Y, M=data.M, T=data.T)
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
        ],
        ids=["series-1e160", "eta-1e-300", "spline-beta-1e300", "series-1e-170"],
    )
    def test_extreme_scales_rejected_at_entry(self, scale, changes):
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=0)
        data = build_snapshots(TimeSeries(values=scale * truth.series.values), M=20)
        params = replace(Hyperparams(R=8, eta=0.1, seed=0), **changes)
        with pytest.raises(ExtremeScaleError, match="standardize"):
            fit(data, params)

    def test_logs_one_line_per_outer_iteration(self, caplog):
        rng = np.random.default_rng(72)
        data = random_data(rng, 3, 5, 3)
        with caplog.at_level(logging.INFO, logger="lrtvar.solver"):
            _, report = fit(data, Hyperparams(R=2, eta=0.5, seed=1, max_outer_iters=4))
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "lrtvar.solver"]
        assert report.iterations == 4
        assert [line.split(":")[0] for line in lines] == ["iter 1", "iter 2", "iter 3", "iter 4"]
        assert lines[-1].startswith(f"iter 4: cost={report.cost_trace[-1]:.17g} rmse={report.rmse_trace[-1]:.17g} ")

    def test_trace_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        data = random_data(rng, 3, 5, 3)
        _, report = fit(data, Hyperparams(R=2, eta=0.5, seed=1, max_outer_iters=5))
        path = tmp_path / "trace.csv"
        report.write_trace_csv(path, manifest="m")
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        assert rows.shape[1] == 3
        assert np.allclose(rows[:, 1], report.cost_trace)


class TestWindowedSeriesLayout:
    """The contractions on tensors from ``build_snapshots``, whose memory is
    not C-ordered (N_in, M, T) as in ``random_data``: lags with an affine row
    (N_in = 2N + 1), and windows of a single transition."""

    @pytest.mark.parametrize(
        "M, P, affine, reg",
        [(4, 2, True, Regularizer("tv", 0.5)), (1, 1, False, Regularizer("spline", 2.0))],
        ids=["lags-affine", "single-transition-windows"],
    )
    def test_contractions_match_oracles(self, M, P, affine, reg):
        rng = np.random.default_rng(80)
        N, T, R = 3, 5, 2
        data = build_snapshots(TimeSeries(rng.standard_normal((N, P + M * T))), M=M, P=P, affine=affine)
        assert data.N_in == N * P + affine and data.T == T
        model = random_model(rng, N, data.N_in, T, R)

        out, _ = update_right(model, data, eta=0.5, max_iters=200, tol=1e-13)
        assert np.allclose(out, kron_oracle_right(model, data, eta=0.5), atol=1e-6)
        C, _ = _temporal_quadratic(model, data)
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
        ],
        ids=[
            "eta-nan",
            "eta-inf",
            "rtol-nan",
            "atol-inf",
            "beta-nan",
            "beta-inf",
            "beta-neg-inf",
        ],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(NonFiniteError):
            make()

    def test_defaults_match_documented_values(self):
        p = Hyperparams(R=2, eta=1.0)
        assert p.rtol == 1e-4 and p.atol == 1e-6
        assert p.cg_max_iters == 24 and p.pg_max_iters == 40
        assert p.max_outer_iters == 1000


# Edge-case grid: N, tau, M, R, lags, affine, penalty, first window zeroed.
EDGE_GRID = list(itertools.product((1, 3), (6, 40), (1, 5, 40), (1, 4), (1, 2), (False, True),
                                   ("none", "tv", "spline"), (False, True)))


@pytest.mark.filterwarnings("error")
def test_edge_case_sweep():
    """Every sampled case gives finite, non-increasing traces or raises a
    named ``LrtvarError`` (a series too short for one window, or all-zero
    predictors); no case fails with another exception or a warning."""
    rng = np.random.default_rng(2026)
    outcomes = set()
    for i in rng.choice(len(EDGE_GRID), size=160, replace=False):
        N, tau, M, R, lags, affine, kind, zero_first = case = EDGE_GRID[i]
        values = rng.standard_normal((N, tau + 1))
        if zero_first:
            values[:, : M + lags] = 0.0
        try:
            data = build_snapshots(TimeSeries(values), M=M, P=lags, affine=affine)
            _, report = fit(data, Hyperparams(R=R, eta=0.5, reg=Regularizer(kind, 2.0), max_outer_iters=10))
        except LrtvarError as exc:
            outcomes.add(type(exc).__name__)
            continue
        trace = np.array(report.cost_trace)
        assert np.all(np.isfinite(trace)) and np.all(np.isfinite(report.rmse_trace)), case
        assert np.all(np.diff(trace) <= 1e-8 * (1 + np.abs(trace[:-1]))), case
        outcomes.add("fit")
    assert outcomes == {"fit", "SeriesTooShortError", "DegenerateDataError"}

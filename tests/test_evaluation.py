import numpy as np
import pytest

from lrtvar.cp_model import CpFactors
from lrtvar.errors import DegenerateWindowError, ShapeMismatchError
from lrtvar.evaluation import (
    WindowedEstimate,
    _kmeans_single,
    cluster_temporal_modes,
    independent_fit,
    model_estimate,
    operator_norm_error,
    truth_window_average,
)
from lrtvar.synthetic import GroundTruth, simulate_switching
from lrtvar.windowing import SnapshotPair, TimeSeries, build_snapshots


def stacked_truth(truth):
    """All per-transition truth matrices as an (n_transitions, N, N) array."""
    return np.stack([truth.matrix_at(t) for t in range(truth.n_transitions)])


def stationary_data(rng, A, M, T, sigma=0.0):
    """Trajectory under one fixed matrix A, optionally noisy."""
    N = A.shape[0]
    x = rng.standard_normal(N)
    x *= np.sqrt(N) / np.linalg.norm(x)
    cols = [x]
    for _ in range(M * T):
        cols.append(A @ cols[-1])
    values = np.stack(cols, axis=1)
    values = values + sigma * rng.standard_normal(values.shape)
    return build_snapshots(TimeSeries(values=values), M=M)


def truth_from_constant(A, n_transitions, sigma, series):
    return GroundTruth(
        series=series,
        unique_matrices=[A],
        matrix_index=np.zeros(n_transitions, dtype=int),
        sigma=sigma,
    )


class TestIndependentFit:
    def test_stationary_exact_recovery(self):
        # rank-2 rotation data lives on a plane, which leaves the fit
        # underdetermined off it; a full-rank orthogonal A avoids that
        rng = np.random.default_rng(80)
        A = 0.9 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
        data = stationary_data(rng, A, M=12, T=3)
        est = independent_fit(data)
        for k in range(3):
            resid = est.matrices[k] @ data.X[:, :, k] - data.Y[:, :, k]
            assert np.abs(resid).max() <= 1e-8

    def test_rank_equal_dimension_matches_full(self):
        rng = np.random.default_rng(81)
        A = 0.8 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
        data = stationary_data(rng, A, M=10, T=2, sigma=0.2)
        full = independent_fit(data)
        truncated = independent_fit(data, rank=3)
        assert np.allclose(full.matrices, truncated.matrices, atol=1e-8)

    def test_truncated_beats_full_under_noise(self):
        # rank-2 ground truth, sigma=0.5: truncation denoises
        wins = 0
        for seed in range(10):
            truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=seed)
            data = build_snapshots(truth.series, M=20)
            e_full = operator_norm_error(independent_fit(data), truth)
            e_r2 = operator_norm_error(independent_fit(data, rank=2), truth)
            wins += int(e_r2 < e_full)
        assert wins >= 8

    def test_full_fit_is_per_window_least_squares(self):
        # normal-equations oracle: A_k minimizes ||Y_k - A X_k||_F
        rng = np.random.default_rng(82)
        data = SnapshotPair(X=rng.standard_normal((3, 8, 2)), Y=rng.standard_normal((3, 8, 2)), M=8, T=2)
        est = independent_fit(data)
        for k in range(2):
            Xk, Yk = data.X[:, :, k], data.Y[:, :, k]
            ref = np.linalg.solve(Xk @ Xk.T, Xk @ Yk.T).T
            assert np.allclose(est.matrices[k], ref, atol=1e-9)

    def test_zero_window_rejected(self):
        data = SnapshotPair(X=np.zeros((2, 4, 1)), Y=np.ones((2, 4, 1)), M=4, T=1)
        with pytest.raises(DegenerateWindowError):
            independent_fit(data)

    def test_truncation_needs_plain_data(self):
        rng = np.random.default_rng(83)
        data = SnapshotPair(
            X=np.concatenate([rng.standard_normal((2, 4, 2)), np.ones((1, 4, 2))]),
            Y=rng.standard_normal((2, 4, 2)),
            M=4,
            T=2,
            affine=True,
        )
        with pytest.raises(ValueError):
            independent_fit(data, rank=1)


class TestOperatorNormError:
    def test_zero_for_exact_estimate(self):
        truth = simulate_switching(N=4, tau=40, sigma=0.1, seed=84)
        est = WindowedEstimate(matrices=stacked_truth(truth), method="truth")
        assert operator_norm_error(est, truth) == 0.0

    def test_scaled_identity_shift(self):
        truth = simulate_switching(N=4, tau=40, sigma=0.1, seed=85)
        eps = 0.37
        est = WindowedEstimate(matrices=stacked_truth(truth) + eps * np.eye(4), method="shifted")
        assert operator_norm_error(est, truth) == pytest.approx(eps, abs=1e-12)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(86)
        truth = simulate_switching(N=5, tau=20, sigma=0.2, seed=86)
        est = WindowedEstimate(matrices=stacked_truth(truth) + 0.3 * rng.standard_normal((20, 5, 5)), method="x")
        expected = 0.0
        for t in range(20):
            diff = est.matrices[t] - truth.matrix_at(t)
            expected += np.sqrt(np.linalg.eigvalsh(diff.T @ diff).max())
        expected /= 20
        assert operator_norm_error(est, truth) == pytest.approx(expected, abs=1e-8)

    def test_window_averaging(self):
        truth = simulate_switching(N=3, tau=40, sigma=0.1, seed=87)
        # 4 windows of 10 transitions; windows 0-1 pure A1, 2-3 pure A2
        per_window = truth_window_average(truth, T=4)
        assert np.allclose(per_window[0], truth.unique_matrices[0])
        assert np.allclose(per_window[3], truth.unique_matrices[1])
        est = WindowedEstimate(matrices=per_window, method="avg")
        assert operator_norm_error(est, truth) == pytest.approx(0.0, abs=1e-14)

    def test_shape_mismatch(self):
        truth = simulate_switching(N=3, tau=40, sigma=0.1, seed=88)
        est = WindowedEstimate(matrices=np.zeros((7, 3, 3)), method="bad")
        with pytest.raises(ShapeMismatchError):
            operator_norm_error(est, truth)

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(89)
        truth = simulate_switching(N=4, tau=20, sigma=0.1, seed=89)
        base = stacked_truth(truth)
        a = WindowedEstimate(base + 0.2 * rng.standard_normal(base.shape), "a")
        b = WindowedEstimate(base + 0.2 * rng.standard_normal(base.shape), "b")
        truth_a = GroundTruth(series=truth.series, unique_matrices=list(a.matrices), matrix_index=np.arange(20), sigma=0)
        truth_b = GroundTruth(series=truth.series, unique_matrices=list(b.matrices), matrix_index=np.arange(20), sigma=0)
        d_ab = operator_norm_error(a, truth_b)
        d_ba = operator_norm_error(b, truth_a)
        assert d_ab == pytest.approx(d_ba, rel=1e-12)
        c = WindowedEstimate(base + 0.2 * rng.standard_normal(base.shape), "c")
        truth_c = GroundTruth(series=truth.series, unique_matrices=list(c.matrices), matrix_index=np.arange(20), sigma=0)
        assert operator_norm_error(a, truth_c) <= operator_norm_error(a, truth_b) + operator_norm_error(b, truth_c) + 1e-12


class TestModelEstimate:
    def test_zero_model(self):
        model = CpFactors(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((4, 2)))
        est = model_estimate(model)
        assert est.method == "lowrank-r2"
        assert np.array_equal(est.matrices, np.zeros((4, 3, 3)))

    def test_matches_slices(self):
        rng = np.random.default_rng(90)
        model = CpFactors(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), rng.standard_normal((5, 2)))
        est = model_estimate(model)
        for k in range(5):
            assert np.array_equal(est.matrices[k], model.slice(k))


class TestClustering:
    def test_two_exact_blocks(self):
        U3 = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 3)
        labels = cluster_temporal_modes(U3, k=2, seed=0)
        assert np.array_equal(labels, [0, 0, 0, 0, 1, 1, 1])

    def test_k_one(self):
        rng = np.random.default_rng(91)
        labels = cluster_temporal_modes(rng.standard_normal((6, 3)), k=1, seed=0)
        assert np.array_equal(labels, np.zeros(6, dtype=int))

    def test_first_occurrence_canonicalization(self):
        rng = np.random.default_rng(92)
        U3 = np.concatenate([rng.normal(5, 0.1, (3, 2)), rng.normal(-5, 0.1, (4, 2))])
        for seed in range(5):
            labels = cluster_temporal_modes(U3, k=2, seed=seed)
            assert labels[0] == 0
            assert np.array_equal(labels, [0, 0, 0, 1, 1, 1, 1])

    def test_objective_non_increasing_within_run(self):
        rng = np.random.default_rng(93)
        X = rng.standard_normal((40, 3))
        for seed in range(5):
            _, _, history = _kmeans_single(X, 4, np.random.default_rng(seed))
            assert np.all(np.diff(history) <= 1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(94)
        X = rng.standard_normal((15, 2))
        a = cluster_temporal_modes(X, k=3, seed=7)
        b = cluster_temporal_modes(X, k=3, seed=7)
        assert np.array_equal(a, b)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            cluster_temporal_modes(np.zeros((3, 1)), k=4)
        with pytest.raises(ValueError):
            cluster_temporal_modes(np.zeros((3, 1)), k=0)

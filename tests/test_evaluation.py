import tracemalloc

import numpy as np
import pytest

from lrtvar.cp_model import CpFactors
from lrtvar.errors import DegenerateWindowError, ShapeMismatchError
from lrtvar.evaluation import (
    PINV_RTOL,
    WindowedEstimate,
    _kmeans_single,
    cluster_temporal_modes,
    independent_fit,
    model_estimate,
    operator_norm_error,
    truth_window_average,
)
from lrtvar.synthetic import GroundTruth, factor_blocks, simulate_smooth, simulate_switching
from lrtvar.windowing import SnapshotPair, TimeSeries, build_snapshots


def stacked_truth(truth):
    """All per-transition truth matrices as an (n_transitions, N, N) array."""
    return np.stack([truth.matrix_at(t) for t in range(truth.n_transitions)])


def looped_window_average(truth, T, M):
    """Per-window truth as a Python average over each window's transitions."""
    return [sum(truth.matrix_at(t) for t in range(k * M, (k + 1) * M)) / M for k in range(T)]


def dense(est):
    """The (T, N, N_in) stack of an estimate's windowed matrices."""
    return est.left @ est.right.transpose(0, 2, 1)


def estimate_of(matrices):
    """Dense (T, N, N_in) matrices as the exact factor pairs (A_k, I)."""
    matrices = np.asarray(matrices, dtype=float)
    T, _, n_in = matrices.shape
    return WindowedEstimate(left=matrices, right=np.broadcast_to(np.eye(n_in), (T, n_in, n_in)))


def truth_of(series, matrices):
    """A ground truth with one factored block per transition."""
    return GroundTruth(series, *factor_blocks(matrices), matrix_index=np.arange(len(matrices)))


def random_model(R, seed=0):
    """Estimate maker: a random rank-R factored model with the truth's N and T windows."""

    def make(truth, T, M):
        rng = np.random.default_rng(seed)
        N = truth.series.n_channels
        return model_estimate(
            CpFactors(rng.standard_normal((N, R)), rng.standard_normal((N, R)), rng.standard_normal((T, R)))
        )

    return make


def indep(rank):
    """Estimate maker: the independent window fit at window length M."""
    return lambda truth, T, M: independent_fit(build_snapshots(truth.series, M=M), rank=rank)


def zero_estimate(truth, T, M):
    N = truth.series.n_channels
    return estimate_of(np.zeros((T, N, N)))


def zero_second_block():
    """Switching truth whose second regime is the zero matrix."""
    truth = simulate_switching(N=4, tau=40, sigma=0.5, seed=6)
    blocks = [truth.unique_matrices[0], np.zeros((4, 4))]
    return GroundTruth(truth.series, *factor_blocks(blocks), matrix_index=truth.matrix_index)


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


class TestIndependentFit:
    def test_stationary_exact_recovery(self):
        # rank-2 rotation data lives on a plane, which leaves the fit
        # underdetermined off it; a full-rank orthogonal A avoids that
        rng = np.random.default_rng(80)
        A = 0.9 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
        data = stationary_data(rng, A, M=12, T=3)
        est = independent_fit(data)
        for k in range(3):
            resid = dense(est)[k] @ data.X[:, :, k] - data.Y[:, :, k]
            assert np.abs(resid).max() <= 1e-8

    def test_rank_equal_dimension_matches_full(self):
        rng = np.random.default_rng(81)
        A = 0.8 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
        data = stationary_data(rng, A, M=10, T=2, sigma=0.2)
        full = independent_fit(data)
        truncated = independent_fit(data, rank=3)
        assert np.allclose(dense(full), dense(truncated), atol=1e-8)

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
            assert np.allclose(dense(est)[k], ref, atol=1e-9)

    @pytest.mark.parametrize("N", [5, 30], ids=["full-rank", "N-above-M"])
    def test_factors_reproduce_pseudoinverse(self, N):
        truth = simulate_switching(N=N, tau=200, sigma=0.5, seed=5)
        data = build_snapshots(truth.series, M=20)
        est = dense(independent_fit(data))
        for k in range(data.T):
            ref = data.Y[:, :, k] @ np.linalg.pinv(data.X[:, :, k], rcond=PINV_RTOL)
            assert np.max(np.abs(est[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

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
        est = estimate_of(stacked_truth(truth))
        # the factored difference is exact up to rounding, not entrywise cancellation
        assert operator_norm_error(est, truth) <= 1e-14

    def test_scaled_identity_shift(self):
        truth = simulate_switching(N=4, tau=40, sigma=0.1, seed=85)
        eps = 0.37
        est = estimate_of(stacked_truth(truth) + eps * np.eye(4))
        assert operator_norm_error(est, truth) == pytest.approx(eps, abs=1e-12)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(86)
        truth = simulate_switching(N=5, tau=20, sigma=0.2, seed=86)
        est = estimate_of(stacked_truth(truth) + 0.3 * rng.standard_normal((20, 5, 5)))
        expected = 0.0
        for t in range(20):
            diff = dense(est)[t] - truth.matrix_at(t)
            expected += np.sqrt(np.linalg.eigvalsh(diff.T @ diff).max())
        expected /= 20
        assert operator_norm_error(est, truth) == pytest.approx(expected, abs=1e-8)

    def test_window_averaging(self):
        truth = simulate_switching(N=3, tau=40, sigma=0.1, seed=87)
        # 4 windows of 10 transitions; windows 0-1 pure A1, 2-3 pure A2
        est = truth_window_average(truth, T=4)
        per_window = dense(est)
        assert np.allclose(per_window[0], truth.unique_matrices[0])
        assert np.allclose(per_window[3], truth.unique_matrices[1])
        assert operator_norm_error(est, truth) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "make, T, window_length",
        [
            (lambda: simulate_switching(N=5, tau=200, sigma=0.5, seed=3), 10, None),
            (lambda: simulate_smooth(N=4, tau=60, sigma=0.2, seed=3), 12, None),
            (lambda: simulate_switching(N=5, tau=200, sigma=0.5, seed=4), 4, 49),  # window 2 straddles the switch
        ],
        ids=["switching", "smooth", "dropped-tail"],
    )
    def test_window_average_matches_per_transition_loop(self, make, T, window_length):
        truth = make()
        M = window_length or truth.n_transitions // T
        loop = looped_window_average(truth, T, M)
        assert np.max(np.abs(dense(truth_window_average(truth, T, window_length)) - loop)) <= 1e-15

    @pytest.mark.parametrize(
        "make_truth, make_est, T, window_length",
        [
            (lambda: simulate_switching(N=5, tau=200, sigma=0.5, seed=3), random_model(3), 10, None),
            (lambda: simulate_smooth(N=4, tau=60, sigma=0.2, seed=3), random_model(2), 12, None),
            (lambda: simulate_switching(N=5, tau=200, sigma=0.5, seed=4), random_model(3), 4, 49),
            (lambda: simulate_switching(N=3, tau=30, sigma=0.5, seed=5), random_model(4), 3, None),
            (zero_second_block, random_model(2), 4, None),
            (lambda: simulate_switching(N=4, tau=40, sigma=0.5, seed=6), zero_estimate, 4, None),
            (lambda: simulate_switching(N=6, tau=200, sigma=0.5, seed=7), indep(None), 10, None),
            (lambda: simulate_switching(N=6, tau=200, sigma=0.5, seed=8), indep(2), 10, None),
        ],
        # window 2 of dropped-tail and window 1 of rank-above-N hold both regimes
        ids=["switching", "smooth", "dropped-tail", "rank-above-N", "zero-truth-block", "zero-estimate",
             "indep-full", "indep-r2"],
    )
    def test_matches_dense_per_window_oracle(self, make_truth, make_est, T, window_length):
        truth = make_truth()
        M = window_length or truth.n_transitions // T
        est = make_est(truth, T, M)
        ref = looped_window_average(truth, T, M)
        expected = np.mean([np.linalg.norm(A - B, 2) for A, B in zip(dense(est), ref)])
        assert operator_norm_error(est, truth, window_length) == pytest.approx(expected, rel=1e-12)

    def test_scoring_memory_below_one_dense_matrix(self):
        N = 1000
        truth = simulate_switching(N=N, tau=200, sigma=0.5, seed=9)  # outside the audit
        rng = np.random.default_rng(9)
        model = CpFactors(rng.standard_normal((N, 4)), rng.standard_normal((N, 4)), rng.standard_normal((10, 4)))
        tracemalloc.start()
        try:
            error = operator_norm_error(model_estimate(model), truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(error)
        assert peak < 8 * N * N  # the bytes of one dense N x N matrix

    def test_shape_mismatch(self):
        truth = simulate_switching(N=3, tau=40, sigma=0.1, seed=88)
        est = estimate_of(np.zeros((7, 3, 3)))
        with pytest.raises(ShapeMismatchError):
            operator_norm_error(est, truth)

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(89)
        truth = simulate_switching(N=4, tau=20, sigma=0.1, seed=89)
        base = stacked_truth(truth)
        a = estimate_of(base + 0.2 * rng.standard_normal(base.shape))
        b = estimate_of(base + 0.2 * rng.standard_normal(base.shape))
        truth_a = truth_of(truth.series, dense(a))
        truth_b = truth_of(truth.series, dense(b))
        d_ab = operator_norm_error(a, truth_b)
        d_ba = operator_norm_error(b, truth_a)
        assert d_ab == pytest.approx(d_ba, rel=1e-12)
        c = estimate_of(base + 0.2 * rng.standard_normal(base.shape))
        truth_c = truth_of(truth.series, dense(c))
        assert operator_norm_error(a, truth_c) <= operator_norm_error(a, truth_b) + operator_norm_error(b, truth_c) + 1e-12


class TestWindowedEstimate:
    def test_validation(self):
        good = np.ones((3, 4, 2))
        for left, right in [
            (np.ones((4, 2)), good),  # not 3-D
            (good, np.ones((2, 4, 2))),  # window counts differ
            (good, np.ones((3, 5, 1))),  # ranks differ
            (np.full((3, 4, 2), np.nan), good),  # non-finite
        ]:
            with pytest.raises(ValueError):
                WindowedEstimate(left, right)
        assert WindowedEstimate(good, np.ones((3, 5, 2))).shape == (3, 4, 5)


class TestModelEstimate:
    def test_zero_model(self):
        model = CpFactors(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((4, 2)))
        est = model_estimate(model)
        assert np.array_equal(dense(est), np.zeros((4, 3, 3)))

    def test_matches_slices(self):
        rng = np.random.default_rng(90)
        model = CpFactors(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), rng.standard_normal((5, 2)))
        est = model_estimate(model)
        for k in range(5):
            assert np.array_equal(dense(est)[k], model.slice(k))


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

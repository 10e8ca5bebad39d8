import tracemalloc
import warnings

import numpy as np
import pytest

import lrtvar.evaluation
from lrtvar.cp_model import CpFactors
from lrtvar.errors import DegenerateDataError, InvalidHyperparameterError, NonFiniteError, ShapeMismatchError
from lrtvar.evaluation import (
    PINV_RTOL,
    KMEANS_MAX_ITERS,
    KMEANS_RESTARTS,
    WindowedEstimate,
    _kmeans_plus_plus,
    _lloyd,
    cluster_temporal_modes,
    independent_fit,
    model_estimate,
    operator_norm_error,
    truth_window_average,
)
from lrtvar.synthetic import GroundTruth, simulate_smooth, simulate_switching
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
    """A ground truth with one block per transition, each dense matrix A as the exact pair (A, I)."""
    est = estimate_of(matrices)
    return GroundTruth(series, est.left, est.right, matrix_index=np.arange(len(matrices)))


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
    blocks = estimate_of([truth.matrix_at(0), np.zeros((4, 4))])
    return GroundTruth(truth.series, blocks.left, blocks.right, matrix_index=truth.matrix_index)


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
        data = SnapshotPair(X=rng.standard_normal((3, 8, 2)), Y=rng.standard_normal((3, 8, 2)))
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
        data = SnapshotPair(X=np.zeros((2, 4, 1)), Y=np.ones((2, 4, 1)))
        with pytest.raises(DegenerateDataError, match="^window 0 predictor block is identically zero$"):
            independent_fit(data)

    def test_truncation_needs_plain_data(self):
        rng = np.random.default_rng(83)
        data = SnapshotPair(
            X=np.concatenate([rng.standard_normal((2, 4, 2)), np.ones((1, 4, 2))]),
            Y=rng.standard_normal((2, 4, 2)),
            affine=True,
        )
        with pytest.raises(InvalidHyperparameterError, match="need P=1, non-affine data"):
            independent_fit(data, rank=1)

    @pytest.mark.parametrize("rank", [-1, 0, True, False, 3.5, 2.0, "2"])
    def test_bad_rank_rejected_at_entry(self, rank):
        # -1 once fitted rank N - 1, 0 an all-zero estimate and True rank 1; 3.5 failed inside numpy
        data = build_snapshots(simulate_switching(N=6, tau=80, sigma=0.5, seed=0).series, M=10)
        with pytest.raises(InvalidHyperparameterError, match="rank must be an integer >= 1"):
            independent_fit(data, rank=rank)

    def test_integer_ranks_accepted(self):
        data = build_snapshots(simulate_switching(N=6, tau=80, sigma=0.5, seed=0).series, M=10)
        assert independent_fit(data, rank=1).left.shape[2] == 1
        assert np.array_equal(dense(independent_fit(data, rank=np.int64(3))), dense(independent_fit(data, rank=3)))

    @pytest.mark.parametrize("N, M, rank", [(6, 10, 7), (6, 10, 50), (6, 10, 9), (6, 1, 3), (3, 20, 4)])
    def test_rank_above_the_window_series_rank_rejected(self, N, M, rank):
        # a window's series has N rows and M + 1 columns; a larger rank once
        # fitted rank min(N, M + 1) and read like that rank
        data = build_snapshots(simulate_switching(N=N, tau=80, sigma=0.5, seed=0).series, M=M)
        with pytest.raises(InvalidHyperparameterError, match=rf"need 1 <= rank <= {min(N, M + 1)}, got {rank}"):
            independent_fit(data, rank=rank)

    def test_rank_at_the_window_series_rank_accepted(self):
        data = build_snapshots(simulate_switching(N=6, tau=80, sigma=0.5, seed=0).series, M=1)
        assert independent_fit(data, rank=2).left.shape[2] == 2


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
        assert np.allclose(per_window[0], truth.matrix_at(0))
        assert np.allclose(per_window[3], truth.matrix_at(39))
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

    @pytest.mark.parametrize("window_length", [0, -2, 8.0, True, "8"])
    def test_bad_window_length_rejected_at_entry(self, window_length):
        # 0 and -2 once returned a number, 8.0 raised TypeError inside numpy
        truth = simulate_switching(N=6, tau=80, sigma=0.5, seed=0)
        est = independent_fit(build_snapshots(truth.series, M=8))
        with pytest.raises(InvalidHyperparameterError, match="window_length must be an integer >= 1"):
            operator_norm_error(est, truth, window_length=window_length)
        with pytest.raises(InvalidHyperparameterError, match="window_length must be an integer >= 1"):
            truth_window_average(truth, est.T, window_length)

    @pytest.mark.parametrize("T", [0, -4, 4.0, True])
    def test_bad_window_count_rejected_at_entry(self, T):
        # 0 once raised ZeroDivisionError, -4 a ValueError from inside numpy
        truth = simulate_switching(N=6, tau=80, sigma=0.5, seed=0)
        with pytest.raises(InvalidHyperparameterError, match="T must be an integer >= 1"):
            truth_window_average(truth, T, 10)

    def test_integer_window_length_accepted(self):
        truth = simulate_switching(N=6, tau=80, sigma=0.5, seed=0)
        est = independent_fit(build_snapshots(truth.series, M=8))
        assert operator_norm_error(est, truth, window_length=np.int64(8)) == operator_norm_error(est, truth)

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
        for left, right, error in [
            (np.ones((4, 2)), good, ShapeMismatchError),  # not 3-D
            (good, np.ones((2, 4, 2)), ShapeMismatchError),  # window counts differ
            (good, np.ones((3, 5, 1)), ShapeMismatchError),  # ranks differ
            (np.full((3, 4, 2), np.nan), good, NonFiniteError),  # non-finite
        ]:
            with pytest.raises(error):
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


def seeding_draws(rng, n, k, restarts):
    """The draws of one batched k-means++ seeding, in its order: every
    restart's first row, then one uniform per restart for each further center;
    returns (first, u), ``u`` of shape (restarts, k - 1)."""
    first = rng.integers(n, size=restarts)
    return first, np.array([rng.random(restarts) for _ in range(1, k)]).reshape(k - 1, restarts).T


def seed_single(X, k, first, u):
    """One restart's k-means++ centers from its own draws, by ``searchsorted``."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[first]
    closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        cdf = np.cumsum(closest_sq)
        centers[j] = X[min(np.searchsorted(cdf, u[j - 1] * cdf[-1], side="right"), n - 1)]
        closest_sq = np.minimum(closest_sq, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def kmeans_single(X, k, first, u):
    """One k-means run with k-means++ seeding from one restart's draws
    (see ``seeding_draws``); returns (labels, inertia, history), ``history``
    the within-cluster sum of squares after every assignment step."""
    n = X.shape[0]
    centers = seed_single(X, k, first, u)
    labels = np.zeros(n, dtype=int)
    history = []
    for _ in range(KMEANS_MAX_ITERS):
        d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = X[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return labels, history[-1], history


def cluster_per_restart(U3, k, seed):
    """``cluster_temporal_modes`` with the restarts run one after the other."""
    first, u = seeding_draws(np.random.default_rng(seed), U3.shape[0], k, KMEANS_RESTARTS)
    runs = [kmeans_single(U3, k, first[r], u[r])[:2] for r in range(KMEANS_RESTARTS)]
    lowest = min(inertia for _, inertia in runs)
    best_labels = next(labels for labels, inertia in runs if inertia <= lowest + 1e-15)
    remap = {}
    return np.array([remap.setdefault(lab, len(remap)) for lab in best_labels], dtype=int)


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

    def test_labels_follow_first_occurrence_like_the_dict_loop(self, monkeypatch):
        def first_occurrence_loop(labels):
            remap = {}
            return np.array([remap.setdefault(lab, len(remap)) for lab in labels], dtype=int)

        rng = np.random.default_rng(95)
        for _ in range(200):
            raw = rng.integers(0, rng.integers(1, 8), size=rng.integers(1, 30))
            monkeypatch.setattr(lrtvar.evaluation, "_lloyd",
                                lambda X, centers, raw=raw: (np.tile(raw, (len(centers), 1)), np.zeros(len(centers))))
            labels = cluster_temporal_modes(np.zeros((len(raw), 1)), k=1)
            expected = first_occurrence_loop(raw)
            assert np.array_equal(labels, expected) and labels.dtype == expected.dtype

    def test_objective_non_increasing_within_run(self, monkeypatch):
        # the inertia of every restart after 1, 2, ... Lloyd steps
        rng = np.random.default_rng(93)
        X = rng.standard_normal((40, 3))
        for seed in range(5):
            centers = _kmeans_plus_plus(X, 4, 8, np.random.default_rng(seed))
            history = []
            for steps in range(1, 12):
                monkeypatch.setattr(lrtvar.evaluation, "KMEANS_MAX_ITERS", steps)
                history.append(_lloyd(X, centers.copy())[1])
            assert np.all(np.diff(history, axis=0) <= 1e-12)

    @pytest.mark.parametrize("columns", [1, 2, 8])
    def test_labels_match_the_per_restart_oracle(self, columns):
        # generic rows, piecewise-constant rows as a TV fit leaves them, and rows with ties
        rng = np.random.default_rng(96 + columns)
        for case in range(20):
            T, k = int(rng.choice([10, 20, 40, 160])), int(rng.integers(2, 5))
            if case % 3 == 0:
                U3 = rng.standard_normal((T, columns))
            elif case % 3 == 1:
                U3 = np.repeat(rng.standard_normal((4, columns)), T // 4, axis=0)
            else:
                U3 = np.round(rng.standard_normal((T, columns)), 1)
            labels = cluster_temporal_modes(U3, k, seed=case)
            assert np.array_equal(labels, cluster_per_restart(U3, k, seed=case)), (T, k, case)

    def test_near_equal_restarts_keep_the_first(self):
        # the two splits of a stretched square differ in inertia by about 1e-16, below
        # the 1e-15 margin, so the first restart to reach either keeps it: both occur
        s, eps = 1e-4, 5e-9
        U3 = np.repeat(s * np.array([[0.0, 0.0], [1 + eps, 0.0], [0.0, 1.0], [1 + eps, 1.0]]), 2, axis=0)
        seen = set()
        for seed in range(20):
            labels = cluster_temporal_modes(U3, 2, seed=seed)
            assert np.array_equal(labels, cluster_per_restart(U3, 2, seed))
            seen.add(tuple(labels.tolist()))
        assert len(seen) == 2

    def test_chain_of_near_ties_keeps_the_first_within_the_margin_of_the_lowest(self, monkeypatch):
        # a loop that switched restarts only on an inertia 1e-15 below the kept one drifted down this chain
        # to restart 2, which is 1.2e-15 below restart 0 but only 0.6e-15 below restart 1
        raw = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]])
        inertia = np.array([1.0, 1 - 0.6e-15, 1 - 1.2e-15])
        monkeypatch.setattr(lrtvar.evaluation, "_lloyd", lambda X, centers: (raw, inertia))
        assert np.array_equal(cluster_temporal_modes(np.arange(4.0)[:, None], k=2), raw[1])

    def test_every_restart_matches_its_own_run(self):
        # with two or more columns the batched Lloyd steps reproduce each
        # restart's labels and inertia bit for bit
        rng = np.random.default_rng(97)
        X = rng.standard_normal((30, 4))
        labels, inertia = _lloyd(X, _kmeans_plus_plus(X, 3, 20, np.random.default_rng(5)))
        first, u = seeding_draws(np.random.default_rng(5), 30, 3, 20)
        for r in range(20):
            expected_labels, expected_inertia, _ = kmeans_single(X, 3, first[r], u[r])
            assert np.array_equal(labels[r], expected_labels) and inertia[r] == expected_inertia

    @pytest.mark.parametrize("columns", [1, 2, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seeding_matches_the_per_restart_oracle(self, k, columns):
        # generic rows, repeated rows, and rows with fewer than k distinct values
        rng = np.random.default_rng(10 * k + columns)
        for case in range(12):
            n = int(rng.integers(k, 40))
            if case % 3 == 0:
                X = rng.standard_normal((n, columns))
            elif case % 3 == 1:
                X = np.repeat(rng.standard_normal((4, columns)), 3, axis=0)[:n]
            else:
                X = np.round(rng.standard_normal((n, columns)), 0)
            centers = _kmeans_plus_plus(X, k, 8, np.random.default_rng(case))
            first, u = seeding_draws(np.random.default_rng(case), X.shape[0], k, 8)
            assert centers.shape == (8, k, columns)
            for r in range(8):
                assert np.array_equal(centers[r], seed_single(X, k, first[r], u[r])), (case, r)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_seeds_are_distinct_rows_when_there_are_enough(self, k):
        # a row of weight 0 is never taken while the total is positive
        rng = np.random.default_rng(40 + k)
        for case in range(30):
            distinct = rng.standard_normal((int(rng.integers(k, 7)), 2))
            X = distinct[np.concatenate([np.arange(len(distinct)), rng.integers(0, len(distinct), size=12)])]
            X = X[rng.permutation(len(X))]
            centers = _kmeans_plus_plus(X, k, 50, np.random.default_rng(case))
            for restart in centers:
                assert len(np.unique(restart, axis=0)) == k
                assert all(np.any(np.all(X == c, axis=1)) for c in restart)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_all_equal_rows_give_that_row_as_every_center(self, k):
        X = np.tile([[0.5, -2.0]], (6, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers = _kmeans_plus_plus(X, k, 10, np.random.default_rng(0))
            labels = cluster_temporal_modes(X, k, seed=3)
        assert np.array_equal(centers, np.broadcast_to(X[0], (10, k, 2)))
        assert np.array_equal(labels, np.zeros(6, dtype=int))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(94)
        X = rng.standard_normal((15, 2))
        a = cluster_temporal_modes(X, k=3, seed=7)
        b = cluster_temporal_modes(X, k=3, seed=7)
        assert np.array_equal(a, b)

    def test_k_validation(self):
        with pytest.raises(InvalidHyperparameterError, match="need 1 <= k <= 3"):
            cluster_temporal_modes(np.zeros((3, 1)), k=4)
        with pytest.raises(InvalidHyperparameterError, match="k must be an integer >= 1"):
            cluster_temporal_modes(np.zeros((3, 1)), k=0)

    @pytest.mark.parametrize("k", [True, False, 2.0, "2", None])
    def test_non_integer_k_rejected_at_entry(self, k):
        # True and 2.0 once failed inside numpy with TypeError
        with pytest.raises(InvalidHyperparameterError, match="k must be an integer"):
            cluster_temporal_modes(np.zeros((3, 1)), k=k)

    def test_out_of_range_k_keeps_its_message(self):
        with pytest.raises(InvalidHyperparameterError, match=r"need 1 <= k <= 3, got 4"):
            cluster_temporal_modes(np.zeros((3, 1)), k=4)
        assert np.array_equal(cluster_temporal_modes(np.arange(3.0)[:, None], k=np.int64(3)), [0, 1, 2])

import numpy as np
import pytest

from lrtvar.synthetic import (
    GroundTruth,
    gp_covariance,
    make_rank2_rotation,
    sample_gp_angle,
    simulate_smooth,
    simulate_switching,
)


class TestRank2Rotation:
    def test_n2_is_exact_rotation(self):
        A = make_rank2_rotation(2, theta=0.3, seed_or_rng=0)
        assert np.allclose(A @ A.T, np.eye(2), atol=1e-12)
        assert np.trace(A) == pytest.approx(2 * np.cos(0.3), abs=1e-12)
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-12)

    def test_theta_zero_is_projector(self):
        A = make_rank2_rotation(6, theta=0.0, seed_or_rng=1)
        assert np.allclose(A @ A, A, atol=1e-12)
        assert np.allclose(A, A.T, atol=1e-12)
        assert np.trace(A) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("N", [2, 10, 100])
    def test_singular_values(self, N):
        A = make_rank2_rotation(N, theta=0.1 * np.pi, seed_or_rng=2)
        s = np.linalg.svd(A, compute_uv=False)
        assert abs(s[0] - 1.0) <= 1e-10
        assert abs(s[1] - 1.0) <= 1e-10
        if N > 2:
            assert s[2] <= 1e-10

    def test_eigenvalues_on_plane(self):
        theta = 0.1 * np.pi
        A = make_rank2_rotation(10, theta=theta, seed_or_rng=3)
        eig = np.linalg.eigvals(A)
        eig = eig[np.argsort(-np.abs(eig))][:2]
        expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.allclose(sorted(eig, key=lambda z: z.imag), sorted(expected, key=lambda z: z.imag), atol=1e-10)

    def test_gram_is_plane_projector(self):
        A = make_rank2_rotation(7, theta=1.1, seed_or_rng=4)
        P = A.T @ A
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.trace(P) == pytest.approx(2.0, abs=1e-10)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            make_rank2_rotation(1, theta=0.5, seed_or_rng=0)


class TestSwitching:
    def test_noiseless_states_have_norm_sqrt_n(self):
        truth = simulate_switching(N=10, tau=100, sigma=0.0, seed=5)
        norms = np.linalg.norm(truth.series.values, axis=0)
        assert np.allclose(norms, np.sqrt(10), atol=1e-9)

    def test_change_point_halfway(self):
        truth = simulate_switching(N=6, tau=200, sigma=0.5, seed=6)
        assert truth.n_transitions == 200
        assert len(truth.unique_matrices) == 2
        assert np.array_equal(truth.matrix_index[:100], np.zeros(100, dtype=int))
        assert np.array_equal(truth.matrix_index[100:], np.ones(100, dtype=int))

    def test_majority_matrix_changes_at_window_six(self):
        # with tau=200 and M=20, windows 1-5 are A1-dominated, 6-10 pure A2
        truth = simulate_switching(N=4, tau=200, sigma=0.1, seed=7)
        idx = truth.matrix_index.reshape(10, 20)
        majority = (idx.mean(axis=1) > 0.5).astype(int)
        assert np.array_equal(majority, [0] * 5 + [1] * 5)

    def test_default_angles(self):
        # a rank-2 rotation by theta has trace 2 cos(theta)
        truth = simulate_switching(N=4, tau=20, sigma=0.0, seed=8)
        angles = [np.arccos(np.trace(A) / 2) for A in truth.unique_matrices]
        assert angles == pytest.approx([0.1 * np.pi, 0.37 * np.pi])

    def test_noise_variance_monte_carlo(self):
        # pooled variance of (noisy - noiseless) over 1000 paired draws
        sigma = 0.5
        samples = []
        for seed in range(1000):
            noisy = simulate_switching(N=4, tau=20, sigma=sigma, seed=seed)
            clean = simulate_switching(N=4, tau=20, sigma=0.0, seed=seed)
            samples.append((noisy.series.values - clean.series.values).ravel())
        var = np.concatenate(samples).var()
        assert abs(var - sigma**2) <= 0.05 * sigma**2

    def test_deterministic_per_seed(self):
        a = simulate_switching(N=5, tau=40, sigma=0.3, seed=9)
        b = simulate_switching(N=5, tau=40, sigma=0.3, seed=9)
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.unique_matrices[0], b.unique_matrices[0])

    def test_odd_tau_rejected(self):
        with pytest.raises(ValueError):
            simulate_switching(N=4, tau=31, sigma=0.1, seed=0)

    def test_per_entry_signal_scale_independent_of_n(self):
        for N in (5, 20, 100):
            truth = simulate_switching(N=N, tau=50, sigma=0.0, seed=10)
            rms = np.sqrt(np.mean(truth.series.values**2))
            assert rms == pytest.approx(1.0, abs=1e-9)


class TestGpAngle:
    def test_kernel_diagonal_exact(self):
        K = gp_covariance(50)
        assert np.all(K[np.diag_indices(50)] == 1.001)

    def test_kernel_at_lengthscale(self):
        K = gp_covariance(50)
        assert K[0, 30] == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert K[10, 40] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_marginal_variance_monte_carlo(self):
        draws = np.stack([sample_gp_angle(8, seed_or_rng=seed) for seed in range(2000)])
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.001) <= 0.10 * 1.001)

    def test_smoothness(self):
        theta = sample_gp_angle(200, seed_or_rng=11)
        assert np.abs(np.diff(theta)).max() < 0.5


class TestSmooth:
    def test_common_invariant_plane(self):
        truth = simulate_smooth(N=8, tau=30, sigma=0.1, seed=12)
        A0 = truth.matrix_at(0)
        W, s, _ = np.linalg.svd(A0)
        W = W[:, :2]
        for t in range(truth.n_transitions):
            A = truth.matrix_at(t)
            assert np.linalg.norm(A - W @ (W.T @ A)) <= 1e-12

    def test_constant_angle_override_is_stationary(self):
        truth = simulate_smooth(N=5, tau=20, sigma=0.0, seed=13, angles=np.full(20, 0.7))
        for t in range(1, 20):
            assert np.allclose(truth.matrix_at(t), truth.matrix_at(0), atol=1e-14)
        s = np.linalg.svd(truth.matrix_at(0), compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-10) and s[2] <= 1e-10

    def test_rotation_lipschitz_bound(self):
        truth = simulate_smooth(N=6, tau=60, sigma=0.0, seed=14)
        for t in range(59):
            d = np.linalg.norm(truth.matrix_at(t + 1) - truth.matrix_at(t), 2)
            # recover angle difference from the rotation restricted to the plane
            tr = np.trace(truth.matrix_at(t).T @ truth.matrix_at(t + 1))
            dtheta = np.arccos(np.clip(tr / 2.0, -1.0, 1.0))
            assert d <= dtheta + 1e-9

    def test_noiseless_norms(self):
        truth = simulate_smooth(N=7, tau=40, sigma=0.0, seed=15)
        norms = np.linalg.norm(truth.series.values, axis=0)
        assert np.allclose(norms, np.sqrt(7), atol=1e-9)

    def test_deterministic_per_seed(self):
        a = simulate_smooth(N=4, tau=25, sigma=0.2, seed=16)
        b = simulate_smooth(N=4, tau=25, sigma=0.2, seed=16)
        assert np.array_equal(a.series.values, b.series.values)

    def test_bad_angles_shape(self):
        with pytest.raises(ValueError):
            simulate_smooth(N=4, tau=10, sigma=0.1, seed=0, angles=np.zeros(7))


class TestGroundTruth:
    def test_stacked_matrices(self):
        truth = simulate_switching(N=3, tau=10, sigma=0.1, seed=17)
        stacked = np.stack([truth.matrix_at(t) for t in range(truth.n_transitions)])
        assert stacked.shape == (10, 3, 3)
        assert np.array_equal(stacked[0], truth.unique_matrices[0])
        assert np.array_equal(stacked[-1], truth.unique_matrices[1])

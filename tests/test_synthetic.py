import tracemalloc
import warnings

import numpy as np
import pytest

import lrtvar.synthetic
from lrtvar.errors import DegenerateProjectionError, InvalidHyperparameterError, NonFiniteError, ShapeMismatchError
from lrtvar.synthetic import (
    BURN_IN_STEPS,
    GroundTruth,
    gp_covariance,
    sample_gp_angle,
    simulate_smooth,
    simulate_switching,
)


def scalar_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def stepped_states(truth, switch=None):
    """Noiseless states of ``truth`` by stepping x -> left[b] (right[b]' x):
    BURN_IN_STEPS steps of block 0 from the all-ones vector, normalized to
    norm sqrt(N), then one step per transition, renormalized once right
    after transition ``switch``."""
    N = truth.left.shape[1]
    x = np.ones(N)
    for _ in range(BURN_IN_STEPS):
        x = truth.left[0] @ (truth.right[0].T @ x)
    states = [x * (np.sqrt(N) / np.linalg.norm(x))]
    for t, b in enumerate(truth.matrix_index):
        x = truth.left[b] @ (truth.right[b].T @ states[-1])
        states.append(x * (np.sqrt(N) / np.linalg.norm(x)) if t == switch else x)
    return np.stack(states, axis=1)


def child_streams(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def rotation_block(N, theta, seed):
    """The first block W Rot(theta) W' of a switching series whose first
    regime rotates by ``theta``."""
    truth = simulate_switching(N=N, tau=2, sigma=0.0, theta1=theta, seed=seed)
    return truth.left[0] @ truth.right[0].T


class TestRank2Rotation:
    """Every block left[b] @ right[b].T of the generators is a rank-2 rotation."""

    def test_n2_is_exact_rotation(self):
        A = rotation_block(2, theta=0.3, seed=0)
        assert np.allclose(A @ A.T, np.eye(2), atol=1e-12)
        assert np.trace(A) == pytest.approx(2 * np.cos(0.3), abs=1e-12)
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-12)

    def test_theta_zero_is_projector(self):
        A = rotation_block(6, theta=0.0, seed=1)
        assert np.allclose(A @ A, A, atol=1e-12)
        assert np.allclose(A, A.T, atol=1e-12)
        assert np.trace(A) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("N", [2, 10, 100])
    def test_singular_values(self, N):
        for truth in (simulate_switching(N=N, tau=4, seed=2), simulate_smooth(N=N, tau=4, seed=2)):
            for s in np.linalg.svd(truth.left @ truth.right.transpose(0, 2, 1), compute_uv=False):
                assert abs(s[0] - 1.0) <= 1e-10
                assert abs(s[1] - 1.0) <= 1e-10
                if N > 2:
                    assert s[2] <= 1e-10

    def test_eigenvalues_on_plane(self):
        theta = 0.1 * np.pi
        A = rotation_block(10, theta=theta, seed=3)
        eig = np.linalg.eigvals(A)
        eig = eig[np.argsort(-np.abs(eig))][:2]
        expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.allclose(sorted(eig, key=lambda z: z.imag), sorted(expected, key=lambda z: z.imag), atol=1e-10)

    def test_gram_is_plane_projector(self):
        A = rotation_block(7, theta=1.1, seed=4)
        P = A.T @ A
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.trace(P) == pytest.approx(2.0, abs=1e-10)


class TestSwitching:
    def test_noiseless_states_have_norm_sqrt_n(self):
        truth = simulate_switching(N=10, tau=100, sigma=0.0, seed=5)
        norms = np.linalg.norm(truth.series.values, axis=0)
        assert np.allclose(norms, np.sqrt(10), atol=1e-9)

    def test_change_point_halfway(self):
        truth = simulate_switching(N=6, tau=200, sigma=0.5, seed=6)
        assert truth.n_transitions == 200
        assert truth.left.shape == truth.right.shape == (2, 6, 2)
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
        angles = [np.arccos(np.trace(truth.matrix_at(t)) / 2) for t in (0, 19)]
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
        assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)

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
        assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)

    def test_memory_linear_in_the_series(self):
        # the factored steps never form one of the tau N x N matrices (117 MB here)
        N, tau = 300, 160
        tracemalloc.start()
        try:
            truth = simulate_smooth(N=N, tau=tau, sigma=0.2, seed=17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert truth.n_transitions == tau
        assert peak < 8 * (8 * N * tau)  # eight N x tau float64 arrays


class TestGroundTruth:
    def test_stacked_matrices(self):
        truth = simulate_switching(N=3, tau=10, sigma=0.1, seed=17)
        stacked = np.stack([truth.matrix_at(t) for t in range(truth.n_transitions)])
        assert stacked.shape == (10, 3, 3)
        assert np.array_equal(stacked[0], truth.left[0] @ truth.right[0].T)
        assert np.array_equal(stacked[-1], truth.left[1] @ truth.right[1].T)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda L, R, i: (L[0], R[0], i), ShapeMismatchError, r"must both be \(n_blocks, 3, q\)"),
            (lambda L, R, i: (L, R[:1], i), ShapeMismatchError, "must both be"),
            (lambda L, R, i: (L, R[:, :, :1], i), ShapeMismatchError, "must both be"),
            (lambda L, R, i: (L[:, :2], R[:, :2], i), ShapeMismatchError, "one row per channel"),
            (lambda L, R, i: (L, R, i[:-1]), ShapeMismatchError, "names 9 transitions, but the series has 11"),
            (lambda L, R, i: (L, R, i.astype(float)), ValueError, "must hold integers"),
            (lambda L, R, i: (L, R, np.r_[0, 1, 5, i[3:]]), ValueError, r"matrix_index\[2\] = 5 .*\[0, 2\)"),
            (lambda L, R, i: (L, R, np.r_[i[:-1], -1]), ValueError, r"matrix_index\[9\] = -1"),
        ],
        ids=["left-2d", "block-counts", "ranks", "rows-not-channels", "index-short", "index-float",
             "index-above", "index-negative"],
    )
    def test_malformed_parts_rejected_at_construction(self, edit, error, message):
        truth = simulate_switching(N=3, tau=10, sigma=0.1, seed=17)
        left, right, index = edit(truth.left, truth.right, truth.matrix_index)
        with pytest.raises(error, match=message):
            GroundTruth(truth.series, left, right, index)


class TestClosedFormTrajectories:
    """The closed-form orbits against the stepped simulation, and the
    factors against their construction from the same draws."""

    @pytest.mark.parametrize("N", [10, 500])
    @pytest.mark.parametrize("angles", [{}, {"theta1": 0.7, "theta2": -1.3}], ids=["default-angles", "custom-angles"])
    @pytest.mark.parametrize("tau", [200, 6])
    def test_switching_equals_the_stepped_trajectory(self, N, angles, tau):
        for seed in range(3):
            truth = simulate_switching(N=N, tau=tau, sigma=0.5, seed=seed, **angles)
            rng_mat, rng_noise = child_streams(seed, 2)
            right = np.stack([np.linalg.svd(rng_mat.standard_normal((N, 2)), full_matrices=False)[0] for _ in range(2)])
            theta1, theta2 = angles.get("theta1", 0.1 * np.pi), angles.get("theta2", 0.37 * np.pi)
            assert np.array_equal(truth.right, right)
            assert np.array_equal(truth.left, right @ np.array([scalar_rotation(theta1), scalar_rotation(theta2)]))
            assert np.array_equal(truth.matrix_index, np.where(np.arange(tau) < tau // 2, 0, 1))
            states = stepped_states(truth, switch=tau // 2)
            noise = 0.5 * rng_noise.standard_normal(states.shape)
            assert np.abs(truth.series.values - noise - states).max() <= 1e-12

    def test_smooth_equals_the_stepped_trajectory(self):
        N, tau, sigma = 10, 160, 0.2
        for seed in range(3):
            truth = simulate_smooth(N=N, tau=tau, sigma=sigma, seed=seed)
            rng_mat, rng_gp, rng_noise = child_streams(seed, 3)
            W = np.linalg.svd(rng_mat.standard_normal((N, 2)), full_matrices=False)[0]
            angles = sample_gp_angle(tau, seed_or_rng=rng_gp)
            assert np.array_equal(truth.right, np.broadcast_to(W, (tau, N, 2)))
            assert np.array_equal(truth.left, W @ np.array([scalar_rotation(a) for a in angles]))
            assert np.array_equal(truth.matrix_index, np.arange(tau))
            states = stepped_states(truth)
            noise = sigma * rng_noise.standard_normal(states.shape)
            assert np.abs(truth.series.values - noise - states).max() <= 1e-12

    def test_start_orthogonal_to_the_first_plane_is_degenerate(self, monkeypatch):
        # a plane orthogonal to the all-ones vector: no burn-in leaves the zero state
        plane = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2)
        monkeypatch.setattr(lrtvar.synthetic, "_random_plane", lambda N, rng: plane)
        with pytest.raises(DegenerateProjectionError, match="burn-in projected the state to zero"):
            simulate_switching(N=4, tau=10, sigma=0.1, seed=0)
        with pytest.raises(DegenerateProjectionError, match="burn-in projected the state to zero"):
            simulate_smooth(N=4, tau=10, sigma=0.1, seed=0)

    def test_second_plane_orthogonal_to_the_state_at_the_switch_is_degenerate(self, monkeypatch):
        # the first half stays in span(e1, e2); the second plane span(e3, e4) annihilates it
        planes = iter([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        monkeypatch.setattr(lrtvar.synthetic, "_random_plane", lambda N, rng: next(planes))
        with pytest.raises(DegenerateProjectionError, match="switch projected the state to zero"):
            simulate_switching(N=4, tau=10, sigma=0.1, seed=0)


class TestGeneratorInputs:
    """Bad generator inputs raise a named error before any draw."""

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: simulate_switching(N=4, tau=-2), InvalidHyperparameterError, r"tau must be an even integer >= 2, got -2"),
            (lambda: simulate_switching(N=4, tau=31), InvalidHyperparameterError, r"tau must be an even integer >= 2, got 31"),
            (lambda: simulate_switching(N=4, tau=0), InvalidHyperparameterError, r"tau must be an even integer >= 2, got 0"),
            (lambda: simulate_switching(N=4, tau=20.0), InvalidHyperparameterError, r"tau must be an even integer"),
            (lambda: simulate_switching(N=4, sigma=-0.1), InvalidHyperparameterError, r"sigma must be >= 0, got -0.1"),
            (lambda: simulate_switching(N=4, theta1=np.nan), NonFiniteError, r"theta1 must be finite"),
            (lambda: simulate_switching(N=4, theta2="0.3"), InvalidHyperparameterError, r"theta2 must be a real number"),
            (lambda: simulate_smooth(N=4, tau=0), InvalidHyperparameterError, r"tau must be an integer >= 1, got 0"),
            (lambda: simulate_smooth(N=4, sigma=-1e-3), InvalidHyperparameterError, r"sigma must be >= 0"),
            (lambda: simulate_smooth(N=4, lengthscale=0), InvalidHyperparameterError, r"lengthscale must be > 0, got 0"),
            (lambda: simulate_smooth(N=4, lengthscale=-5.0), InvalidHyperparameterError, r"lengthscale must be > 0"),
            (lambda: simulate_smooth(N=4, lengthscale=np.inf), NonFiniteError, r"lengthscale must be finite"),
            (lambda: simulate_switching(N=4, seed=-1), InvalidHyperparameterError, r"seed must be an integer >= 0, got -1"),
            (lambda: simulate_switching(N=4, seed=1.5), InvalidHyperparameterError, r"seed must be an integer >= 0"),
            (lambda: simulate_switching(N=4, seed=True), InvalidHyperparameterError, r"seed must be an integer >= 0"),
            (lambda: simulate_smooth(N=4, seed=-1), InvalidHyperparameterError, r"seed must be an integer >= 0, got -1"),
        ],
        ids=["tau-negative", "tau-odd", "tau-zero", "tau-float", "sigma-negative", "theta1-nan", "theta2-text",
             "smooth-tau-zero", "smooth-sigma-negative", "lengthscale-zero", "lengthscale-negative",
             "lengthscale-inf", "seed-negative", "seed-float", "seed-bool",
             "smooth-seed-negative"],
    )
    def test_rejected_before_any_draw(self, monkeypatch, make, error, message):
        monkeypatch.setattr(lrtvar.synthetic, "_random_plane", lambda N, rng: pytest.fail("drew a plane"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                make()

    @pytest.mark.parametrize("N", [1, 0, True, 3.0])
    def test_bad_n_rejected(self, N):
        for make in (simulate_switching, simulate_smooth):
            with pytest.raises(InvalidHyperparameterError, match="N must be an integer >= 2"):
                make(N=N)

    @pytest.mark.parametrize(
        "args, message",
        [((0,), r"tau must be an integer >= 1, got 0"), ((10, 0.0), r"lengthscale must be > 0"),
         ((10, -1), r"lengthscale must be > 0")],
    )
    def test_gp_covariance_rejects_bad_inputs(self, args, message):
        with pytest.raises(InvalidHyperparameterError, match=message):
            gp_covariance(*args)

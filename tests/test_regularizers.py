import itertools
import warnings

import numpy as np
import pytest

from lrtvar.errors import InvalidHyperparameterError, NonFiniteError
from lrtvar.regularizers import Regularizer, _ridge, spline_penalty, tv_penalty, tv_prox_columns


def prox(v, gamma):
    """The TV prox of ``v`` by :func:`tv_prox_columns`, as one column of unit weights."""
    v = np.asarray(v, dtype=float)
    return tv_prox_columns(v[:, None], gamma, np.ones((v.size, 1)))[:, 0]


def dense_diff_matrix(T):
    """Materialized (T-1) x T first-difference matrix: row k has +1 at k, -1 at k+1."""
    D = np.zeros((T - 1, T))
    for k in range(T - 1):
        D[k, k] = 1.0
        D[k, k + 1] = -1.0
    return D


def long_prox_cases():
    """(v, gamma) pairs: random walks and noise of length 2 to 200, then
    ramps, sawtooths, integer values (ties) and flat plateaus, short to long
    and from barely to fully saturated."""
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(100):
        T = int(rng.integers(2, 201))
        v = np.cumsum(rng.standard_normal(T)) if rng.random() < 0.5 else 2 * rng.standard_normal(T)
        cases.append((v, float(rng.uniform(1e-3, 1.0))))
    for T in (7, 200, 5000):
        k = np.arange(T, dtype=float)
        plateaus = np.repeat(rng.integers(-5, 6, T // 5 + 1).astype(float), 5)[:T]
        for v in (k, k % 13, rng.integers(-3, 4, T).astype(float), plateaus):
            cases.extend((v, gamma) for gamma in (1e-3, 1e-1, 10.0, 1e4))
    return cases


def unit_tv_prox_reference(v, gamma):
    """The unit-weight TV prox as implemented before weights were added:
    a saturated vector gets its in-order mean, any other goes through
    Johnson's dynamic program with unit slope seeds."""
    v = np.asarray(v, dtype=float)
    n = v.size
    if gamma == 0.0 or n < 2:
        return v.copy()
    mean = np.cumsum(v)[-1] / n
    if gamma >= np.abs(np.cumsum(v - mean)[:-1]).max():
        return np.full(n, mean)
    y = v.tolist()
    x, a, b = [0.0] * (2 * n), [0.0] * (2 * n), [0.0] * (2 * n)
    tm, tp = [0.0] * (n - 1), [0.0] * (n - 1)
    lo = hi = n
    clip = 0.0
    for k in range(n - 1):
        alo, blo = 1.0, -y[k] - clip
        j = lo
        while j < hi and alo * x[j] + blo <= -gamma:
            alo += a[j]
            blo += b[j]
            j += 1
        ahi, bhi = -1.0, y[k] - clip
        i = hi - 1
        while i >= j and -ahi * x[i] - bhi >= gamma:
            ahi += a[i]
            bhi += b[i]
            i -= 1
        lo, hi = j - 1, i + 2
        tm[k] = x[lo] = (-gamma - blo) / alo
        tp[k] = x[hi - 1] = (gamma + bhi) / -ahi
        a[lo], b[lo] = alo, blo + gamma
        a[hi - 1], b[hi - 1] = ahi, bhi + gamma
        clip = gamma
    alo, blo = 1.0, -y[-1] - gamma
    j = lo
    while j < hi and alo * x[j] + blo <= 0.0:
        alo += a[j]
        blo += b[j]
        j += 1
    u = -blo / alo
    out = [u] * n
    for k in range(n - 2, -1, -1):
        out[k] = u = tp[k] if u > tp[k] else tm[k] if u < tm[k] else u
    return np.array(out)


def weighted_prox_objective(u, v, w, gamma):
    return float(0.5 * np.sum(w * (u - v) ** 2) + gamma * np.abs(np.diff(u)).sum())


def weighted_tv_prox_dual_oracle(v, w, gamma, pg_steps=200):
    """Weighted TV prox from its dual, the box QP
    min_s 1/2 s'Qs - s'Dv over |s| <= gamma with Q = D W^-1 D'; the primal
    solution is u = v - W^-1 D's.

    Projected gradient steps give a starting point; primal-dual active-set
    iterations (Hintermueller, Ito & Kunisch 2003) then solve the QP exactly,
    each one fixing the coordinates guessed at a bound and solving for the
    rest, until the guess repeats.  The KKT conditions of the result are
    checked before it is returned.
    """
    T = v.size
    D = dense_diff_matrix(T)
    Q = D @ np.diag(1.0 / w) @ D.T
    c = D @ v
    step = 1.0 / np.linalg.eigvalsh(Q).max()
    s = np.zeros(T - 1)
    for _ in range(pg_steps):
        s = np.clip(s - step * (Q @ s - c), -gamma, gamma)
    mu = c - Q @ s  # the bound multipliers, zero at the free coordinates
    pattern = None
    for _ in range(10 * T):
        new_pattern = np.where(s + mu > gamma, 1, np.where(s + mu < -gamma, -1, 0))
        if pattern is not None and np.array_equal(new_pattern, pattern):
            break
        pattern = new_pattern
        free = pattern == 0
        s = gamma * pattern.astype(float)
        if free.any():
            s[free] = np.linalg.solve(Q[np.ix_(free, free)], c[free] - Q[np.ix_(free, ~free)] @ s[~free])
        mu = c - Q @ s
        mu[free] = 0.0
    else:
        raise AssertionError("active-set iterations did not settle")
    scale = gamma + np.abs(c).max()
    assert np.all(np.abs(s) <= gamma * (1 + 1e-12))
    assert np.all(pattern * mu >= -1e-12 * scale)
    return v - (D.T @ s) / w

def tv_prox_oracle(v, gamma, tol=1e-9):
    """Exact TV prox for small vectors via active-set enumeration of the dual.

    The dual is a box-constrained strictly convex quadratic in the T-1 edge
    variables s: min 1/2 s'DD's - s'Dv subject to |s_i| <= gamma, and the
    primal solution is u = v - D's.  Every on/off pattern of the box
    constraints is enumerated and checked against the KKT conditions.
    """
    v = np.asarray(v, dtype=float)
    T = v.shape[0]
    if gamma == 0.0 or T < 2:
        return v.copy()
    D = dense_diff_matrix(T)
    Q = D @ D.T
    b = D @ v
    m = T - 1
    for pattern in itertools.product((-1, 0, 1), repeat=m):
        pattern = np.array(pattern)
        s = np.where(pattern != 0, gamma * pattern, 0.0).astype(float)
        free = pattern == 0
        if free.any():
            rhs = b[free] - Q[np.ix_(free, ~free)] @ s[~free]
            s[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
        if np.any(np.abs(s[free]) > gamma + tol):
            continue
        g = Q @ s - b
        if np.any(g[pattern == 1] > tol) or np.any(g[pattern == -1] < -tol):
            continue
        return v - D.T @ s
    raise AssertionError("no KKT-consistent active set found")


def prox_objective(u, v, gamma):
    return 0.5 * np.sum((u - v) ** 2) + gamma * np.sum(np.abs(np.diff(u)))


class TestTvPenalty:
    def test_constant_columns_zero(self):
        assert tv_penalty(np.ones((7, 3)) * 2.5) == 0.0

    def test_single_column_direct(self):
        assert tv_penalty(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(3.0)

    def test_single_row_zero(self):
        assert tv_penalty(np.array([[1.0, -2.0]])) == 0.0

    def test_matches_dense_diff_oracle(self):
        rng = np.random.default_rng(7)
        U3 = rng.standard_normal((50, 4))
        D = dense_diff_matrix(50)
        expected = sum(np.abs(D @ U3[:, r]).sum() for r in range(4))
        assert tv_penalty(U3) == pytest.approx(expected, rel=1e-12)


class TestSplinePenalty:
    def test_constant_columns_zero(self):
        assert spline_penalty(np.full((5, 2), -1.3)) == 0.0

    def test_two_point_direct(self):
        assert spline_penalty(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_matches_dense_diff_oracle(self):
        rng = np.random.default_rng(8)
        U3 = rng.standard_normal((50, 4))
        D = dense_diff_matrix(50)
        expected = 0.5 * np.sum((D @ U3) ** 2)
        assert spline_penalty(U3) == pytest.approx(expected, rel=1e-12)

    def test_positive_unless_constant(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            U3 = rng.standard_normal((6, 2))
            if np.all(np.diff(U3, axis=0) == 0):
                continue
            assert spline_penalty(U3) > 0.0


class TestTikhonov:
    """The ridge term of the cost; its ``eta`` is checked by ``Hyperparams``."""

    def test_zero_factors(self):
        z = np.zeros((3, 2))
        assert _ridge(z, z, z, eta=1.0) == 0.0

    def test_unit_entries(self):
        one = np.array([[1.0]])
        assert _ridge(one, one, one, eta=0.5) == pytest.approx(3.0)

    def test_scales_inversely_with_eta(self):
        rng = np.random.default_rng(11)
        U1, U2, U3 = (rng.standard_normal((4, 3)) for _ in range(3))
        assert _ridge(U1, U2, U3, eta=0.5) == pytest.approx(2.0 * _ridge(U1, U2, U3, eta=1.0), rel=1e-12)


class TestTvProx:
    def test_gamma_zero_identity(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(17)
        out = prox(v, 0.0)
        assert np.array_equal(out, v)
        assert out is not v

    def test_two_point_saturation(self):
        v = np.array([0.0, 1.0])
        assert np.allclose(prox(v, 0.5), [0.5, 0.5], atol=1e-12)
        assert np.allclose(prox(v, 2.0), [0.5, 0.5], atol=1e-12)

    def test_two_point_partial_shrink(self):
        out = prox(np.array([0.0, 1.0]), 0.2)
        assert np.allclose(out, [0.2, 0.8], atol=1e-12)

    def test_three_point_example(self):
        out = prox(np.array([1.0, 0.0, 2.0]), 0.3)
        expected = tv_prox_oracle(np.array([1.0, 0.0, 2.0]), 0.3)
        assert np.allclose(expected, [0.7, 0.6, 1.7], atol=1e-12)
        assert np.allclose(out, expected, atol=1e-10)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            T = int(rng.integers(1, 7))
            v = 3.0 * rng.standard_normal(T)
            gamma = float(rng.uniform(0.0, 2.0))
            out = prox(v, gamma)
            ref = tv_prox_oracle(v, gamma)
            assert np.allclose(out, ref, atol=1e-8), (trial, T, gamma, v)

    def test_objective_never_above_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            T = int(rng.integers(2, 7))
            v = rng.standard_normal(T)
            gamma = float(rng.uniform(0.0, 1.5))
            out = prox(v, gamma)
            ref = tv_prox_oracle(v, gamma)
            assert prox_objective(out, v, gamma) <= prox_objective(ref, v, gamma) + 1e-10

    def test_dual_certificate_long_vectors(self):
        # optimality: u - v = -gamma * D'w with |w| <= 1 and w matching the
        # jump signs of Du wherever Du is nonzero
        for v, gamma in long_prox_cases():
            u = prox(v, gamma)
            w = -np.cumsum(u - v)[:-1] / gamma
            assert np.abs(np.sum(u - v)) < 1e-9 * (1 + np.abs(v).sum())
            assert np.all(np.abs(w) <= 1 + 1e-8)
            jumps = u[:-1] - u[1:]
            big = np.abs(jumps) > 1e-9
            assert np.allclose(w[big], np.sign(jumps[big]), atol=1e-8)

    def test_saturated_prox_is_the_mean(self):
        # from gamma = max_k |sum_{i<=k} (v_i - mean v)| up, the prox is the
        # mean; integer data with an integer mean makes that threshold exact
        rng = np.random.default_rng(23)
        ints = rng.integers(-9, 10, 1000).astype(float)
        ints[-1] -= ints.sum() % ints.size
        for v in (np.array([1.0, 0.0, 2.0, 5.0]), ints, 2.0**40 * ints):
            threshold = np.abs(np.cumsum(v - v.mean())[:-1]).max()
            for gamma in (threshold, 1e6, 1e12, 1e300):
                if gamma >= threshold:
                    u = prox(v, gamma)
                    assert np.abs(u - v.mean()).max() <= 1e-15 * (1 + np.abs(v).max()), (v.size, gamma)

    @pytest.mark.parametrize(
        "v, gamma",
        [
            ([1.0, 0.0, 2.0, 5.0], np.nan),
            ([1.0, np.nan, 2.0, 5.0], 0.5),
            ([1.0, np.inf, 2.0, 5.0], 0.5),
            ([1.0, 0.0, 2.0, 5.0], np.inf),
        ],
        ids=["nan-gamma", "nan-entry", "inf-entry", "inf-gamma"],
    )
    def test_non_finite_input(self, v, gamma):
        # a NaN or infinite gamma or a non-finite entry is rejected, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                prox(v, gamma)

    def test_mean_preserved(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(1, 60)))
            u = prox(v, float(rng.uniform(0, 3)))
            assert u.mean() == pytest.approx(v.mean(), abs=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            T = int(rng.integers(2, 50))
            v1 = rng.standard_normal(T)
            v2 = rng.standard_normal(T)
            gamma = float(rng.uniform(0, 2))
            d_out = np.linalg.norm(prox(v1, gamma) - prox(v2, gamma))
            assert d_out <= np.linalg.norm(v1 - v2) + 1e-10

    def test_tv_monotone_in_gamma(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            v = rng.standard_normal(int(rng.integers(2, 40)))
            g1, g2 = sorted(rng.uniform(0, 2, size=2))
            tv1 = tv_penalty(prox(v, g1)[:, None])
            tv2 = tv_penalty(prox(v, g2)[:, None])
            assert tv2 <= tv1 + 1e-10

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            prox(np.array([1.0, 2.0]), -0.1)

    @pytest.mark.parametrize(
        "gamma, error, message",
        [("0.5", InvalidHyperparameterError, "gamma must be a real number, got '0.5'"),
         (True, InvalidHyperparameterError, "gamma must be a real number, got True"),
         (np.nan, NonFiniteError, "gamma must be finite"),
         (-0.1, InvalidHyperparameterError, "gamma must be >= 0, got -0.1")],
        ids=["text", "bool", "nan", "negative"],
    )
    def test_bad_gamma_is_named(self, gamma, error, message):
        # a text or bool gamma was once read by float() and accepted
        V = np.array([[1.0, 0.0], [0.0, 2.0], [5.0, 1.0]])
        with pytest.raises(error, match=message):
            tv_prox_columns(V, gamma, np.ones_like(V))

    def test_columnwise_application(self):
        rng = np.random.default_rng(19)
        V = rng.standard_normal((12, 3))
        V = np.column_stack([V, 0.01 * rng.standard_normal(12)])  # a saturated column
        out = tv_prox_columns(V, 0.4, np.ones_like(V))
        assert np.ptp(out[:, 3]) == 0.0 and np.ptp(out[:, :3], axis=0).min() > 0.0
        for r in range(4):
            assert np.array_equal(out[:, r], prox(V[:, r], 0.4))


    def test_weighted_prox_matches_dual_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            T = int(rng.integers(2, 13))
            v = 3.0 * rng.standard_normal(T)
            w = rng.lognormal(0.0, 1.0, T)
            gamma = (0.01, 0.3, 1.0, 5.0)[trial % 4]
            u = tv_prox_columns(v[:, None], gamma, w[:, None])[:, 0]
            ref = weighted_tv_prox_dual_oracle(v, w, gamma)
            f, f_ref = weighted_prox_objective(u, v, w, gamma), weighted_prox_objective(ref, v, w, gamma)
            assert abs(f - f_ref) <= 1e-10 * f_ref, (trial, T, gamma)

    def test_unit_weights_reproduce_unweighted_prox(self):
        rng = np.random.default_rng(32)
        cases = long_prox_cases()
        for _ in range(100):
            T = int(rng.integers(1, 7))
            cases.append((3.0 * rng.standard_normal(T), float(rng.uniform(0.0, 2.0))))
        for v, gamma in cases:
            ref = unit_tv_prox_reference(v, gamma)
            assert np.array_equal(prox(v, gamma), ref)

    def test_weighted_saturated_prox_is_the_weighted_mean(self):
        # integer data and weights with an integer weighted mean make the
        # threshold max_k |sum_{i<=k} w_i (v_i - m)| exact
        rng = np.random.default_rng(33)
        for T in (2, 4, 1000):
            v = rng.integers(-9, 10, T).astype(float)
            w = rng.integers(1, 6, T).astype(float)
            w[-1] = 1.0
            v[-1] -= np.sum(w * v) % np.sum(w)
            mean = np.sum(w * v) / np.sum(w)
            threshold = np.abs(np.cumsum(w * (v - mean))[:-1]).max()
            for gamma in (threshold, 1e300):
                u = tv_prox_columns(v[:, None], gamma, w[:, None])[:, 0]
                assert np.array_equal(u, np.full(T, mean)), (T, gamma)

    @pytest.mark.parametrize("s", [1e300, 1e307, 5e307, 1.7e308, 2.0**1023])
    def test_prox_is_invariant_under_scaling_weights_and_gamma(self, s):
        # the prox of (v, gamma s, w s) is that of (v, gamma, w); the sums of
        # weights near 1e308 once overflowed (at 5e307 off by 0.43, at
        # 1.7e308 NaN), now they are taken after an exact power-of-two scaling
        rng = np.random.default_rng(0)
        v = rng.standard_normal(10)
        for w in (np.ones(10), rng.uniform(0.5, 1.0, 10)):
            expected = tv_prox_columns(v[:, None], 0.7, w[:, None])[:, 0]
            scaled = tv_prox_columns(v[:, None], 0.7 * s, s * w[:, None])[:, 0]
            assert np.allclose(scaled, expected, rtol=0.0, atol=1e-12)
            if s == 2.0**1023:  # a power of two scales every operation exactly
                assert np.array_equal(scaled, expected)

    @pytest.mark.parametrize(
        "weights, error",
        [(np.array([[1.0], [0.0]]), ValueError), (np.array([[1.0], [-2.0]]), ValueError),
         (np.array([[1.0], [np.nan]]), NonFiniteError), (np.array([[np.inf], [1.0]]), NonFiniteError),
         (np.ones((2, 2)), ValueError)],
        ids=["zero", "negative", "nan", "inf", "shape"],
    )
    def test_bad_weights_rejected(self, weights, error):
        with pytest.raises(error):
            tv_prox_columns(np.array([[1.0], [2.0]]), 0.5, weights)


class TestRegularizer:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Regularizer(kind="ridge")

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            Regularizer(kind="tv", beta=-1.0)

    def test_zero_beta_equivalent_to_none(self):
        rng = np.random.default_rng(20)
        U3 = rng.standard_normal((8, 2))
        assert Regularizer("tv", 0.0).penalty(U3) == Regularizer("none").penalty(U3) == 0.0

    def test_penalty_dispatch(self):
        U3 = np.array([[0.0], [1.0], [3.0]])
        assert Regularizer("tv", 2.0).penalty(U3) == pytest.approx(6.0)
        assert Regularizer("spline", 2.0).penalty(U3) == pytest.approx(2.0 * spline_penalty(U3))

import numpy as np
import pytest

from lrtvar.cp_model import CpFactors, export_factors
from lrtvar.errors import NonFiniteError


def random_model(rng, N=4, N_in=None, T=5, R=3, affine=False):
    N_in = N if N_in is None else N_in
    return CpFactors(
        U1=rng.standard_normal((N, R)),
        U2=rng.standard_normal((N_in, R)),
        U3=rng.standard_normal((T, R)),
        affine=affine,
    )


def reconstruct_triple_loop(model):
    """Entrywise oracle: tensor(i,j,k) = sum_r U1[i,r] U2[j,r] U3[k,r]."""
    N, N_in, T, R = model.N, model.N_in, model.T, model.R
    out = np.zeros((N, N_in, T))
    for i in range(N):
        for j in range(N_in):
            for k in range(T):
                for r in range(R):
                    out[i, j, k] += model.U1[i, r] * model.U2[j, r] * model.U3[k, r]
    return out


def normalize_loop(model):
    """Component-by-component reference for ``CpFactors.normalize``:
    (U1, U2, U3, lam), sorted by descending scale."""
    U1, U2, U3 = model.U1.copy(), model.U2.copy(), model.U3.copy()
    norms = [np.linalg.norm(U, axis=0) for U in (U1, U2, U3)]
    lam = norms[0] * norms[1] * norms[2]
    for r in range(model.R):
        for U, n in zip((U1, U2, U3), norms):
            if n[r] > 0:
                U[:, r] /= n[r]
        if np.any(U3[:, r]):
            j = int(np.argmax(np.abs(U3[:, r])))
            if U3[j, r] < 0:
                U3[:, r] = -U3[:, r]
                U1[:, r] = -U1[:, r]
    order = np.argsort(-lam, kind="stable")
    return U1[:, order], U2[:, order], U3[:, order], lam[order]


class TestSlice:
    def test_rank_one_outer_product(self):
        model = CpFactors(U1=np.array([[1.0], [0.0]]), U2=np.array([[0.0], [1.0]]), U3=np.array([[2.0]]))
        assert np.array_equal(model.slice(0), np.array([[0.0, 2.0], [0.0, 0.0]]))

    def test_zero_temporal_row_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, T=3)
        model.U3[1] = 0.0
        assert np.array_equal(model.slice(1), np.zeros((4, 4)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, N=4, T=5, R=3)
        dense = reconstruct_triple_loop(model)
        for k in range(model.T):
            assert np.allclose(model.slice(k), dense[:, :, k], atol=1e-12)

    def test_affine_last_column_is_offset(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, N=3, N_in=4, T=2, affine=True)
        c = model.U2[-1]
        for k in range(2):
            offset = (model.U1 * model.U3[k]) @ c
            assert np.allclose(model.slice(k)[:, -1], offset, atol=1e-14)

    def test_index_out_of_range(self):
        model = random_model(np.random.default_rng(3))
        with pytest.raises(IndexError):
            model.slice(5)
        with pytest.raises(IndexError):
            model.slice(-1)


class TestNormalize:
    def test_unit_columns_fixed_point(self):
        # already-unit columns with positive dominant temporal entries
        U1 = np.eye(3)[:, :2]
        U2 = np.eye(3)[:, :2]
        U3 = np.eye(4)[:, :2]
        norm = CpFactors(U1=U1, U2=U2, U3=U3).normalize()
        assert np.allclose(norm.lam, [1.0, 1.0])
        assert np.allclose(norm.factors.U1, U1)
        assert np.allclose(norm.factors.U3, U3)

    def test_three_four_five(self):
        model = CpFactors(U1=np.array([[3.0], [4.0]]), U2=np.array([[1.0]]), U3=np.array([[1.0]]))
        norm = model.normalize()
        assert norm.lam == pytest.approx([5.0])
        assert np.allclose(norm.factors.U1, [[0.6], [0.8]])

    def test_reconstruction_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model = random_model(rng, N=3, N_in=5, T=4, R=3)
            dense = reconstruct_triple_loop(model)
            norm = model.normalize()
            f = norm.factors
            redone = reconstruct_triple_loop(CpFactors(U1=f.U1 * norm.lam, U2=f.U2, U3=f.U3))
            assert np.allclose(redone, dense, rtol=1e-10, atol=1e-12)

    def test_descending_order_and_sign_convention(self):
        rng = np.random.default_rng(5)
        norm = random_model(rng, R=4).normalize()
        assert np.all(np.diff(norm.lam) <= 1e-15)
        for r in range(4):
            col = norm.factors.U3[:, r]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_zero_component_gets_zero_scale(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, R=3)
        model.U3[:, 1] = 0.0
        norm = CpFactors(model.U1, model.U2, model.U3).normalize()
        assert norm.lam[-1] == 0.0
        assert np.count_nonzero(norm.lam) == 2

    def test_matches_the_component_loop_bit_for_bit(self):
        # rounded entries give tied magnitudes, zero columns and equal scales
        rng = np.random.default_rng(8)
        for _ in range(300):
            N, N_in, T, R = rng.integers(1, 6, size=4)
            factors = [rng.standard_normal((n, R)) for n in (N, N_in, T)]
            for U in factors:
                if rng.random() < 0.5:
                    U[:] = np.round(U)
                if rng.random() < 0.3:
                    U[:, rng.integers(R)] = 0.0
            norm = CpFactors(*factors).normalize()
            got = (norm.factors.U1, norm.factors.U2, norm.factors.U3, norm.lam)
            for a, b in zip(got, normalize_loop(CpFactors(*factors))):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, N=5, T=6, R=3)
        once = model.normalize()
        f = once.factors
        twice = CpFactors(U1=f.U1 * once.lam, U2=f.U2, U3=f.U3).normalize()
        assert np.allclose(once.lam, twice.lam, atol=1e-12)
        assert np.allclose(once.factors.U3, twice.factors.U3, atol=1e-12)


class TestEffectiveRank:
    def test_two_big_two_zero(self):
        U1 = np.eye(4)
        U2 = np.eye(4)
        U3 = np.diag([5.0, 5.0, 0.0, 0.0])
        assert CpFactors(U1, U2, U3).effective_rank(0.1) == 2

    def test_all_zero_model(self):
        z = CpFactors(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((5, 2)))
        assert z.effective_rank(0.1) == 0

    def test_threshold_validation(self):
        model = random_model(np.random.default_rng(10))
        with pytest.raises(ValueError):
            model.effective_rank(0.0)
        with pytest.raises(ValueError):
            model.effective_rank(1.0)


class TestInvariants:
    def test_column_space_property(self):
        # every slice's columns lie in span(U1), rows in span(U2)
        rng = np.random.default_rng(11)
        model = random_model(rng, N=6, N_in=7, T=4, R=3)
        Q1, _ = np.linalg.qr(model.U1)
        Q2, _ = np.linalg.qr(model.U2)
        for k in range(model.T):
            A = model.slice(k)
            assert np.linalg.norm(A - Q1 @ (Q1.T @ A)) <= 1e-10
            assert np.linalg.norm(A - (A @ Q2) @ Q2.T) <= 1e-10

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CpFactors(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        U = np.ones((2, 1))
        with pytest.raises(NonFiniteError):
            CpFactors(U * np.nan, U, U)


class TestExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        norm = random_model(rng, N=3, N_in=4, T=5, R=2).normalize()
        paths = export_factors(norm, tmp_path, manifest="demo")
        assert [p.split("/")[-1] for p in paths] == ["U1.csv", "U2.csv", "U3.csv", "lambda.csv"]
        loaded = np.loadtxt(tmp_path / "U3.csv", delimiter=",", comments="#", skiprows=3)
        assert np.allclose(loaded, norm.factors.U3, atol=0)
        lam = np.loadtxt(tmp_path / "lambda.csv", delimiter=",", comments="#", skiprows=2)
        assert np.allclose(lam[:, 1], norm.lam, atol=0)

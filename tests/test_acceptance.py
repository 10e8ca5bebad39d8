"""Acceptance gate: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
dense oracles (gradients, finite differences, the exact-CG patch, the
Kronecker, Hadamard and brute-force TV-prox solves) come from ``oracles``,
which the solver and regularizer tests share.
"""

import time
import tracemalloc

import numpy as np
import pytest

import lrtvar.solver
from lrtvar.cli import main as cli_main
from lrtvar.cp_model import CpFactors
from lrtvar.evaluation import (
    cluster_temporal_modes,
    independent_fit,
    model_estimate,
    operator_norm_error,
)
from lrtvar.regularizers import Regularizer, tv_prox_columns
from lrtvar.solver import Hyperparams, fit, loss, update_right, update_temporal
from lrtvar.synthetic import gp_covariance, sample_gp_angle, simulate_smooth, simulate_switching
from lrtvar.windowing import SnapshotPair, build_snapshots

from oracles import dense_gradients, fd_gradient, kron_oracle_right, temporal_dense_oracle, tight_cg, tv_prox_oracle


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_switching_benchmark():
    rmses, iter_counts, cluster_hits, rank_hits = [], [], 0, 0
    t0 = time.perf_counter()
    for seed in range(10):
        truth = simulate_switching(N=10, tau=200, sigma=0.5, seed=seed)
        pair = build_snapshots(truth.series, M=20)
        params = Hyperparams(R=8, eta=1.0 / 10, reg=Regularizer("tv", 5.0), seed=seed)
        model, rep = fit(pair, params)
        rmses.append(rep.rmse_trace[-1])
        iter_counts.append(rep.iterations)
        labels = cluster_temporal_modes(model.normalize().factors.U3, k=2, seed=seed)
        cluster_hits += int(np.array_equal(labels, [0] * 5 + [1] * 5))
        rank_hits += int(model.effective_rank(0.1) == 4)
    wall = time.perf_counter() - t0
    ok_a = all(0.50 <= r <= 0.62 for r in rmses)
    ok_b = all(n <= 100 for n in iter_counts)
    ok_c = cluster_hits >= 8
    ok_d = rank_hits >= 8
    ok = ok_a and ok_b and ok_c and ok_d and wall < 30
    report(
        1,
        "switching-benchmark",
        ok,
        f"rmse {min(rmses):.3f}..{max(rmses):.3f}, iters max {max(iter_counts)}, "
        f"cluster {cluster_hits}/10, rank4 {rank_hits}/10, {wall:.1f}s",
    )
    assert ok


def test_criterion_2_method_comparison():
    means = {}
    max_wall_n100 = 0.0
    for N in (10, 100):
        errs = {"lowrank": [], "indep-full": [], "indep-r4": []}
        for seed in range(5):
            truth = simulate_switching(N=N, tau=200, sigma=0.5, seed=seed)
            pair = build_snapshots(truth.series, M=20)
            t0 = time.perf_counter()
            model, _ = fit(pair, Hyperparams(R=4, eta=1.0 / N, reg=Regularizer("tv", 1.0), seed=seed))
            errs["lowrank"].append(operator_norm_error(model_estimate(model), truth))
            errs["indep-full"].append(operator_norm_error(independent_fit(pair), truth))
            errs["indep-r4"].append(operator_norm_error(independent_fit(pair, rank=4), truth))
            if N == 100:
                max_wall_n100 = max(max_wall_n100, time.perf_counter() - t0)
        means[N] = {k: float(np.mean(v)) for k, v in errs.items()}
    ok_order = all(
        means[N]["lowrank"] < means[N]["indep-full"] and means[N]["lowrank"] < means[N]["indep-r4"]
        for N in (10, 100)
    )
    ok_time = max_wall_n100 <= 60.0
    ok = ok_order and ok_time
    report(
        2,
        "method-comparison",
        ok,
        f"N=10 {means[10]['lowrank']:.3f} < {means[10]['indep-r4']:.3f} < {means[10]['indep-full']:.3f}; "
        f"N=100 {means[100]['lowrank']:.3f} < {means[100]['indep-r4']:.3f} < {means[100]['indep-full']:.3f}; "
        f"max N=100 run {max_wall_n100:.1f}s",
    )
    assert ok


def test_criterion_3_smooth_benchmark():
    # per-seed GP difficulty straddles the threshold, so the criterion is
    # evaluated as the mean over three fixed seeds (still desk scale)
    t0 = time.perf_counter()
    N = 10
    beta = 600.0 * np.log10(N) ** 2
    lowrank_errs, indep_errs = [], []
    for seed in range(3):
        truth = simulate_smooth(N=N, tau=160, sigma=0.2, seed=seed)
        pair = build_snapshots(truth.series, M=1)
        model, _ = fit(pair, Hyperparams(R=4, eta=6.0 / N, reg=Regularizer("spline", beta), seed=seed))
        lowrank_errs.append(operator_norm_error(model_estimate(model), truth))
        indep_errs.append(operator_norm_error(independent_fit(pair), truth))
    wall = time.perf_counter() - t0
    mean_lowrank = float(np.mean(lowrank_errs))
    mean_indep = float(np.mean(indep_errs))
    ok = mean_lowrank <= 0.2 and all(l < i for l, i in zip(lowrank_errs, indep_errs)) and wall < 120
    report(
        3,
        "smooth-benchmark",
        ok,
        f"mean op error {mean_lowrank:.3f} (<=0.2), indep {mean_indep:.3f}, {wall:.1f}s",
    )
    assert ok


def test_criterion_4_descent_property():
    rng = np.random.default_rng(2024)
    violations = 0
    for trial in range(50):
        N = int(rng.integers(2, 9))
        T = int(rng.integers(2, 7))
        R = int(rng.integers(1, 4))
        M = int(rng.integers(2, 8))
        kind = ("none", "tv", "spline")[trial % 3]
        beta = 0.0 if kind == "none" else float(rng.uniform(0.1, 5.0))
        data = SnapshotPair(X=rng.standard_normal((N, M, T)), Y=rng.standard_normal((N, M, T)))
        params = Hyperparams(
            R=R,
            eta=float(rng.uniform(0.05, 2.0)),
            reg=Regularizer(kind, beta),
            max_outer_iters=12,
            rtol=0.0,
            atol=0.0,
            seed=trial,
        )
        _, rep = fit(data, params)
        trace = np.array(rep.cost_trace)
        slack = 1e-8 * (1 + np.abs(trace[:-1]))
        violations += int(np.any(np.diff(trace) > slack))
    ok = violations == 0
    report(4, "descent-property", ok, f"{violations} violations in 50 instances")
    assert ok


# -- criterion 5: the block updates against the dense oracles ---------------


def right_update_deviations(monkeypatch, cold=False):
    """Worst absolute and relative deviation of ``update_right`` from the
    Kronecker solve, and the set of its reported CG iteration counts, on 20
    small random problems; ``cold`` starts each CG from a zero U2."""
    tight_cg(monkeypatch)
    rng = np.random.default_rng(5)
    worst, worst_relative, iterations = 0.0, 0.0, set()
    for _ in range(20):
        N = int(rng.integers(2, 9))
        R = int(rng.integers(1, 4))
        T = int(rng.integers(2, 5))
        M = int(rng.integers(2, 7))
        U1, U2, U3 = rng.standard_normal((N, R)), rng.standard_normal((N, R)), rng.standard_normal((T, R))
        model = CpFactors(U1, np.zeros_like(U2) if cold else U2, U3)
        data = SnapshotPair(X=rng.standard_normal((N, M, T)), Y=rng.standard_normal((N, M, T)))
        ref = kron_oracle_right(model, data, eta=0.5)
        out, outcome = update_right(model, data, Hyperparams(R=R, eta=0.5), lrtvar.solver._products(model, data))
        worst = max(worst, float(np.abs(out - ref).max()))
        worst_relative = max(worst_relative, float(np.linalg.norm(out - ref) / np.linalg.norm(ref)))
        iterations.add(outcome.steps)
    return worst, worst_relative, iterations


def test_criterion_5a_right_update_vs_kronecker(monkeypatch):
    # the matrix-free CG, run to 1e-13 of ||B|| with no forcing term
    worst, worst_relative, iterations = right_update_deviations(monkeypatch)
    ok = worst_relative <= 1e-10 and 0 not in iterations
    report(5, "oracle-a-kronecker", ok, f"worst relative deviation {worst_relative:.2e}, worst abs {worst:.2e}")
    assert ok


def test_criterion_5a_right_update_cg_vs_kronecker(monkeypatch):
    # the same CG started from a zero U2: the warm start does not move the answer
    worst, worst_relative, iterations = right_update_deviations(monkeypatch, cold=True)
    ok = worst_relative <= 1e-10 and 0 not in iterations
    report(5, "oracle-a-kronecker-cg", ok, f"worst relative deviation {worst_relative:.2e}, worst abs {worst:.2e}")
    assert ok


def test_criterion_5a_right_update_on_a_fit_workspace_vs_kronecker(monkeypatch):
    # the same CG on the range coordinates a fit runs in
    tight_cg(monkeypatch)
    rng = np.random.default_rng(5)
    worst_relative, iterations = 0.0, set()
    for _ in range(20):
        N = int(rng.integers(2, 9))
        R = int(rng.integers(1, 4))
        T = int(rng.integers(2, 5))
        M = int(rng.integers(2, 7))
        data = SnapshotPair(X=rng.standard_normal((N, M, T)), Y=rng.standard_normal((N, M, T)))
        work = lrtvar.solver._range_data(data)
        for _ in range(3):
            model = CpFactors(rng.standard_normal((work.N, R)), rng.standard_normal((work.N_in, R)),
                              rng.standard_normal((T, R)))
            ref = kron_oracle_right(model, work, eta=0.5)
            out, outcome = update_right(model, work, Hyperparams(R=R, eta=0.5), lrtvar.solver._products(model, work))
            worst_relative = max(worst_relative, float(np.linalg.norm(out - ref) / np.linalg.norm(ref)))
            iterations.add(outcome.steps)
    ok = worst_relative <= 1e-10 and 0 not in iterations
    report(5, "oracle-a-kronecker-workspace", ok, f"worst relative deviation {worst_relative:.2e}")
    assert ok


def test_criterion_5b_temporal_update_vs_hadamard():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        N = int(rng.integers(2, 7))
        R = int(rng.integers(1, 4))
        T = int(rng.integers(2, 6))
        model = CpFactors(rng.standard_normal((N, R)), rng.standard_normal((N, R)), rng.standard_normal((T, R)))
        data = SnapshotPair(X=rng.standard_normal((N, 5, T)), Y=rng.standard_normal((N, 5, T)))
        out, _ = update_temporal(model, data, Hyperparams(R=R, eta=0.8), lrtvar.solver._products(model, data))
        ref = temporal_dense_oracle(model, data, eta=0.8)
        worst = max(worst, float(np.abs(out - ref).max()))
    ok = worst <= 1e-10
    report(5, "oracle-b-hadamard", ok, f"worst abs deviation {worst:.2e}")
    assert ok


def test_criterion_5c_tv_prox_oracles():
    def prox(v, gamma):
        return tv_prox_columns(v[:, None], gamma, np.ones((v.size, 1)))[:, 0]

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 7))
        v = 3.0 * rng.standard_normal(T)
        gamma = float(rng.uniform(0.0, 2.0))
        worst = max(worst, float(np.abs(prox(v, gamma) - tv_prox_oracle(v, gamma)).max()))
    certificate_ok = True
    for _ in range(100):
        T = int(rng.integers(2, 201))
        v = np.cumsum(rng.standard_normal(T))
        gamma = float(rng.uniform(1e-3, 1.5))
        u = prox(v, gamma)
        w = -np.cumsum(u - v)[:-1] / gamma
        jumps = u[:-1] - u[1:]
        big = np.abs(jumps) > 1e-9
        certificate_ok &= bool(np.all(np.abs(w) <= 1 + 1e-8))
        certificate_ok &= bool(np.allclose(w[big], np.sign(jumps[big]), atol=1e-8))
        certificate_ok &= bool(abs(np.sum(u - v)) < 1e-8 * (1 + np.abs(v).sum()))
    ok = worst <= 1e-8 and certificate_ok
    report(5, "oracle-c-tv-prox", ok, f"worst brute-force gap {worst:.2e}, certificates {'ok' if certificate_ok else 'bad'}")
    assert ok


def test_criterion_5d_block_gradients_vs_finite_differences():
    from lrtvar.regularizers import spline_penalty

    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(20):
        N = int(rng.integers(2, 7))
        R = int(rng.integers(1, 4))
        T = int(rng.integers(2, 6))
        reg = Regularizer("spline", 1.5) if trial % 2 else Regularizer()
        model = CpFactors(rng.standard_normal((N, R)), rng.standard_normal((N, R)), rng.standard_normal((T, R)))
        data = SnapshotPair(X=rng.standard_normal((N, 4, T)), Y=rng.standard_normal((N, 4, T)))
        params = Hyperparams(R=R, eta=0.6, reg=reg)

        def smooth():
            ridge = sum(float(np.sum(U * U)) for U in (model.U1, model.U2, model.U3)) / (2 * 0.6)
            value = loss(model, data) + ridge
            if reg.kind == "spline":
                value += reg.beta * spline_penalty(model.U3)
            return value

        for analytic, block in zip(dense_gradients(model, data, params), (model.U1, model.U2, model.U3)):
            numeric = fd_gradient(smooth, block)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1.0)
            worst = max(worst, float(rel))
    ok = worst <= 1e-5
    report(5, "oracle-d-gradients", ok, f"worst relative gap {worst:.2e}")
    assert ok


def test_criterion_6_generator_audits():
    # every block left[b] @ right[b].T the generators return is a rank-2 rotation
    sv_ok = True
    for N in (2, 10, 100):
        for truth in (simulate_switching(N=N, tau=20, seed=N), simulate_smooth(N=N, tau=20, seed=N)):
            for s in np.linalg.svd(truth.left @ truth.right.transpose(0, 2, 1), compute_uv=False):
                sv_ok &= bool(np.abs(s[:2] - 1.0).max() <= 1e-10)
                if N > 2:
                    sv_ok &= bool(s[2] <= 1e-10)
    K = gp_covariance(64)
    diag_ok = bool(np.all(K[np.diag_indices(64)] == 1.001))
    draws = np.stack([sample_gp_angle(8, seed_or_rng=seed) for seed in range(2000)])
    var = draws.var(axis=0, ddof=1)
    var_ok = bool(np.all(np.abs(var - 1.001) <= 0.10 * 1.001))
    ok = sv_ok and diag_ok and var_ok
    report(
        6,
        "generator-audits",
        ok,
        f"singular values {'ok' if sv_ok else 'bad'}, kernel diag {'exact' if diag_ok else 'bad'}, "
        f"marginal var within {np.abs(var - 1.001).max() / 1.001 * 100:.1f}%",
    )
    assert ok


def test_criterion_7_scalability_memory_audit():
    peaks = {}
    stats = {}
    for N in (1000, 2000):
        truth = simulate_switching(N=N, tau=200, sigma=0.5, seed=0)  # outside the audit
        tracemalloc.start()
        t0 = time.perf_counter()
        pair = build_snapshots(truth.series, M=20)
        model, rep = fit(pair, Hyperparams(R=4, eta=1.0 / N, reg=Regularizer("tv", 1.0), seed=0))
        wall = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[N] = peak
        stats[N] = (rep.iterations, rep.rmse_trace[-1], wall)
    n_by_n_bytes = 8 * 2000 * 2000
    growth = peaks[2000] / peaks[1000]
    ok = peaks[2000] < n_by_n_bytes and growth < 3.0 and stats[2000][1] < 1.0
    report(
        7,
        "scalability-smoke",
        ok,
        f"N=2000 fit: {stats[2000][0]} iters, rmse {stats[2000][1]:.3f}, {stats[2000][2]:.1f}s, "
        f"peak {peaks[2000] / 1e6:.1f}MB < one NxN {n_by_n_bytes / 1e6:.0f}MB, growth x{growth:.2f} (quadratic ~4)",
    )
    assert ok


def test_criterion_8_cli_determinism(tmp_path):
    def run_twice(name, argv_builder):
        dirs = [tmp_path / f"{name}_{i}" for i in (1, 2)]
        for d in dirs:
            code = cli_main(argv_builder(str(d)))
            assert code == 0, name
        mismatched = []
        csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert csvs, name
        for fname in csvs:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatched.append(fname)
        return csvs, mismatched

    gen_dir = tmp_path / "gen_1"
    results = {}
    results["generate"] = run_twice(
        "gen", lambda out: ["generate", "--benchmark", "switching", "--N", "6", "--tau", "80", "--seed", "5", "--out", out]
    )
    series = str(gen_dir / "series.csv")
    results["fit"] = run_twice(
        "fit",
        lambda out: ["fit", "--input", series, "--rank", "3", "--window", "10", "--eta", "0.2",
                     "--beta", "2", "--reg", "tv", "--clusters", "2", "--seed", "5", "--out", out],
    )
    results["compare"] = run_twice(
        "cmp",
        lambda out: ["compare", "--benchmark", "switching", "--N-list", "6", "--tau", "80",
                     "--seeds", "0,1", "--methods", "lowrank-r3,indep-full", "--out", out],
    )
    fit_dir = tmp_path / "fit_1"
    results["cluster"] = run_twice(
        "clu", lambda out: ["cluster", "--u3", str(fit_dir / "U3.csv"), "--k", "2", "--seed", "5", "--out", out]
    )
    bad = {cmd: miss for cmd, (_, miss) in results.items() if miss}
    ok = not bad
    checked = sum(len(files) for files, _ in results.values())
    report(8, "cli-determinism", ok, f"{checked} CSVs byte-compared across reruns of 4 commands" + (f"; mismatches {bad}" if bad else ""))
    assert ok

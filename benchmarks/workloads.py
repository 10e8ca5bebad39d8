"""The four benchmark workloads: inputs from a seed, one timed instance, and its correctness check.

Each workload turns the run's seed into a pool of instance seeds, prepares
the inputs for them (set-up, timed separately), and runs one instance at a
time: fit, then score against the generated truth.  The program only ever
sees the generated series; the truth is used for scoring and checks.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

MONOTONE_SLACK = 1e-8  # allowed cost rise per outer step, relative to 1 + |C|


@dataclass
class Outcome:
    """What one instance measured and whether its answer passed the checks."""

    instance_s: float
    fit_s: float
    score_s: float
    op_error: float = float("nan")
    final_cost: float = float("nan")
    outer_iters: float = float("nan")
    regime_hit: Optional[bool] = None
    beats_indep_r4: Optional[bool] = None
    bytes_written: int = 0
    problems: tuple = ()


def instance_seeds(seed: int, count: int) -> list:
    """Distinct, reproducible instance seeds for one run seed."""
    return [seed * 100_003 + i for i in range(count)]


def switch_labels(T: int, M: int, tau: int) -> list:
    """Expected 2-means labels: windows before the switch at tau/2 are 0."""
    return [int(k * M >= tau // 2) for k in range(T)]


def fit_problems(U1, U2, U3, cost_trace) -> list:
    """Finite factors and a cost trace that never rises beyond the slack."""
    problems = [f"{name} has non-finite entries" for name, U in (("U1", U1), ("U2", U2), ("U3", U3))
                if not np.all(np.isfinite(U))]
    trace = np.asarray(cost_trace, dtype=float)
    if not np.all(np.isfinite(trace)):
        problems.append("cost trace has non-finite entries")
    else:
        rises = np.flatnonzero(np.diff(trace) > MONOTONE_SLACK * (1 + np.abs(trace[:-1])))
        if rises.size:
            problems.append(f"cost rose at outer iteration {int(rises[0]) + 1}")
    return problems


class Workload:
    """Base: fixed problem sizes, a pool of instances, and a quality sample.

    ``pool`` inputs are prepared per run and cycled by the timing loop;
    the first ``quality_n`` of them always run and are the only ones the
    answer metrics come from, so those do not depend on the machine's speed.
    """

    pool = 1
    quality_n = 1
    min_regime_hits = 0.0  # run-level share of quality instances that must recover the regimes

    def __init__(self, lib, smoke: bool, workdir: str):
        self.lib = lib
        self.smoke = smoke
        self.workdir = workdir
        if smoke:
            self.pool = self.quality_n = 1

    def prepare(self, seed: int, count: Optional[int] = None) -> list:
        """Inputs for the first ``count`` instances of the run's pool (all by default)."""
        return [self.prepare_one(s) for s in instance_seeds(seed, count or self.pool)]

    def close(self) -> None:
        """Remove anything the instances left on disk."""


class _FitAndScore(Workload):
    """Shared shape of the three library workloads: simulate, window, fit, score."""

    stopping = {}  # Hyperparams stopping fields; empty keeps the library defaults (rtol=1e-4)

    def prepare_one(self, s: int):
        lib = self.lib
        truth = self.simulate(s)
        pair = lib.windowing.build_snapshots(truth.series, M=self.M)
        params = lib.solver.Hyperparams(
            R=self.R, eta=self.eta, reg=lib.regularizers.Regularizer(self.reg, self.beta), seed=s, **self.stopping
        )
        return s, truth, pair, params

    def run(self, inputs) -> Outcome:
        s, truth, pair, params = inputs
        t0 = time.perf_counter()
        model, report = self.lib.solver.fit(pair, params)
        t1 = time.perf_counter()
        score = self.score(s, truth, pair, model)
        t2 = time.perf_counter()
        problems = fit_problems(model.U1, model.U2, model.U3, report.cost_trace)
        problems += self.answer_problems(report, score)
        return Outcome(
            instance_s=t2 - t0,
            fit_s=t1 - t0,
            score_s=t2 - t1,
            op_error=score["op_error"],
            final_cost=float(report.cost_trace[-1]),
            outer_iters=report.iterations,
            regime_hit=score.get("regime_hit"),
            problems=tuple(problems),
        )


class Switching(_FitAndScore):
    """Paper headline: two rotation regimes, TV-smoothed temporal modes, N=10."""

    pool = 96
    quality_n = 32
    N, tau, sigma, M, R, reg, beta = 10, 200, 0.5, 20, 8, "tv", 5.0
    rmse_range = (0.50, 0.62)  # acceptance criterion 1, per instance
    min_regime_hits = 0.8  # acceptance criterion 1: 8 of 10 seeds cluster and rank correctly

    @property
    def eta(self):
        return 1.0 / self.N

    def simulate(self, s):
        return self.lib.synthetic.simulate_switching(N=self.N, tau=self.tau, sigma=self.sigma, seed=s)

    def score(self, s, truth, pair, model) -> dict:
        ev = self.lib.evaluation
        op_error = ev.operator_norm_error(ev.model_estimate(model), truth)
        labels = ev.cluster_temporal_modes(model.normalize().factors.U3, k=2, seed=s)
        rank = model.effective_rank(0.1)
        hit = list(labels) == switch_labels(pair.T, self.M, self.tau) and rank == 4
        return {"op_error": op_error, "regime_hit": hit}

    def answer_problems(self, report, score) -> list:
        low, high = self.rmse_range
        rmse = report.rmse_trace[-1]
        return [] if low <= rmse <= high else [f"rmse {rmse:.4f} outside [{low}, {high}]"]


class LargeN(_FitAndScore):
    """Scaling case: N=500 switching, R=4; the only workload with T*M < N_in.

    The fit runs a fixed 60 outer iterations.  Its rtol stop comes anywhere
    from 27 to 61 iterations on this problem, which makes time to the stop
    vary twofold between instances; with only about ten instances in a run
    that variation swamps any change in the cost of an iteration, which is
    what this workload is for.  Sixty iterations converge every instance
    checked (operator-norm errors 0.22 to 0.26, the same as at the rtol stop).
    """

    pool = 10
    quality_n = 4
    tau, sigma, M, R, reg, beta = 200, 0.5, 20, 4, "tv", 1.0
    stopping = {"max_outer_iters": 60, "rtol": 0.0, "atol": 0.0}
    max_rmse = 1.0  # acceptance criterion 7's envelope for the large-N fit

    @property
    def N(self):
        return 240 if self.smoke else 500

    @property
    def eta(self):
        return 1.0 / self.N

    def simulate(self, s):
        return self.lib.synthetic.simulate_switching(N=self.N, tau=self.tau, sigma=self.sigma, seed=s)

    def score(self, s, truth, pair, model) -> dict:
        ev = self.lib.evaluation
        return {"op_error": ev.operator_norm_error(ev.model_estimate(model), truth)}

    def answer_problems(self, report, score) -> list:
        rmse = report.rmse_trace[-1]
        return [] if rmse < self.max_rmse else [f"rmse {rmse:.4f} not below {self.max_rmse}"]


class Smooth(_FitAndScore):
    """Slow drift: spline-smoothed temporal modes, one transition per window."""

    pool = 96
    quality_n = 64
    N, tau, sigma, M, R, reg = 10, 160, 0.2, 1, 4, "spline"

    @property
    def eta(self):
        return 6.0 / self.N

    @property
    def beta(self):
        return 600.0 * float(np.log10(self.N)) ** 2

    def simulate(self, s):
        return self.lib.synthetic.simulate_smooth(N=self.N, tau=self.tau, sigma=self.sigma, seed=s)

    def score(self, s, truth, pair, model) -> dict:
        ev = self.lib.evaluation
        return {
            "op_error": ev.operator_norm_error(ev.model_estimate(model), truth),
            "indep_error": ev.operator_norm_error(ev.independent_fit(pair), truth),
        }

    def answer_problems(self, report, score) -> list:
        if score["op_error"] < score["indep_error"]:
            return []
        return [f"low-rank error {score['op_error']:.4f} not below indep-full {score['indep_error']:.4f}"]


def _read_rows(path) -> list:
    """Non-comment, non-empty CSV lines of a file the CLI wrote, split on commas."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip() and not line.startswith("#")]


def _read_matrix(path) -> np.ndarray:
    rows = _read_rows(path)
    return np.asarray([[float(v) for v in row] for row in rows[1:]])  # first row is the header


class Cli(Workload):
    """User-facing path: generate -> fit -> compare through ``lrtvar.cli.main``,
    writing and reading every CSV, run in-process.

    Both low-rank fits run a fixed number of outer iterations, 30 in ``fit``
    (its rtol stop comes after 20 to 30) and 60 for ``lowrank-r4`` in
    ``compare`` (24 to 58): with five or so pipelines in a run, time to the
    rtol stop varied too much between seeds.  N=200 rather than 300 halves
    the pipeline, so a run holds twice as many, and keeps T*M = N_in, so
    only ``large_n`` has T*M < N_in.  ``lowrank-r4`` must beat ``indep-full``
    on every instance; whether it also beats ``indep-r4`` is reported, not
    gated: a few instances in a hundred stall on a plateau of the cost and
    keep about twice the error of indep-r4 after 60 iterations.
    """

    pool = 16
    quality_n = 4
    tau, M = 200, 20
    methods = ("lowrank-r4", "indep-full", "indep-r4")
    fit_stopping = ("--max-iters", "30", "--rtol", "0", "--atol", "0")
    compare_stopping = ("--max-iters", "60", "--rtol", "0", "--atol", "0")

    @property
    def N(self):
        return 40 if self.smoke else 200

    def prepare_one(self, s: int):
        return s

    def run(self, s: int) -> Outcome:
        base = os.path.join(self.workdir, f"instance-{s}")
        gen, fit_dir, cmp_dir = (os.path.join(base, d) for d in ("generate", "fit", "compare"))
        series = os.path.join(gen, "series.csv")
        eta = repr(1.0 / self.N)
        main = self.lib.cli.main
        t0 = time.perf_counter()
        codes = [main(["generate", "--benchmark", "switching", "--N", str(self.N), "--seed", str(s), "--out", gen])]
        t1 = time.perf_counter()
        codes.append(main(["fit", "--input", series, "--rank", "8", "--window", str(self.M), "--eta", eta,
                           "--beta", "5", "--reg", "tv", "--clusters", "2", "--seed", str(s), *self.fit_stopping,
                           "--out", fit_dir]))
        t2 = time.perf_counter()
        codes.append(main(["compare", "--input", series,
                           "--truth-matrices", os.path.join(gen, "truth_matrices.csv"),
                           "--truth-index", os.path.join(gen, "truth_index.csv"),
                           "--methods", ",".join(self.methods), "--window", str(self.M), "--eta", eta,
                           "--beta", "1", "--reg", "tv", "--seeds", str(s), *self.compare_stopping,
                           "--out", cmp_dir]))
        t3 = time.perf_counter()
        try:
            return self._outcome(codes, t0, t1, t2, t3, fit_dir, cmp_dir, base)
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def _outcome(self, codes, t0, t1, t2, t3, fit_dir, cmp_dir, base) -> Outcome:
        problems = [f"subcommand {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        with open(os.path.join(fit_dir, "summary.txt"), "r", encoding="utf-8") as fh:
            summary = {key.strip(): value.strip() for key, _, value in (line.partition(":") for line in fh)}
        U1, U2, U3 = (_read_matrix(os.path.join(fit_dir, f"{n}.csv")) for n in ("U1", "U2", "U3"))
        trace = [float(row[1]) for row in _read_rows(os.path.join(fit_dir, "trace.csv"))[1:]]
        problems += fit_problems(U1, U2, U3, trace)
        labels = [int(row[1]) for row in _read_rows(os.path.join(fit_dir, "clusters.csv"))[1:]]
        hit = labels == switch_labels(len(labels), self.M, self.tau) and summary.get(
            "effective rank (0.1 threshold)") == "4"

        errors = {}
        for method, _, _, err, _, status in _read_rows(os.path.join(cmp_dir, "compare_results.csv"))[1:]:
            if status != "ok":
                problems.append(f"compare {method}: {status}")
            else:
                errors[method] = float(err)
        missing = set(self.methods) - set(errors)
        if missing:
            problems.append(f"compare rows missing: {sorted(missing)}")
        elif errors["lowrank-r4"] >= errors["indep-full"]:
            problems.append(f"lowrank-r4 does not beat indep-full: {errors}")

        written = sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(base) for f in files)
        return Outcome(
            instance_s=t3 - t0,
            fit_s=t2 - t1,
            score_s=t3 - t2,
            op_error=errors.get("lowrank-r4", float("nan")),
            final_cost=float(summary.get("final cost", "nan")),
            outer_iters=float(summary.get("iterations", "nan")),
            regime_hit=hit,
            beats_indep_r4=not missing and errors["lowrank-r4"] < errors["indep-r4"],
            bytes_written=written,
            problems=tuple(problems),
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"switching": Switching, "large_n": LargeN, "smooth": Smooth, "cli": Cli}

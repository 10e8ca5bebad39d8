import dataclasses
import inspect
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import lrtvar.cli
from lrtvar.cli import (
    BENCHMARKS,
    CLUSTER_KNOWN,
    COMPARE_KNOWN,
    FIT_KNOWN,
    GENERATE_KNOWN,
    build_parser,
    main,
    read_truth_bundle,
    resolve_options,
    smooth_beta_default,
    write_truth_bundle,
)
from lrtvar.errors import InvalidHyperparameterError, ShapeMismatchError
from lrtvar.evaluation import independent_fit, operator_norm_error
from lrtvar.solver import CG_MAX_STEPS, OuterIteration
from lrtvar.synthetic import GroundTruth, simulate_smooth, simulate_switching
from lrtvar.windowing import build_snapshots, read_series_csv


def run(argv):
    return main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def count_calls(monkeypatch, names):
    """Wrap each named ``lrtvar.cli`` binding in a call counter; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(lrtvar.cli, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lrtvar.cli, name, counted)
    return calls


def trace_outer(out):
    """The per-iteration records of a fit's trace.json."""
    with open(out / "trace.json", encoding="utf-8") as fh:
        return json.load(fh)["outer"]


def summary_lines(out):
    return (out / "summary.txt").read_text(encoding="utf-8").splitlines()


def data_rows(path):
    """The data rows of a CSV the command line wrote: no comment, blank or header line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")][1:]


@pytest.fixture(scope="module")
def six_channel_fit(tmp_path_factory):
    """A 6-channel switching series of 80 transitions (seed 0) and its TV fit
    at rank 4 in windows of 10, five iterations, clustered into two modes."""
    root = tmp_path_factory.mktemp("six-channel")
    gen, out = root / "gen", root / "fit"
    assert run(["generate", "--benchmark", "switching", "--N", "6", "--tau", "80", "--seed", "0",
                "--out", str(gen)]) == 0
    assert run(["fit", "--input", str(gen / "series.csv"), "--rank", "4", "--window", "10", "--eta", "0.2",
                "--beta", "2", "--reg", "tv", "--clusters", "2", "--max-iters", "5", "--out", str(out)]) == 0
    return gen / "series.csv", out


class TestGenerate:
    def test_switching_defaults(self, tmp_path):
        out = tmp_path / "gen"
        assert run(["generate", "--benchmark", "switching", "--seed", "1", "--out", str(out)]) == 0
        series = read_series_csv(out / "series.csv")
        assert series.n_channels == 10
        assert series.n_samples == 201
        truth = read_truth_bundle(out / "truth_matrices.csv", out / "truth_index.csv", series)
        assert truth.left.shape == truth.right.shape == (2, 10, 2)
        assert truth.matrix_index.shape == (200,)
        assert (out / "manifest.txt").exists()

    def test_smooth_defaults(self, tmp_path):
        out = tmp_path / "gen"
        assert run(["generate", "--benchmark", "smooth", "--seed", "1", "--out", str(out)]) == 0
        series = read_series_csv(out / "series.csv")
        assert series.n_samples == 161
        truth = read_truth_bundle(out / "truth_matrices.csv", out / "truth_index.csv", series)
        assert truth.left.shape == truth.right.shape == (160, 10, 2)
        assert np.array_equal(truth.matrix_index, np.arange(160))

    def test_repeat_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["generate", "--benchmark", "switching", "--seed", "9", "--out", str(out)])
        for name in ("series.csv", "truth_matrices.csv", "truth_index.csv", "manifest.txt"):
            assert read_bytes(a / name) == read_bytes(b / name)

    def test_custom_size(self, tmp_path):
        out = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--N", "4", "--tau", "50", "--sigma", "0.1", "--seed", "2", "--out", str(out)])
        series = read_series_csv(out / "series.csv")
        assert series.n_channels == 4 and series.n_samples == 51

    def test_bad_benchmark(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["generate", "--benchmark", "bogus", "--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "options, message",
        [(["--benchmark", "switching", "--tau", "-2"], "tau must be"), (["--benchmark", "switching", "--sigma", "-1"], "sigma"),
         (["--benchmark", "smooth", "--lengthscale", "0"], "lengthscale"),
         (["--benchmark", "switching", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
         (["--benchmark", "smooth", "--seed", "-1"], "seed must be an integer >= 0, got -1")],
    )
    def test_bad_generator_input_is_named_and_writes_nothing(self, tmp_path, options, message):
        out = tmp_path / "gen"
        with pytest.raises(InvalidHyperparameterError, match=message):
            run(["generate", *options, "--out", str(out)])
        assert not out.exists() or not os.listdir(out)

    def test_large_n_size_audit(self, tmp_path):
        # the N sweep goes far beyond desk scale; generation stays cheap
        # because the truth bundle stores only the unique blocks, factored
        out = tmp_path / "big"
        assert run(["generate", "--benchmark", "switching", "--N", "4000", "--seed", "0", "--out", str(out)]) == 0
        with open(out / "series.csv", "r", encoding="utf-8") as fh:
            data_rows = sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1  # header
        assert data_rows == 201  # tau + 1
        with open(out / "truth_matrices.csv", "r", encoding="utf-8") as fh:
            width = None
            matrix_rows = 0
            for line in fh:
                if line.startswith("#"):
                    continue
                matrix_rows += 1
                if width is None:
                    width = line.count(",") + 1
        assert width == 4 and matrix_rows == 2 * 4000  # two blocks of [left, right] rank-2 factor rows
        assert os.path.getsize(out / "truth_matrices.csv") < 2_000_000


class TestFit:
    @pytest.fixture()
    def series_path(self, tmp_path):
        out = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--N", "6", "--tau", "80", "--seed", "4", "--out", str(out)])
        return out / "series.csv"

    def test_outputs_written(self, series_path, tmp_path):
        out = tmp_path / "fit"
        code = run([
            "fit", "--input", str(series_path), "--rank", "4", "--window", "10",
            "--eta", "0.2", "--beta", "2", "--reg", "tv", "--clusters", "2",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        for name in ("U1.csv", "U2.csv", "U3.csv", "lambda.csv", "trace.csv", "trace.json", "summary.txt",
                     "clusters.csv"):
            assert (out / name).exists(), name
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)
        assert trace.shape[1] == 3
        assert np.all(np.diff(trace[:, 1]) <= 1e-8 * (1 + np.abs(trace[:-1, 1])))

    def test_trace_json_holds_one_record_per_outer_iteration(self, series_path, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--input", str(series_path), "--rank", "4", "--window", "10", "--eta", "0.2",
                    "--beta", "2", "--reg", "tv", "--seed", "0", "--out", str(out)]) == 0
        with open(out / "trace.json", encoding="utf-8") as fh:
            trace = json.load(fh)
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert set(trace) == {"manifest", "termination", "outer"}
        assert f"# {trace['manifest']}" == summary[0]
        assert f"termination: {trace['termination']}" in summary
        assert len(trace["outer"]) == len(rows) - 1 > 0
        keys = {"iteration", "cost", "rmse"} | {f.name for f in dataclasses.fields(OuterIteration)}
        assert {"seconds_left", "seconds_right", "seconds_temporal", "seconds_objective"} <= keys
        for i, entry in enumerate(trace["outer"], start=1):
            assert set(entry) == keys
            assert entry["iteration"] == i == rows[i, 0]
            assert entry["cost"] == rows[i, 1] and entry["rmse"] == rows[i, 2]
        # each block's outcome is one object; this TV fit's U3 updates end on faces or sweeps
        for entry in trace["outer"]:
            for block in ("left", "right", "temporal"):
                assert set(entry[block]) == {"method", "steps", "residual", "tolerance", "capped"}
        assert trace["outer"][-1]["temporal"]["method"] in {"face", "sweeps"}

    def test_matches_library_fit(self, series_path, tmp_path):
        from lrtvar.regularizers import Regularizer
        from lrtvar.solver import Hyperparams, fit as fit_fn
        from lrtvar.windowing import build_snapshots

        out = tmp_path / "fit"
        run(["fit", "--input", str(series_path), "--rank", "3", "--window", "10",
             "--eta", "0.2", "--seed", "5", "--out", str(out)])
        pair = build_snapshots(read_series_csv(series_path), M=10)
        _, report = fit_fn(pair, Hyperparams(R=3, eta=0.2, reg=Regularizer("none", 0.0), seed=5))
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)
        assert np.allclose(trace[:, 1], report.cost_trace, rtol=0, atol=0)

    def test_rerun_byte_identical(self, series_path, tmp_path):
        outs = [tmp_path / "f1", tmp_path / "f2"]
        for out in outs:
            run(["fit", "--input", str(series_path), "--rank", "3", "--window", "10",
                 "--eta", "0.2", "--beta", "1", "--reg", "spline", "--seed", "5",
                 "--clusters", "2", "--out", str(out)])
        for name in ("U1.csv", "U2.csv", "U3.csv", "lambda.csv", "trace.csv", "clusters.csv"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name), name

    def test_rerun_byte_identical_with_fewer_transitions_than_channels(self, tmp_path):
        run(["generate", "--benchmark", "switching", "--N", "60", "--tau", "40", "--seed", "4",
             "--out", str(tmp_path / "gen")])
        outs = [tmp_path / "f1", tmp_path / "f2"]
        for out in outs:  # 4 windows of 10 transitions: 40 < 60 channels
            run(["fit", "--input", str(tmp_path / "gen" / "series.csv"), "--rank", "3", "--window", "10",
                 "--eta", "0.02", "--beta", "1", "--reg", "tv", "--seed", "5", "--clusters", "2",
                 "--out", str(out)])
        for name in ("U1.csv", "U2.csv", "U3.csv", "lambda.csv", "trace.csv", "clusters.csv"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name), name

    @pytest.mark.parametrize(
        "clusters, message",
        [("0", "clusters must be an integer >= 1"), ("-1", "clusters must be an integer >= 1"),
         ("9", "need 1 <= clusters <= 8, got 9"), ("50", "need 1 <= clusters <= 8, got 50")],
        ids=["zero", "negative", "T-plus-one", "fifty"],
    )
    def test_bad_clusters_rejected_before_the_fit_and_writes_nothing(self, series_path, tmp_path, monkeypatch,
                                                                     clusters, message):
        # 80 transitions in windows of 10: T = 8; these once ran the fit, wrote 7 files and then raised
        out = tmp_path / "fit"
        calls = count_calls(monkeypatch, ("fit",))
        with pytest.raises(InvalidHyperparameterError, match=message):
            run(["fit", "--input", str(series_path), "--rank", "4", "--window", "10", "--eta", "0.2",
                 "--clusters", clusters, "--out", str(out)])
        assert calls == {"fit": 0}
        assert not out.exists() or not os.listdir(out)

    def test_missing_required_flag(self, series_path, tmp_path):
        with pytest.raises(SystemExit):
            run(["fit", "--input", str(series_path), "--window", "10", "--out", str(tmp_path)])

    def test_config_file_and_flag_override(self, series_path, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("rank=3\nwindow=10\neta=0.2\nbeta=1.0\nreg=spline\nseed=5\n")
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        run(["fit", "--input", str(series_path), "--config", str(config), "--out", str(out1)])
        # flag overrides the file: different seed changes the trace
        run(["fit", "--input", str(series_path), "--config", str(config), "--seed", "6", "--out", str(out2)])
        t1 = np.loadtxt(out1 / "trace.csv", delimiter=",", skiprows=2)
        t2 = np.loadtxt(out2 / "trace.csv", delimiter=",", skiprows=2)
        assert t1[0, 1] != t2[0, 1]

    def test_unknown_config_key_rejected(self, series_path, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("rank=3\nwindow=10\neta=0.2\nbogus_knob=1\n")
        with pytest.raises(SystemExit, match="bogus_knob"):
            run(["fit", "--input", str(series_path), "--config", str(config), "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("command", ["generate", "fit", "compare", "cluster"])
    @pytest.mark.parametrize(
        "content, message",
        [("# rank first\nrank 3\n", "line 2: expected key=value, got 'rank 3'"), (None, "No such file or directory"),
         (b"rank=\xff\n", "'utf-8' codec can't decode byte 0xff")],
        ids=["no-equals", "missing", "not-utf8"],
    )
    def test_unreadable_config_file_is_a_usage_error(self, command, content, message, tmp_path):
        # a line without '=' once ended in a ValueError traceback and a
        # missing file in a FileNotFoundError one
        config, out = tmp_path / "bad.cfg", tmp_path / "out"
        if isinstance(content, str):
            config.write_text(content, encoding="utf-8")
        elif content is not None:
            config.write_bytes(content)
        with pytest.raises(SystemExit, match=f"^error: {re.escape(str(config))}: {re.escape(message)}"):
            run([command, "--config", str(config), "--out", str(out)])
        assert not out.exists()

    def test_benchmark_end_to_end_rmse(self, tmp_path):
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--seed", "0", "--out", str(gen)])
        out = tmp_path / "fit"
        run(["fit", "--input", str(gen / "series.csv"), "--rank", "8", "--window", "20",
             "--eta", "0.1", "--beta", "5", "--reg", "tv", "--seed", "0", "--out", str(out)])
        summary = (out / "summary.txt").read_text()
        rmse_line = next(l for l in summary.splitlines() if l.startswith("final rmse"))
        rmse_value = float(rmse_line.split(":")[1])
        assert 0.50 <= rmse_value <= 0.62


def assert_every_u2_cg_met_its_tolerance(outer):
    # each U2 solve is a CG that ended at or below its own tolerance (the
    # larger of CG_TOL and its forcing term) in fewer steps than its cap
    assert outer
    for entry in outer:
        right = entry["right"]
        assert right["method"] == "cg" and right["tolerance"] >= 1e-9, right
        assert right["residual"] <= right["tolerance"] and right["steps"] < CG_MAX_STEPS, right


@pytest.mark.filterwarnings("error")
class TestFitCertificates:
    """Every block update of these fits ends on its certificate, read from
    trace.json and summary.txt: each U2 CG meets its tolerance, and each TV
    U3 update its dual-residual bound."""

    def test_six_channel_tv_fit(self, six_channel_fit):
        # 6 channels at rank 4: every U2 CG meets its forcing threshold, so none is capped
        _, out = six_channel_fit
        assert "capped U2 solves: 0 of 5" in summary_lines(out)
        outer = trace_outer(out)
        assert_every_u2_cg_met_its_tolerance(outer)
        assert all(entry["temporal"]["residual"] <= 1e-10 for entry in outer)

    def test_weak_tv_penalty_ends_every_update_on_a_face(self, six_channel_fit, tmp_path):
        # every U3 update ends on a face minimizer whose dual residual is within
        # its recorded tolerance, the rounding of its running sums, with no
        # fallback sweep, and the cost never rises
        series, _ = six_channel_fit
        out = tmp_path / "weak-fit"
        assert run(["fit", "--input", str(series), "--rank", "4", "--window", "10", "--eta", "0.2", "--beta", "1e-5",
                    "--reg", "tv", "--max-iters", "5", "--out", str(out)]) == 0
        assert "capped U3 solves: 0 of 5" in summary_lines(out)
        outer = trace_outer(out)
        assert outer and {entry["temporal"]["method"] for entry in outer} == {"face"}
        assert all(entry["temporal"]["residual"] <= entry["temporal"]["tolerance"] for entry in outer)
        costs = [float(row.split(",")[1]) for row in data_rows(out / "trace.csv")]
        assert all(after - before <= 1e-8 * (1 + abs(before)) for before, after in zip(costs, costs[1:])), costs

    def test_thin_fit_of_2000_channels(self, tmp_path):
        # 2000 channels and 200 transitions: a fit in thin bases, read by the
        # streamed CSV reader; every U2 CG meets its forcing threshold
        gen, out = tmp_path / "n2000", tmp_path / "n2000-fit"
        assert run(["generate", "--benchmark", "switching", "--N", "2000", "--seed", "0", "--out", str(gen)]) == 0
        assert run(["fit", "--input", str(gen / "series.csv"), "--rank", "4", "--window", "20", "--eta", "0.0005",
                    "--beta", "1", "--reg", "tv", "--max-iters", "5", "--out", str(out)]) == 0
        assert "capped U2 solves: 0 of 5" in summary_lines(out)
        outer = trace_outer(out)
        assert_every_u2_cg_met_its_tolerance(outer)
        assert all(entry["temporal"]["residual"] <= entry["temporal"]["tolerance"] for entry in outer)

    def test_weak_tv_penalty_over_160_windows(self, tmp_path):
        # T = 160 windows of one transition at beta = 0.05: both U3 updates
        # end on their dual certificate
        gen, out = tmp_path / "long", tmp_path / "long-fit"
        assert run(["generate", "--benchmark", "smooth", "--N", "10", "--out", str(gen)]) == 0
        assert run(["fit", "--input", str(gen / "series.csv"), "--window", "1", "--rank", "4", "--eta", "0.6",
                    "--reg", "tv", "--beta", "0.05", "--max-iters", "2", "--out", str(out)]) == 0
        assert "capped U3 solves: 0 of 2" in summary_lines(out)
        assert all(entry["temporal"]["residual"] <= 1e-10 for entry in trace_outer(out))


class TestCompare:
    def test_benchmark_sweep_rows_and_ordering(self, tmp_path):
        out = tmp_path / "cmp"
        code = run([
            "compare", "--benchmark", "switching", "--N-list", "10", "--seeds", "0,1,2",
            "--methods", "lowrank-r4,indep-full,indep-r4", "--out", str(out),
        ])
        assert code == 0
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "method,N,seed,mean_operator_norm_error,rmse,status"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 9
        by_method = {}
        for method, n, seed, err, rmse_val, status in rows:
            assert status == "ok"
            by_method.setdefault(method, []).append(float(err))
        assert np.mean(by_method["lowrank-r4"]) < np.mean(by_method["indep-r4"])
        assert np.mean(by_method["lowrank-r4"]) < np.mean(by_method["indep-full"])
        assert (out / "compare_timing.log").exists()

    def test_single_method_single_n(self, tmp_path):
        out = tmp_path / "cmp"
        run(["compare", "--benchmark", "switching", "--N-list", "6", "--seeds", "3",
             "--methods", "indep-full", "--tau", "80", "--out", str(out)])
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 2  # header + one row

    def test_truth_free_input(self, tmp_path):
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--N", "6", "--tau", "80", "--seed", "1", "--out", str(gen)])
        out = tmp_path / "cmp"
        code = run(["compare", "--input", str(gen / "series.csv"), "--window", "10", "--eta", "0.2",
                    "--methods", "lowrank-r3,indep-full", "--seeds", "0", "--out", str(out)])
        assert code == 0
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        for row in lines[1:]:
            method, n, seed, err, rmse_val, status = row.split(",")
            assert err == ""  # no truth bundle: error column empty
            assert float(rmse_val) > 0
            assert status == "ok"

    def test_input_with_truth_bundle(self, tmp_path):
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--N", "6", "--tau", "80", "--seed", "1", "--out", str(gen)])
        out = tmp_path / "cmp"
        run(["compare", "--input", str(gen / "series.csv"),
             "--truth-matrices", str(gen / "truth_matrices.csv"),
             "--truth-index", str(gen / "truth_index.csv"),
             "--window", "10", "--eta", "0.2", "--methods", "indep-full", "--seeds", "0", "--out", str(out)])
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        _, _, _, err, _, status = lines[1].split(",")
        assert status == "ok" and float(err) > 0

    def test_truth_windows_follow_dropped_tail(self, tmp_path):
        # 200 transitions: windows of 30 leave a tail of 20, windows of 49 a tail of 4
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--N", "6", "--seed", "0", "--out", str(gen)])
        series = read_series_csv(gen / "series.csv")
        truth = read_truth_bundle(gen / "truth_matrices.csv", gen / "truth_index.csv", series)
        for window in (30, 49):
            out = tmp_path / f"cmp{window}"
            code = run(["compare", "--input", str(gen / "series.csv"),
                        "--truth-matrices", str(gen / "truth_matrices.csv"),
                        "--truth-index", str(gen / "truth_index.csv"), "--window", str(window), "--eta", "0.2",
                        "--methods", "indep-full", "--out", str(out)])
            assert code == 0
            lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
            _, _, _, err, _, status = lines[1].split(",")
            assert status == "ok"
            est = independent_fit(build_snapshots(series, M=window))
            assert float(err) == pytest.approx(operator_norm_error(est, truth, window_length=window), rel=1e-12)

    def test_partial_failure_recorded_and_sweep_continues(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(["compare", "--benchmark", "switching", "--N-list", "6", "--seeds", "0", "--tau", "80",
                    "--methods", "lowrank-r3,lowrank-r0", "--out", str(out)])
        assert code == 1
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        statuses = {l.split(",")[0]: l.split(",")[5] for l in lines[1:]}
        assert statuses["lowrank-r3"] == "ok"
        assert statuses["lowrank-r0"].startswith("failed:")

    def test_bad_independent_rank_fails_its_row(self, tmp_path):
        # indep-r-1 once fitted rank N - 1 = 5 through negative slicing and read "ok"
        out = tmp_path / "cmp"
        code = run(["compare", "--benchmark", "switching", "--N-list", "6", "--seeds", "0", "--tau", "80",
                    "--methods", "indep-r2,indep-r-1,indep-r0", "--out", str(out)])
        assert code == 1
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        statuses = {l.split(",")[0]: l.split(",")[5] for l in lines[1:]}
        assert statuses["indep-r2"] == "ok"
        assert statuses["indep-r-1"] == "failed: rank must be an integer >= 1; got -1"
        assert statuses["indep-r0"] == "failed: rank must be an integer >= 1; got 0"

    def test_negative_seed_fails_its_row_by_name(self, tmp_path):
        # once failed inside numpy's SeedSequence with "expected non-negative integer"
        out = tmp_path / "cmp"
        code = run(["compare", "--benchmark", "switching", "--N-list", "6", "--seeds", "0,-1", "--tau", "80",
                    "--methods", "indep-full", "--out", str(out)])
        assert code == 1
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        statuses = {l.split(",")[2]: l.split(",")[5] for l in lines[1:]}
        assert statuses == {"0": "ok", "-1": "failed: seed must be an integer >= 0; got -1"}

    def test_independent_rank_above_the_window_limit_fails_its_row(self, tmp_path):
        # windows of 20 transitions of 6 channels carry rank min(6, 21) = 6; indep-r9
        # and indep-r50 once fitted rank 6 and wrote the same "ok" row as indep-r6
        out = tmp_path / "cmp"
        code = run(["compare", "--benchmark", "switching", "--N-list", "6", "--seeds", "0", "--tau", "80",
                    "--methods", "indep-r6,indep-r9,indep-r50", "--out", str(out)])
        assert code == 1
        lines = [l for l in (out / "compare_results.csv").read_text().splitlines() if l and not l.startswith("#")]
        statuses = {l.split(",")[0]: l.split(",")[5] for l in lines[1:]}
        assert statuses["indep-r6"] == "ok"
        assert statuses["indep-r9"] == "failed: need 1 <= rank <= 6; got 9"
        assert statuses["indep-r50"] == "failed: need 1 <= rank <= 6; got 50"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected_at_entry(self, tmp_path, monkeypatch, workers):
        # these once ran the sweep serially
        out = tmp_path / "cmp"
        calls = count_calls(monkeypatch, ("simulate_switching",))
        with pytest.raises(InvalidHyperparameterError, match="workers must be an integer >= 1"):
            run(["compare", "--benchmark", "switching", "--N-list", "6", "--tau", "80", "--methods", "indep-full",
                 "--workers", workers, "--out", str(out)])
        assert calls == {"simulate_switching": 0}
        assert not out.exists() or not os.listdir(out)

    def test_unknown_method_fails_fast(self, tmp_path):
        with pytest.raises(SystemExit, match="bogus"):
            run(["compare", "--benchmark", "switching", "--N-list", "6", "--seeds", "0",
                 "--methods", "bogus-method", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("source, option, values", [
        ("--benchmark", "--N-list", "6,6"), ("--benchmark", "--seeds", "0,1,0"),
        ("--benchmark", "--methods", "indep-full,indep-full"), ("--input", "--seeds", "0,0"),
        ("--input", "--methods", "lowrank-r2,indep-full,lowrank-r2"),
    ])
    def test_repeated_entry_is_a_usage_error_before_any_work(self, tmp_path, monkeypatch, capsys, source, option,
                                                             values):
        # a repeat once simulated one instance again and wrote duplicate rows, exiting 0
        out = tmp_path / "cmp"
        calls = count_calls(monkeypatch, ("simulate_switching", "read_series_csv"))
        given = ["--benchmark", "switching", "--tau", "80"] if source == "--benchmark" else \
            ["--input", str(tmp_path / "series.csv"), "--window", "10", "--eta", "0.2"]
        with pytest.raises(SystemExit) as exc:
            run(["compare", *given, option, values, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {option}: expected a comma-separated list of at least one value, each given once, " \
               f"got '{values}'" in capsys.readouterr().err
        assert calls == {"simulate_switching": 0, "read_series_csv": 0}
        assert not out.exists()

    def test_repeated_entry_in_a_config_file_is_a_usage_error(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("seeds = 0,0\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="^error: config key seeds: .* each given once, got '0,0'$"):
            run(["compare", "--config", str(config), "--benchmark", "switching", "--out", str(tmp_path / "cmp")])
        assert not (tmp_path / "cmp").exists()

    def test_needs_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["compare", "--out", str(tmp_path)])

    def test_truth_needs_both_files(self, tmp_path):
        with pytest.raises(SystemExit, match="--truth-index"):
            run(["compare", "--input", str(tmp_path / "series.csv"), "--truth-matrices", str(tmp_path / "m.csv"),
                 "--window", "10", "--eta", "0.2", "--out", str(tmp_path / "x")])

    def test_rerun_byte_identical(self, tmp_path):
        outs = [tmp_path / "c1", tmp_path / "c2"]
        for out in outs:
            run(["compare", "--benchmark", "switching", "--N-list", "6", "--tau", "80",
                 "--seeds", "0,1", "--methods", "indep-full,lowrank-r3", "--out", str(out)])
        assert read_bytes(outs[0] / "compare_results.csv") == read_bytes(outs[1] / "compare_results.csv")

    def test_worker_pool_matches_serial(self, tmp_path):
        serial, pooled = tmp_path / "s", tmp_path / "p"
        argv = ["compare", "--benchmark", "switching", "--N-list", "6", "--tau", "80",
                "--seeds", "0,1", "--methods", "indep-full,lowrank-r3"]
        run(argv + ["--out", str(serial)])
        run(argv + ["--workers", "2", "--out", str(pooled)])
        assert read_bytes(serial / "compare_results.csv") == read_bytes(pooled / "compare_results.csv")

    @pytest.mark.parametrize("kind, tau", [("switching", "80"), ("smooth", "24")])
    def test_benchmark_sweep_is_generate_then_input_with_the_table_settings(self, tmp_path, kind, tau):
        # compare --benchmark simulates and scores the instance generate writes, at BENCHMARKS' fit settings
        methods = ["--methods", "lowrank-r2,indep-full", "--max-iters", "5", "--seeds", "0"]
        run(["compare", "--benchmark", kind, "--N-list", "6", "--tau", tau, *methods, "--out", str(tmp_path / "b")])
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", kind, "--N", "6", "--tau", tau, "--seed", "0", "--out", str(gen)])
        settings = [text for key, value in BENCHMARKS[kind]["compare"](6).items() for text in (f"--{key}", str(value))]
        run(["compare", "--input", str(gen / "series.csv"), "--truth-matrices", str(gen / "truth_matrices.csv"),
             "--truth-index", str(gen / "truth_index.csv"), *settings, *methods, "--out", str(tmp_path / "i")])
        rows = [[l for l in (tmp_path / d / "compare_results.csv").read_text().splitlines() if not l.startswith("#")]
                for d in ("b", "i")]
        assert rows[0] == rows[1] and len(rows[0]) == 3
        assert all(row.endswith(",ok") for row in rows[0][1:])

    def test_seed_flag_is_the_seeds_option(self, tmp_path):
        # compare has no --seed; argparse reads it as an abbreviation of --seeds
        outs = [tmp_path / "seed", tmp_path / "seeds"]
        for flag, out in zip(("--seed", "--seeds"), outs):
            run(["compare", "--benchmark", "switching", "--N-list", "6", "--tau", "80",
                 "--methods", "indep-full", flag, "3", "--out", str(out)])
        text = read_bytes(outs[0] / "compare_results.csv")
        assert text == read_bytes(outs[1] / "compare_results.csv")
        assert b"seeds=3" in text and b"indep-full,6,3," in text

    def test_input_files_read_once(self, tmp_path, monkeypatch):
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--N", "6", "--tau", "80", "--seed", "1", "--out", str(gen)])
        calls = count_calls(monkeypatch, ("read_series_csv", "read_truth_bundle"))
        code = run(["compare", "--input", str(gen / "series.csv"),
                    "--truth-matrices", str(gen / "truth_matrices.csv"),
                    "--truth-index", str(gen / "truth_index.csv"), "--window", "10", "--eta", "0.2",
                    "--methods", "lowrank-r3,indep-full,indep-r2", "--seeds", "0,1", "--max-iters", "5",
                    "--out", str(tmp_path / "cmp")])
        assert code == 0
        assert calls == {"read_series_csv": 1, "read_truth_bundle": 1}

    def test_each_instance_simulated_and_windowed_once(self, tmp_path, monkeypatch):
        # 2 sizes x 2 seeds are 4 instances, shared by the 3 methods
        calls = count_calls(monkeypatch, ("simulate_switching", "build_snapshots"))
        code = run(["compare", "--benchmark", "switching", "--N-list", "6,8", "--tau", "80", "--seeds", "0,1",
                    "--methods", "indep-full,indep-r2,lowrank-r2", "--max-iters", "5", "--out", str(tmp_path / "cmp")])
        assert code == 0
        assert calls == {"simulate_switching": 4, "build_snapshots": 4}


    @pytest.mark.filterwarnings("error")
    def test_smooth_input_with_truth_bundle_in_windows_of_one(self, tmp_path):
        # 160 truth blocks whose right factor is one plane broadcast over them;
        # compare exits 0 only when every row reads ok
        gen = tmp_path / "smooth"
        assert run(["generate", "--benchmark", "smooth", "--N", "6", "--out", str(gen)]) == 0
        assert run(["compare", "--input", str(gen / "series.csv"), "--truth-matrices", str(gen / "truth_matrices.csv"),
                    "--truth-index", str(gen / "truth_index.csv"), "--window", "1", "--eta", "1", "--max-iters", "5",
                    "--methods", "lowrank-r4,indep-full,indep-r2", "--out", str(tmp_path / "smooth-compare")]) == 0


class TestCluster:
    def test_cluster_from_fit_output(self, tmp_path):
        gen = tmp_path / "gen"
        run(["generate", "--benchmark", "switching", "--seed", "2", "--out", str(gen)])
        fitted = tmp_path / "fit"
        run(["fit", "--input", str(gen / "series.csv"), "--rank", "8", "--window", "20",
             "--eta", "0.1", "--beta", "5", "--reg", "tv", "--seed", "2", "--out", str(fitted)])
        out = tmp_path / "clust"
        assert run(["cluster", "--u3", str(fitted / "U3.csv"), "--k", "2", "--seed", "0", "--out", str(out)]) == 0
        lines = [l for l in (out / "clusters.csv").read_text().splitlines() if l and not l.startswith("#")]
        labels = [int(l.split(",")[1]) for l in lines[1:]]
        assert labels == [0] * 5 + [1] * 5

    @pytest.mark.filterwarnings("error")
    def test_same_labels_as_fit_clusters(self, six_channel_fit, tmp_path):
        # both cluster the same U3 (it round-trips through %.17g) with seed 0:
        # the same labels, one row per window, the first one labeled 0
        _, fitted = six_channel_fit
        out = tmp_path / "cluster"
        assert run(["cluster", "--u3", str(fitted / "U3.csv"), "--k", "2", "--out", str(out)]) == 0
        labels = data_rows(out / "clusters.csv")
        assert labels == data_rows(fitted / "clusters.csv")
        assert len(labels) == 8 and labels[0].split(",")[1] == "0"

    def test_rerun_byte_identical(self, tmp_path):
        u3 = tmp_path / "u3.csv"
        rng = np.random.default_rng(0)
        U3 = np.concatenate([rng.normal(1, 0.05, (4, 2)), rng.normal(-1, 0.05, (5, 2))])
        u3.write_text("c0,c1\n" + "\n".join(",".join(f"{v:.17g}" for v in row) for row in U3) + "\n")
        outs = [tmp_path / "k1", tmp_path / "k2"]
        for out in outs:
            run(["cluster", "--u3", str(u3), "--k", "2", "--seed", "3", "--out", str(out)])
        assert read_bytes(outs[0] / "clusters.csv") == read_bytes(outs[1] / "clusters.csv")

    def test_missing_u3(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["cluster", "--k", "2", "--out", str(tmp_path)])


class TestDefaults:
    def test_smooth_beta_formula(self):
        assert smooth_beta_default(10) == pytest.approx(600.0)
        assert smooth_beta_default(100) == pytest.approx(2400.0)

    @pytest.mark.parametrize("kind, simulate", [("switching", simulate_switching), ("smooth", simulate_smooth)])
    def test_benchmark_table_restates_no_generator_default(self, kind, simulate):
        # every generator option the table lists is a parameter of the simulator, and a default it sets is the
        # simulator's own; None leaves the simulator's default in force
        parameters = inspect.signature(simulate).parameters
        recipe = BENCHMARKS[kind]["generate"]
        assert set(recipe) <= set(parameters)
        set_defaults = {key: value for key, value in recipe.items() if key != "N" and value is not None}
        assert set_defaults == {key: parameters[key].default for key in ("tau", "sigma", "lengthscale") if key in recipe}

    def test_console_entry_point(self):
        import subprocess, sys

        proc = subprocess.run(
            [sys.executable, "-m", "lrtvar.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for sub in ("generate", "fit", "compare", "cluster"):
            assert sub in proc.stdout


@pytest.mark.parametrize("simulate", [simulate_switching, simulate_smooth])
def test_truth_bundle_round_trip(simulate, tmp_path):
    truth = simulate(N=4, tau=30, sigma=0.1, seed=5)
    write_truth_bundle(tmp_path, truth, "manifest tool=test")
    back = read_truth_bundle(tmp_path / "truth_matrices.csv", tmp_path / "truth_index.csv", truth.series)
    assert np.array_equal(back.left, truth.left) and np.array_equal(back.right, truth.right)
    assert np.array_equal(back.matrix_index, truth.matrix_index)


def dense_truth():
    """A switching truth whose two blocks are dense matrices A, written as the exact pairs (A, I)."""
    truth = simulate_switching(N=6, tau=200, sigma=0.5, seed=3)
    blocks = np.random.default_rng(3).standard_normal((2, 6, 6))
    return GroundTruth(truth.series, blocks, np.broadcast_to(np.eye(6), blocks.shape), truth.matrix_index)


@pytest.mark.parametrize(
    "simulate, window",
    [(lambda: simulate_switching(N=6, tau=200, sigma=0.5, seed=3), 20),
     (lambda: simulate_smooth(N=6, tau=160, sigma=0.2, seed=3), 1),  # 160 blocks, right broadcast
     (dense_truth, 20)],
    ids=["switching", "smooth", "dense-blocks"],
)
def test_read_back_truth_scores_like_the_dense_oracle(simulate, window, tmp_path):
    truth = simulate()
    write_truth_bundle(tmp_path, truth, "manifest tool=test")
    back = read_truth_bundle(tmp_path / "truth_matrices.csv", tmp_path / "truth_index.csv", truth.series)
    # a window's series has window + 1 columns, so at window 1 rank 2 is the most it carries
    est = independent_fit(build_snapshots(truth.series, M=window), rank=min(4, window + 1))
    windows = [range(k * window, (k + 1) * window) for k in range(est.T)]
    oracle = np.mean([
        np.linalg.norm(est.left[k] @ est.right[k].T - sum(map(truth.matrix_at, ts)) / window, 2)
        for k, ts in enumerate(windows)
    ])
    assert operator_norm_error(est, back) == pytest.approx(oracle, rel=1e-12)


def test_compare_memory_below_two_dense_matrices(tmp_path):
    N = 2000
    gen = tmp_path / "gen"
    assert run(["generate", "--benchmark", "switching", "--N", str(N), "--seed", "0", "--out", str(gen)]) == 0
    tracemalloc.start()
    try:
        code = run(["compare", "--input", str(gen / "series.csv"), "--truth-matrices", str(gen / "truth_matrices.csv"),
                    "--truth-index", str(gen / "truth_index.csv"), "--window", "20", "--eta", "0.0005",
                    "--methods", "indep-r4", "--out", str(tmp_path / "cmp")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 8 * N * N  # the bytes of two dense N x N matrices


@pytest.mark.parametrize(
    "kind, series_n, bundle_n, message",
    [("switching", 8, 6, "12 rows of 4 columns do not stack into blocks of 8 rows"),
     ("smooth", 6, 8, "some of its 32 blocks of 6 rows drive no transition"),  # 192 rows stack either way
     ("smooth", 8, 6, r"data row 18: expected transition 18 with an integer block in \[0, 18\)")],
    ids=["rows-do-not-stack", "blocks-left-over", "blocks-missing"],
)
def test_bundle_of_another_size_rejected_before_any_fit(kind, series_n, bundle_n, message, tmp_path, monkeypatch):
    for N in (series_n, bundle_n):
        run(["generate", "--benchmark", kind, "--N", str(N), "--tau", "24" if kind == "smooth" else "20",
             "--seed", "0", "--out", str(tmp_path / f"gen{N}")])
    series, bundle = tmp_path / f"gen{series_n}", tmp_path / f"gen{bundle_n}"
    calls = count_calls(monkeypatch, ("fit", "independent_fit"))
    with pytest.raises(ValueError, match=message):
        run(["compare", "--input", str(series / "series.csv"), "--truth-matrices", str(bundle / "truth_matrices.csv"),
             "--truth-index", str(bundle / "truth_index.csv"), "--window", "10", "--eta", "0.2",
             "--methods", "lowrank-r2,indep-full", "--out", str(tmp_path / "cmp")])
    assert calls == {"fit": 0, "independent_fit": 0}


def corrupt_bundle_argv(tmp_path, edit):
    """Generate a switching bundle (20 transitions, 2 blocks), pass the data
    rows of its index through ``edit``, and return a ``compare`` argv on it."""
    gen = tmp_path / "gen"
    run(["generate", "--benchmark", "switching", "--N", "6", "--tau", "20", "--seed", "0", "--out", str(gen)])
    lines = (gen / "truth_index.csv").read_text().splitlines()
    head = [line for line in lines if line.startswith("#") or line == "transition,block"]
    (gen / "truth_index.csv").write_text("\n".join(head + edit(lines[len(head):])) + "\n")
    return ["compare", "--input", str(gen / "series.csv"), "--truth-matrices", str(gen / "truth_matrices.csv"),
            "--truth-index", str(gen / "truth_index.csv"), "--window", "10", "--eta", "0.2",
            "--methods", "lowrank-r2,indep-full", "--out", str(tmp_path / "cmp")]


@pytest.mark.parametrize(
    "row, text",
    [(15, "15,5"), (3, "3,-1"), (3, "3,0.7"), (4, "7,0")],
    ids=["block-out-of-range", "block-negative", "block-not-integer", "transition-out-of-order"],
)
def test_corrupt_truth_index_rejected_before_any_fit(row, text, tmp_path, monkeypatch):
    def edit(rows):
        rows[row] = text
        return rows

    argv = corrupt_bundle_argv(tmp_path, edit)
    calls = count_calls(monkeypatch, ("fit", "independent_fit"))
    with pytest.raises(ValueError, match=rf"truth_index.csv: data row {row}: expected transition {row} .*\[0, 2\)"):
        run(argv)
    assert calls == {"fit": 0, "independent_fit": 0}


def test_truth_index_must_cover_every_transition(tmp_path, monkeypatch):
    argv = corrupt_bundle_argv(tmp_path, lambda rows: rows[:-1])
    calls = count_calls(monkeypatch, ("fit", "independent_fit"))
    with pytest.raises(ShapeMismatchError, match="19 transitions, but .* has 21 samples"):
        run(argv)
    assert calls == {"fit": 0, "independent_fit": 0}


def test_truth_index_of_three_columns_rejected_before_any_fit(tmp_path, monkeypatch):
    argv = corrupt_bundle_argv(tmp_path, lambda rows: [row + ",0" for row in rows])
    index = tmp_path / "gen" / "truth_index.csv"
    index.write_text(index.read_text().replace("transition,block\n", "transition,block,extra\n"))
    calls = count_calls(monkeypatch, ("fit", "independent_fit"))
    with pytest.raises(ValueError, match=r"truth_index.csv: expected 2 columns \(transition, block\), got 3"):
        run(argv)
    assert calls == {"fit": 0, "independent_fit": 0}


@pytest.mark.parametrize(
    "command, line",
    [("fit", "rank=abc"), ("fit", "affine=maybe"), ("fit", "reg=bogus"), ("generate", "benchmark=bogus"),
     ("compare", "seeds=,"), ("compare", "N_list= , "), ("compare", "methods=")],
)
def test_bad_config_value_is_a_usage_error(command, line, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    key = line.partition("=")[0]
    # the input file does not exist: options are checked before any data is read
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--input", str(tmp_path / "missing.csv"), "--window", "5", "--eta", "0.1"]
    with pytest.raises(SystemExit, match=f"error: config key {key}: "):
        run(argv)


@pytest.mark.parametrize(
    "argv, allowed",
    [(["fit", "--reg", "bogus"], ("none", "tv", "spline")), (["generate", "--benchmark", "bogus"], ("switching", "smooth"))],
)
def test_flag_outside_its_choices_exits_2(argv, allowed, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(choice in err for choice in allowed)


@pytest.mark.parametrize("option", ["--seeds", "--N-list", "--methods"])
def test_empty_list_flag_exits_2_and_writes_nothing(option, tmp_path, capsys):
    # these once wrote a header-only compare_results.csv and exited 0
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exc:
        run(["compare", "--benchmark", "switching", option, ",", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {option}: expected a comma-separated list of at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["generate", "--benchmark", "smooth", "--theta1", "0.5"], "--benchmark smooth takes no --theta1$"),
     (["generate", "--benchmark", "smooth", "--theta2", "1", "--theta1", "2"],
      "--benchmark smooth takes no --theta1, --theta2$"),
     (["generate", "--benchmark", "switching", "--lengthscale", "12"], "--benchmark switching takes no --lengthscale$"),
     (["compare", "--input", "missing.csv", "--window", "10", "--eta", "0.2", "--tau", "999"], "--input takes no --tau$"),
     (["compare", "--input", "missing.csv", "--window", "10", "--eta", "0.2", "--N-list", "50", "--sigma", "1"],
      "--input takes no --N-list, --sigma$"),
     (["compare", "--benchmark", "switching", "--truth-matrices", "m.csv", "--truth-index", "i.csv"],
      "--benchmark takes no --truth-index, --truth-matrices$"),
     (["compare", "--benchmark", "switching", "--truth-index", "i.csv"], "--benchmark takes no --truth-index$")],
    ids=["smooth-theta1", "smooth-thetas", "switching-lengthscale", "input-tau", "input-N-list-sigma",
         "benchmark-truth", "benchmark-truth-index"],
)
def test_option_that_does_not_apply_is_a_usage_error(argv, message, tmp_path, monkeypatch):
    # these were once recorded in the manifest and ignored; the input file does not exist, so the error
    # comes before any data is read
    monkeypatch.chdir(tmp_path)
    calls = count_calls(monkeypatch, ("simulate_switching", "simulate_smooth", "read_series_csv"))
    with pytest.raises(SystemExit, match=f"^error: {message}"):
        run([*argv, "--out", str(tmp_path / "out")])
    assert calls == {"simulate_switching": 0, "simulate_smooth": 0, "read_series_csv": 0}
    assert os.listdir(tmp_path) == []


def test_config_key_that_does_not_apply_is_a_usage_error(tmp_path):
    config = tmp_path / "smooth.cfg"
    config.write_text("benchmark=smooth\ntheta1=0.5\n")
    with pytest.raises(SystemExit, match="^error: --benchmark smooth takes no --theta1$"):
        run(["generate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


# one text per option key, each different from that option's default
OPTION_TEXT = {
    "benchmark": "smooth", "N": "7", "tau": "90", "sigma": "0.25", "seed": "3", "theta1": "0.5",
    "theta2": "1.5", "lengthscale": "12.5", "input": "series.csv", "rank": "3", "window": "5",
    "eta": "0.125", "beta": "2.5", "reg": "spline", "affine": "true", "lags": "2", "rtol": "0.001",
    "atol": "1e-07", "max_iters": "17", "clusters": "2",
    "truth_matrices": "m.csv", "truth_index": "i.csv", "N_list": "6,8", "seeds": "1,2",
    "methods": "indep-full,lowrank-r2", "workers": "2", "u3": "U3.csv", "k": "3",
}
TABLES = {"generate": GENERATE_KNOWN, "fit": FIT_KNOWN, "compare": COMPARE_KNOWN, "cluster": CLUSTER_KNOWN}


@pytest.mark.parametrize("command, key", [(c, k) for c, known in TABLES.items() for k in known])
def test_flag_and_config_key_resolve_alike(command, key, tmp_path):
    known = TABLES[command]
    text = OPTION_TEXT[key]
    flag = ["--" + key.replace("_", "-")] + ([] if key == "affine" else [text])
    via_flag = resolve_options(build_parser().parse_args([command, *flag]), known)[key]
    config = tmp_path / "one.cfg"
    config.write_text(f"{key}={text}\n")
    via_config = resolve_options(build_parser().parse_args([command, "--config", str(config)]), known)[key]
    assert via_flag == via_config
    assert via_flag != known[key][1]

"""Command-line front end: generate benchmarks, fit models, compare methods, cluster modes.

Every output file starts with a manifest comment (tool version, resolved
configuration, seed) sufficient to reproduce it; no timestamps or host
details are written, so a fixed seed gives byte-identical CSVs across runs.
Wall-clock timings go to separate ``.log`` files.  All numbers are printed
with 17 significant digits.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .cp_model import export_factors
from .evaluation import (
    cluster_temporal_modes,
    estimate_rmse,
    independent_fit,
    model_estimate,
    operator_norm_error,
)
from .regularizers import Regularizer
from .solver import Hyperparams, WarmRestart, fit
from .synthetic import GroundTruth, simulate_smooth, simulate_switching
from .windowing import build_snapshots, read_series_csv, write_series_csv


def fmt(x) -> str:
    """17-significant-digit text for floats; comma-join for lists."""
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (list, tuple)):
        return ",".join(fmt(v) for v in x)
    return str(x)


def smooth_beta_default(N: int) -> float:
    """Smooth-benchmark smoothing strength: 600 * log10(N)^2, from the system size."""
    return 600.0 * float(np.log10(N)) ** 2


BENCHMARKS = ("switching", "smooth")


def benchmark_fit_defaults(benchmark: str, N: int) -> dict:
    """Fit settings that reproduce the two synthetic problems' parameter rows."""
    if benchmark == "switching":
        return {"window": 20, "rank": 8, "eta": 1.0 / N, "beta": 5.0, "reg": "tv"}
    return {"window": 1, "rank": 4, "eta": 6.0 / N, "beta": smooth_beta_default(N), "reg": "spline"}


def benchmark_compare_defaults(benchmark: str, N: int) -> dict:
    """Comparison-sweep settings for the two synthetic problems."""
    if benchmark == "switching":
        return {"window": 20, "eta": 1.0 / N, "beta": 1.0, "reg": "tv"}
    return {"window": 1, "eta": 6.0 / N, "beta": smooth_beta_default(N), "reg": "spline"}


def benchmark_generate_defaults(benchmark: str) -> dict:
    if benchmark == "switching":
        return {"N": 10, "tau": 200, "sigma": 0.5}
    return {"N": 10, "tau": 160, "sigma": 0.2}


# ---------------------------------------------------------------------------
# config files: flat key=value, one per line, '#' comments; flags override


def read_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def resolve_options(args: argparse.Namespace, known: dict) -> dict:
    """Merge per-command defaults, config file, and explicit CLI flags.

    ``known`` maps option name -> (parser, default).  Config-file keys must
    be known; explicit flags win over the file, the file wins over defaults.
    """
    resolved = {name: default for name, (_, default) in known.items()}
    if getattr(args, "config", None):
        file_options = read_config_file(args.config)
        unknown = set(file_options) - set(known)
        if unknown:
            raise SystemExit(f"error: unknown config keys: {', '.join(sorted(unknown))}")
        for key, text in file_options.items():
            parser, _ = known[key]
            resolved[key] = parser(text)
    for name in known:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            resolved[name] = value
    return resolved


def manifest_line(command: str, options: dict) -> str:
    body = " ".join(f"{k}={fmt(v)}" for k, v in sorted(options.items()) if v is not None)
    return f"manifest tool=lrtvar/{__version__} command={command} {body}"


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_str_list(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# truth bundle I/O: unique matrix blocks plus a transition -> block index


def write_truth_bundle(outdir, truth: GroundTruth, manifest: str) -> None:
    n = truth.unique_matrices[0].shape[0]
    with open(os.path.join(outdir, "truth_matrices.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.write(f"# {len(truth.unique_matrices)} blocks of {n} rows each; block b spans rows b*{n}..(b+1)*{n}-1\n")
        for block in truth.unique_matrices:
            for row in block:
                fh.write(",".join(fmt(float(v)) for v in row) + "\n")
    with open(os.path.join(outdir, "truth_index.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.write("transition,block\n")
        for t, b in enumerate(truth.matrix_index):
            fh.write(f"{t},{int(b)}\n")


def read_truth_bundle(matrices_path, index_path, sigma: float = 0.0) -> tuple:
    """Read back (unique_matrices, matrix_index) written by the generator."""
    rows = []
    with open(matrices_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            rows.append([float(tok) for tok in line.split(",")])
    flat = np.asarray(rows)
    n = flat.shape[1]
    if flat.shape[0] % n:
        raise ValueError(f"{matrices_path}: {flat.shape[0]} rows do not stack into {n}x{n} blocks")
    blocks = [flat[b * n : (b + 1) * n] for b in range(flat.shape[0] // n)]
    index = []
    with open(index_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip() or line.startswith("transition"):
                continue
            _, _, b = line.partition(",")
            index.append(int(b))
    return blocks, np.asarray(index, dtype=int)


def write_clusters_csv(outdir, labels, manifest: str) -> None:
    """One (window, label) row per window of the temporal modes."""
    with open(os.path.join(outdir, "clusters.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.write("window,label\n")
        for w, lab in enumerate(labels):
            fh.write(f"{w},{lab}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    known = {
        "benchmark": (str, "switching"),
        "N": (int, None),
        "tau": (int, None),
        "sigma": (float, None),
        "seed": (int, 0),
        "theta1": (float, None),
        "theta2": (float, None),
        "lengthscale": (float, 30.0),
    }
    opts = resolve_options(args, known)
    if opts["benchmark"] not in BENCHMARKS:
        raise SystemExit(f"error: benchmark must be one of {BENCHMARKS}")
    for key, value in benchmark_generate_defaults(opts["benchmark"]).items():
        if opts[key] is None:
            opts[key] = value

    if opts["benchmark"] == "switching":
        kwargs = {}
        if opts["theta1"] is not None:
            kwargs["theta1"] = opts["theta1"]
        if opts["theta2"] is not None:
            kwargs["theta2"] = opts["theta2"]
        truth = simulate_switching(N=opts["N"], tau=opts["tau"], sigma=opts["sigma"], seed=opts["seed"], **kwargs)
    else:
        truth = simulate_smooth(
            N=opts["N"], tau=opts["tau"], sigma=opts["sigma"], lengthscale=opts["lengthscale"], seed=opts["seed"]
        )

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_line("generate", opts)
    write_series_csv(os.path.join(args.out, "series.csv"), truth.series, manifest=manifest)
    write_truth_bundle(args.out, truth, manifest)
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(manifest + "\n")
    if args.verbose:
        print(f"wrote series.csv ({truth.series.n_channels} channels x {truth.series.n_samples} samples) to {args.out}")
    return 0


def _hyperparams_from(opts: dict, seed: int) -> Hyperparams:
    warm = None
    if opts.get("warm_restart_at"):
        warm = WarmRestart(at_iter=opts["warm_restart_at"])
    return Hyperparams(
        R=opts["rank"],
        eta=opts["eta"],
        reg=Regularizer(opts["reg"], opts["beta"]),
        max_outer_iters=opts["max_iters"],
        rtol=opts["rtol"],
        atol=opts["atol"],
        seed=seed,
        warm_restart=warm,
    )


FIT_KNOWN = {
    "input": (str, None),
    "rank": (int, None),
    "window": (int, None),
    "eta": (float, None),
    "beta": (float, 0.0),
    "reg": (str, "none"),
    "affine": (parse_bool, False),
    "lags": (int, 1),
    "rtol": (float, 1e-4),
    "atol": (float, 1e-6),
    "max_iters": (int, 1000),
    "warm_restart_at": (int, None),
    "clusters": (int, None),
    "seed": (int, 0),
}


def cmd_fit(args: argparse.Namespace) -> int:
    opts = resolve_options(args, FIT_KNOWN)
    for required in ("input", "rank", "window", "eta"):
        if opts[required] is None:
            raise SystemExit(f"error: --{required.replace('_', '-')} is required for fit")
    series = read_series_csv(opts["input"])
    pair = build_snapshots(series, M=opts["window"], P=opts["lags"], affine=opts["affine"])
    params = _hyperparams_from(opts, opts["seed"])
    model, report = fit(pair, params, verbose=args.verbose)
    normalized = model.normalize()

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_line("fit", opts)
    export_factors(normalized, args.out, manifest=manifest)
    report.write_trace_csv(os.path.join(args.out, "trace.csv"), manifest=manifest)
    eff_rank = model.effective_rank(0.1)
    summary = report.summary() + f"\neffective rank (0.1 threshold): {eff_rank}\nwindows: {pair.T} of {pair.M} transitions ({pair.dropped} dropped)\n"
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.write(summary)
    if opts["clusters"]:
        labels = cluster_temporal_modes(normalized.factors.U3, k=opts["clusters"], seed=opts["seed"])
        write_clusters_csv(args.out, labels, manifest)
    if args.verbose:
        print(summary)
    return 0


COMPARE_KNOWN = {
    "benchmark": (str, None),
    "input": (str, None),
    "truth_matrices": (str, None),
    "truth_index": (str, None),
    "N_list": (parse_int_list, None),
    "seeds": (parse_int_list, [0]),
    "methods": (parse_str_list, ["lowrank-r4", "indep-full", "indep-r4"]),
    "window": (int, None),
    "eta": (float, None),
    "beta": (float, None),
    "reg": (str, None),
    "sigma": (float, None),
    "tau": (int, None),
    "max_iters": (int, 1000),
    "rtol": (float, 1e-4),
    "atol": (float, 1e-6),
    "workers": (int, 1),
}


def _parse_method(tag: str) -> tuple:
    """'lowrank-rK' -> ('lowrank', K); 'indep-full' -> ('indep', None);
    'indep-rK' -> ('indep', K)."""
    if tag == "indep-full":
        return ("indep", None)
    for prefix, kind in (("lowrank-r", "lowrank"), ("indep-r", "indep")):
        if tag.startswith(prefix):
            try:
                return (kind, int(tag[len(prefix):]))
            except ValueError:
                break
    raise ValueError(f"unknown method {tag!r} (expected lowrank-rK, indep-full, indep-rK)")


def _compare_one(task: dict) -> dict:
    """One sweep row: fit one method on one instance; returns the row dict."""
    t0 = time.perf_counter()
    row = {"method": task["method"], "N": task["N"], "seed": task["seed"], "error": "", "rmse": "", "status": "ok"}
    try:
        if task["benchmark"] == "switching":
            truth = simulate_switching(N=task["N"], tau=task["tau"], sigma=task["sigma"], seed=task["seed"])
            series = truth.series
        elif task["benchmark"] == "smooth":
            truth = simulate_smooth(N=task["N"], tau=task["tau"], sigma=task["sigma"], seed=task["seed"])
            series = truth.series
        else:
            series = read_series_csv(task["input"])
            truth = None
            if task["truth_matrices"]:
                blocks, index = read_truth_bundle(task["truth_matrices"], task["truth_index"])
                truth = GroundTruth(series=series, unique_matrices=blocks, matrix_index=index, sigma=0.0)
        pair = build_snapshots(series, M=task["window"])
        kind, rank = _parse_method(task["method"])
        if kind == "lowrank":
            model, _ = fit(pair, _hyperparams_from({**task, "rank": rank}, task["seed"]))
            est = model_estimate(model)
        else:
            est = independent_fit(pair, rank=rank)
        row["rmse"] = estimate_rmse(est, pair)
        if truth is not None:
            row["error"] = operator_norm_error(est, truth)
    except Exception as exc:  # recorded per row; the sweep continues
        row["status"] = "failed: " + str(exc).replace(",", ";").replace("\n", " ")
    row["wall_seconds"] = time.perf_counter() - t0
    return row


def cmd_compare(args: argparse.Namespace) -> int:
    opts = resolve_options(args, COMPARE_KNOWN)
    if (opts["benchmark"] is None) == (opts["input"] is None):
        raise SystemExit("error: compare needs exactly one of --benchmark or --input")
    for tag in opts["methods"]:
        try:
            _parse_method(tag)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None

    if opts["benchmark"] is not None:
        if opts["benchmark"] not in BENCHMARKS:
            raise SystemExit(f"error: benchmark must be one of {BENCHMARKS}")
        gen_defaults = benchmark_generate_defaults(opts["benchmark"])
        if opts["tau"] is None:
            opts["tau"] = gen_defaults["tau"]
        if opts["sigma"] is None:
            opts["sigma"] = gen_defaults["sigma"]
        if opts["N_list"] is None:
            opts["N_list"] = [gen_defaults["N"]]
        n_values = opts["N_list"]
    else:
        n_values = [read_series_csv(opts["input"]).n_channels]

    tasks = []
    for N in n_values:
        per_n = dict(opts)
        if opts["benchmark"] is not None:
            defaults = benchmark_compare_defaults(opts["benchmark"], N)
            for key, value in defaults.items():
                if per_n[key] is None:
                    per_n[key] = value
        for required in ("window", "eta"):
            if per_n[required] is None:
                raise SystemExit(f"error: --{required} is required when not using a benchmark")
        if per_n["beta"] is None:
            per_n["beta"] = 0.0
        if per_n["reg"] is None:
            per_n["reg"] = "none"
        for seed in opts["seeds"]:
            for method in opts["methods"]:
                tasks.append(
                    {
                        "method": method,
                        "N": N,
                        "seed": seed,
                        "benchmark": opts["benchmark"],
                        "input": opts["input"],
                        "truth_matrices": opts["truth_matrices"],
                        "truth_index": opts["truth_index"],
                        "tau": per_n["tau"],
                        "sigma": per_n["sigma"],
                        "window": per_n["window"],
                        "eta": per_n["eta"],
                        "beta": per_n["beta"],
                        "reg": per_n["reg"],
                        "max_iters": per_n["max_iters"],
                        "rtol": per_n["rtol"],
                        "atol": per_n["atol"],
                    }
                )

    if opts["workers"] > 1:
        with ProcessPoolExecutor(max_workers=opts["workers"]) as pool:
            rows = list(pool.map(_compare_one, tasks))
    else:
        rows = [_compare_one(task) for task in tasks]
    rows.sort(key=lambda r: (r["method"], r["N"], r["seed"]))

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_line("compare", {k: v for k, v in opts.items() if k != "workers"})
    results_path = os.path.join(args.out, "compare_results.csv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.write("method,N,seed,mean_operator_norm_error,rmse,status\n")
        for row in rows:
            err = fmt(row["error"]) if row["error"] != "" else ""
            rm = fmt(row["rmse"]) if row["rmse"] != "" else ""
            fh.write(f"{row['method']},{row['N']},{row['seed']},{err},{rm},{row['status']}\n")
    with open(os.path.join(args.out, "compare_timing.log"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        for row in rows:
            fh.write(f"method={row['method']} N={row['N']} seed={row['seed']} wall_seconds={fmt(row['wall_seconds'])}\n")
    if args.verbose:
        for row in rows:
            print(row)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric matrix CSV, skipping '#' comments and one header row."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            try:
                rows.append([float(tok) for tok in line.strip().split(",")])
            except ValueError:
                if rows:
                    raise
                continue  # header row
    return np.asarray(rows)


def cmd_cluster(args: argparse.Namespace) -> int:
    known = {"u3": (str, None), "k": (int, 2), "seed": (int, 0)}
    opts = resolve_options(args, known)
    if opts["u3"] is None:
        raise SystemExit("error: --u3 is required for cluster")
    U3 = read_matrix_csv(opts["u3"])
    labels = cluster_temporal_modes(U3, k=opts["k"], seed=opts["seed"])
    os.makedirs(args.out, exist_ok=True)
    write_clusters_csv(args.out, labels, manifest_line("cluster", opts))
    if args.verbose:
        print("labels:", ",".join(str(v) for v in labels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrtvar", description="Low-rank time-varying autoregression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--verbose", action="store_true")

    g = sub.add_parser("generate", help="write a synthetic benchmark series plus its truth bundle")
    add_shared(g)
    g.add_argument("--benchmark", choices=BENCHMARKS, default=None)
    g.add_argument("--N", type=int, default=None)
    g.add_argument("--tau", type=int, default=None)
    g.add_argument("--sigma", type=float, default=None)
    g.add_argument("--theta1", type=float, default=None)
    g.add_argument("--theta2", type=float, default=None)
    g.add_argument("--lengthscale", type=float, default=None)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit the factored model to a series CSV")
    add_shared(f)
    f.add_argument("--input", type=str, default=None)
    f.add_argument("--rank", type=int, default=None)
    f.add_argument("--window", type=int, default=None)
    f.add_argument("--eta", type=float, default=None)
    f.add_argument("--beta", type=float, default=None)
    f.add_argument("--reg", choices=("none", "tv", "spline"), default=None)
    f.add_argument("--affine", action="store_const", const=True, default=None)
    f.add_argument("--lags", type=int, default=None)
    f.add_argument("--rtol", type=float, default=None)
    f.add_argument("--atol", type=float, default=None)
    f.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    f.add_argument("--warm-restart-at", dest="warm_restart_at", type=int, default=None)
    f.add_argument("--clusters", type=int, default=None)
    f.set_defaults(func=cmd_fit)

    c = sub.add_parser("compare", help="sweep methods over a benchmark or a series CSV")
    add_shared(c)
    c.add_argument("--benchmark", choices=BENCHMARKS, default=None)
    c.add_argument("--input", type=str, default=None)
    c.add_argument("--truth-matrices", dest="truth_matrices", type=str, default=None)
    c.add_argument("--truth-index", dest="truth_index", type=str, default=None)
    c.add_argument("--N-list", dest="N_list", type=parse_int_list, default=None)
    c.add_argument("--seeds", type=parse_int_list, default=None)
    c.add_argument("--methods", type=parse_str_list, default=None)
    c.add_argument("--window", type=int, default=None)
    c.add_argument("--eta", type=float, default=None)
    c.add_argument("--beta", type=float, default=None)
    c.add_argument("--reg", choices=("none", "tv", "spline"), default=None)
    c.add_argument("--sigma", type=float, default=None)
    c.add_argument("--tau", type=int, default=None)
    c.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    c.add_argument("--rtol", type=float, default=None)
    c.add_argument("--atol", type=float, default=None)
    c.add_argument("--workers", type=int, default=None)
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("cluster", help="k-means labels for the rows of a temporal-mode CSV")
    add_shared(k)
    k.add_argument("--u3", type=str, default=None)
    k.add_argument("--k", type=int, default=None)
    k.set_defaults(func=cmd_cluster)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

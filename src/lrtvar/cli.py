"""Command-line front end: generate benchmarks, fit models, compare methods, cluster modes.

Every output file starts with a manifest comment (tool version, resolved
configuration, seed) sufficient to reproduce it; ``trace.json`` holds it
under ``manifest``.  No timestamps or host details are written, so a fixed
seed gives byte-identical CSVs across runs.  Wall-clock timings go to
separate files: ``summary.txt`` and ``trace.json`` of a fit and the
``.log`` file of a comparison.  All numbers in the CSVs are printed with 17
significant digits.
"""

from __future__ import annotations

import argparse
import logging
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .cp_model import export_factors
from .errors import InvalidHyperparameterError, LrtvarError, ShapeMismatchError, integer_at_least
from .evaluation import (
    cluster_temporal_modes,
    estimate_rmse,
    independent_fit,
    model_estimate,
    operator_norm_error,
)
from .regularizers import REGULARIZER_KINDS, Regularizer
from .solver import Hyperparams, fit
from .synthetic import GroundTruth, simulate_smooth, simulate_switching
from .windowing import TimeSeries, build_snapshots, format_cell, read_csv, read_series_csv, write_csv, write_series_csv


def fmt(x) -> str:
    """Manifest text of one option value: CSV cell text, lists comma-joined."""
    if isinstance(x, (list, tuple)):
        return ",".join(map(format_cell, x))
    return format_cell(x)


def smooth_beta_default(N: int) -> float:
    """Smooth-benchmark smoothing strength: 600 * log10(N)^2, from the system size."""
    return 600.0 * float(np.log10(N)) ** 2


# Each benchmark's recipe: under "generate" the options its generator takes,
# with their defaults (None keeps the generator's own), and under "compare" the
# fit settings a comparison sweep uses at N channels.
BENCHMARKS = {
    "switching": {
        "generate": {"N": 10, "tau": 200, "sigma": 0.5, "theta1": None, "theta2": None},
        "compare": lambda N: {"window": 20, "eta": 1.0 / N, "beta": 1.0, "reg": "tv"},
    },
    "smooth": {
        "generate": {"N": 10, "tau": 160, "sigma": 0.2, "lengthscale": 30.0},
        "compare": lambda N: {"window": 1, "eta": 6.0 / N, "beta": smooth_beta_default(N), "reg": "spline"},
    },
}


def simulate_benchmark(benchmark: str, options: dict) -> GroundTruth:
    """The truth of ``benchmark`` from ``options["seed"]`` and each of its
    generator options that ``options`` sets.  The simulator is looked up when
    called, so a wrapper patched onto this module sees every call."""
    simulate = simulate_switching if benchmark == "switching" else simulate_smooth
    kwargs = {key: options[key] for key in BENCHMARKS[benchmark]["generate"] if options.get(key) is not None}
    return simulate(**kwargs, seed=options["seed"])


def fill_unset(options: dict, defaults: dict) -> dict:
    """``options`` with each option that is None taken from ``defaults``."""
    return {**options, **{key: value for key, value in defaults.items() if options[key] is None}}


# ---------------------------------------------------------------------------
# config files: flat key=value, one per line, '#' comments; flags override


def read_config_file(path) -> dict:
    """The key=value pairs of a config file.  A file that is not UTF-8 text,
    or a line that is not blank, a ``#`` comment or key=value, raises
    :class:`InvalidHyperparameterError` ``<path>: ...``; a file that cannot
    be read raises its ``OSError``."""
    out = {}
    try:
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InvalidHyperparameterError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidHyperparameterError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_options(args: argparse.Namespace, known: dict) -> dict:
    """Merge per-command defaults, config file, and explicit CLI flags.

    ``known`` maps option name -> (parser, default).  Config-file keys must
    be known and their values must parse, else
    :class:`InvalidHyperparameterError`; explicit flags win over the file,
    the file wins over defaults.
    """
    resolved = {name: default for name, (_, default) in known.items()}
    if args.config:
        file_options = read_config_file(args.config)
        unknown = set(file_options) - set(known)
        if unknown:
            raise InvalidHyperparameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, text in file_options.items():
            parser, _ = known[key]
            try:
                resolved[key] = parser(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise InvalidHyperparameterError(f"config key {key}: {exc}") from exc
    for name in known:
        value = getattr(args, name)
        if value is not None:
            resolved[name] = value
    return resolved


def flag(name: str) -> str:
    """The flag of an option-table key: ``max_iters`` -> ``--max-iters``."""
    return "--" + name.replace("_", "-")


def require(opts: dict, names, command: str) -> None:
    """An :class:`InvalidHyperparameterError` naming the first option of ``names`` that ``opts`` leaves unset."""
    for name in names:
        if opts[name] is None:
            raise InvalidHyperparameterError(f"{flag(name)} is required for {command}")


def reject_unused(opts: dict, names, context: str) -> None:
    """An :class:`InvalidHyperparameterError` naming each option of ``names``
    that ``opts`` sets: none of them applies in ``context``."""
    given = sorted(flag(name) for name in names if opts[name] is not None)
    if given:
        raise InvalidHyperparameterError(f"{context} takes no {', '.join(given)}")


def manifest_line(command: str, options: dict) -> str:
    body = " ".join(f"{k}={fmt(v)}" for k, v in sorted(options.items()) if v is not None)
    return f"manifest tool=lrtvar/{__version__} command={command} {body}"


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidHyperparameterError(f"expected a boolean, got {text!r}")


def one_of(choices):
    """Parser that accepts exactly the strings in ``choices`` (a tuple, or a dict's keys)."""

    def parse(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text

    return parse


def list_of(parse):
    """Parser of a comma-separated list of ``parse`` values; a list with no
    value, or with a value twice, is an error (a repeated seed, N or method
    would run one instance or method again and write duplicate rows)."""

    def parse_list(text: str) -> list:
        values = [parse(tok.strip()) for tok in text.split(",") if tok.strip()]
        if not values or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of at least one value, each given once, got {text!r}")
        return values

    return parse_list


# ---------------------------------------------------------------------------
# truth bundle I/O: the truth's factor blocks plus a transition -> block index


def write_truth_bundle(outdir, truth: GroundTruth, manifest: str) -> None:
    """Write ``truth_matrices.csv``, row i of block b being ``[left[b, i, :],
    right[b, i, :]]``, and ``truth_index.csv``, one (transition, block) row
    per transition."""
    n_blocks, n, q = truth.left.shape
    write_csv(
        os.path.join(outdir, "truth_matrices.csv"),
        np.concatenate([truth.left, truth.right], axis=2).reshape(n_blocks * n, 2 * q),
        manifest=manifest,
        comments=[f"{n_blocks} blocks of {n} rows; block b is rows b*{n}..(b+1)*{n}-1: {q} of left, {q} of right"],
    )
    write_csv(
        os.path.join(outdir, "truth_index.csv"),
        ((t, int(b)) for t, b in enumerate(truth.matrix_index)),
        header=["transition", "block"],
        manifest=manifest,
    )


def read_truth_bundle(matrices_path, index_path, series: TimeSeries) -> GroundTruth:
    """Read back the truth of ``series`` written by :func:`write_truth_bundle`.

    The matrices file must stack into blocks of one row per channel of the
    series and split into left and right halves.  The index must list
    transitions 0..n-1 in order, each with an integer block id in
    [0, n_blocks); the first row that does not is named.  Every block must
    drive a transition, so a bundle of another N is rejected even when its
    rows happen to stack into blocks of this one.
    """
    _, flat = read_csv(matrices_path)
    (rows, width), n = flat.shape, series.n_channels
    if rows % n or width % 2:
        raise ShapeMismatchError(
            f"{matrices_path}: {rows} rows of {width} columns do not stack into blocks of {n} rows (one per "
            f"channel of the series) with left and right halves"
        )
    blocks = flat.reshape(rows // n, n, width)
    _, index = read_csv(index_path)
    if index.shape[1] != 2:
        raise ShapeMismatchError(f"{index_path}: expected 2 columns (transition, block), got {index.shape[1]}")
    transition, block = index.T
    bad = (transition != np.arange(len(index))) | (block != np.round(block)) | (block < 0) | (block >= len(blocks))
    if bad.any():
        row = int(np.argmax(bad))
        raise ShapeMismatchError(
            f"{index_path}: data row {row}: expected transition {row} with an integer block in "
            f"[0, {len(blocks)}), got ({format_cell(transition[row])}, {format_cell(block[row])})"
        )
    if np.setdiff1d(np.arange(len(blocks)), block).size:
        raise ShapeMismatchError(f"{matrices_path}: some of its {len(blocks)} blocks of {n} rows drive no transition")
    return GroundTruth(series, blocks[:, :, : width // 2], blocks[:, :, width // 2 :], block.astype(int))


def write_clusters_csv(outdir, labels, manifest: str) -> None:
    """One (window, label) row per window of the temporal modes."""
    write_csv(os.path.join(outdir, "clusters.csv"), enumerate(labels), header=["window", "label"], manifest=manifest)


# ---------------------------------------------------------------------------
# subcommands


GENERATE_KNOWN = {
    "benchmark": (one_of(BENCHMARKS), "switching"),
    "N": (int, None),
    "tau": (int, None),
    "sigma": (float, None),
    "seed": (int, 0),
    "theta1": (float, None),
    "theta2": (float, None),
    "lengthscale": (float, None),
}


def cmd_generate(args: argparse.Namespace) -> int:
    """Simulate ``--benchmark`` and write its series and truth bundle to
    ``--out``.  A generator option that benchmark does not take is a usage
    error, raised before anything is written."""
    opts = resolve_options(args, GENERATE_KNOWN)
    recipe = BENCHMARKS[opts["benchmark"]]["generate"]
    reject_unused(opts, GENERATE_KNOWN.keys() - {"benchmark", "seed", *recipe}, f"--benchmark {opts['benchmark']}")
    opts = fill_unset(opts, recipe)
    truth = simulate_benchmark(opts["benchmark"], opts)

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_line("generate", opts)
    write_series_csv(os.path.join(args.out, "series.csv"), truth.series, manifest=manifest)
    write_truth_bundle(args.out, truth, manifest)
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(manifest + "\n")
    if args.verbose:
        print(f"wrote series.csv ({truth.series.n_channels} channels x {truth.series.n_samples} samples) to {args.out}")
    return 0


def _hyperparams_from(opts: dict) -> Hyperparams:
    return Hyperparams(
        R=opts["rank"],
        eta=opts["eta"],
        reg=Regularizer(opts["reg"], opts["beta"]),
        max_outer_iters=opts["max_iters"],
        rtol=opts["rtol"],
        atol=opts["atol"],
        seed=opts["seed"],
    )


# the fit's stopping options, shared by fit and compare, with Hyperparams' defaults
STOPPING_KNOWN = {
    "rtol": (float, Hyperparams.rtol),
    "atol": (float, Hyperparams.atol),
    "max_iters": (int, Hyperparams.max_outer_iters),
}

FIT_KNOWN = {
    "input": (str, None),
    "rank": (int, None),
    "window": (int, None),
    "eta": (float, None),
    "beta": (float, 0.0),
    "reg": (one_of(REGULARIZER_KINDS), "none"),
    "affine": (parse_bool, False),
    "lags": (int, 1),
    **STOPPING_KNOWN,
    "clusters": (int, None),
    "seed": (int, 0),
}


def cmd_fit(args: argparse.Namespace) -> int:
    """Fit the factored model to ``--input`` and write its factors, traces and
    summary to ``--out``.  A ``--clusters`` k that is not an integer in 1..T
    raises :class:`InvalidHyperparameterError` right after windowing, before
    the fit and before anything is written."""
    opts = resolve_options(args, FIT_KNOWN)
    require(opts, ("input", "rank", "window", "eta"), "fit")
    series = read_series_csv(opts["input"])
    pair = build_snapshots(series, M=opts["window"], P=opts["lags"], affine=opts["affine"])
    if opts["clusters"] is not None:
        integer_at_least("clusters", opts["clusters"], 1, most=pair.T)
    params = _hyperparams_from(opts)
    model, report = fit(pair, params)
    normalized = model.normalize()

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_line("fit", opts)
    export_factors(normalized, args.out, manifest=manifest)
    report.write_trace_csv(os.path.join(args.out, "trace.csv"), manifest=manifest)
    report.write_trace_json(os.path.join(args.out, "trace.json"), manifest=manifest)
    eff_rank = model.effective_rank(0.1)
    summary = report.summary() + f"\neffective rank (0.1 threshold): {eff_rank}\nwindows: {pair.T} of {pair.M} transitions ({pair.dropped} dropped)\n"
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.write(summary)
    if opts["clusters"] is not None:
        labels = cluster_temporal_modes(normalized.factors.U3, k=opts["clusters"], seed=opts["seed"])
        write_clusters_csv(args.out, labels, manifest)
    if args.verbose:
        print(summary)
    return 0


COMPARE_KNOWN = {
    "benchmark": (one_of(BENCHMARKS), None),
    "input": (str, None),
    "truth_matrices": (str, None),
    "truth_index": (str, None),
    "N_list": (list_of(int), None),
    "seeds": (list_of(int), [0]),
    "methods": (list_of(str), ["lowrank-r4", "indep-full", "indep-r4"]),
    "window": (int, None),
    "eta": (float, None),
    "beta": (float, None),
    "reg": (one_of(REGULARIZER_KINDS), None),
    "sigma": (float, None),
    "tau": (int, None),
    **STOPPING_KNOWN,
    "workers": (int, 1),
}


def _parse_method(tag: str) -> tuple:
    """'lowrank-rK' -> ('lowrank', K); 'indep-full' -> ('indep', None);
    'indep-rK' -> ('indep', K); any other tag raises
    :class:`InvalidHyperparameterError`."""
    if tag == "indep-full":
        return ("indep", None)
    for prefix, kind in (("lowrank-r", "lowrank"), ("indep-r", "indep")):
        if tag.startswith(prefix):
            try:
                return (kind, int(tag[len(prefix):]))
            except ValueError:
                break
    raise InvalidHyperparameterError(f"unknown method {tag!r} (expected lowrank-rK, indep-full, indep-rK)")


def _failure(exc: Exception) -> str:
    return "failed: " + str(exc).replace(",", ";").replace("\n", " ")


def _compare_instance(task: dict) -> list:
    """The sweep rows of one (N, seed) instance, one per method.  A benchmark
    instance is simulated here, an ``--input`` one comes in the task; either is
    windowed once.  A row's ``wall_seconds`` covers its own fit and scoring."""
    rows = [{"method": m, "N": task["N"], "seed": task["seed"], "error": "", "rmse": "", "status": "ok"}
            for m in task["methods"]]
    try:
        truth = simulate_benchmark(task["benchmark"], task) if task["benchmark"] else task["truth"]
        pair = build_snapshots(truth.series if task["benchmark"] else task["series"], M=task["window"])
    except Exception as exc:  # every row of the instance records it; the sweep continues
        return [{**row, "status": _failure(exc), "wall_seconds": 0.0} for row in rows]
    for row in rows:
        t0 = time.perf_counter()
        try:
            kind, rank = _parse_method(row["method"])
            if kind == "lowrank":
                model, _ = fit(pair, _hyperparams_from({**task, "rank": rank}))
                est = model_estimate(model)
            else:
                est = independent_fit(pair, rank=rank)
            row["rmse"] = estimate_rmse(est, pair)
            if truth is not None:
                row["error"] = operator_norm_error(est, truth, window_length=task["window"])
        except Exception as exc:  # recorded per row; the sweep continues
            row["status"] = _failure(exc)
        row["wall_seconds"] = time.perf_counter() - t0
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    """Score each method on each (N, seed) instance and write one row per run
    to ``--out``.  A ``--workers`` below 1, an unknown method and an option
    that does not apply to the source, ``--benchmark`` or ``--input``, raise
    :class:`InvalidHyperparameterError` before any data is read."""
    opts = resolve_options(args, COMPARE_KNOWN)
    integer_at_least("workers", opts["workers"], 1)
    if (opts["benchmark"] is None) == (opts["input"] is None):
        raise InvalidHyperparameterError("compare needs exactly one of --benchmark or --input")
    if opts["benchmark"] is None:
        require(opts, ("window", "eta"), "compare --input")
        reject_unused(opts, ("N_list", "tau", "sigma"), "--input")
    else:
        reject_unused(opts, ("truth_matrices", "truth_index"), "--benchmark")
    if (opts["truth_matrices"] is None) != (opts["truth_index"] is None):
        raise InvalidHyperparameterError("--truth-matrices and --truth-index go together")
    for tag in opts["methods"]:
        _parse_method(tag)

    series = truth = None
    if opts["benchmark"] is not None:
        recipe = BENCHMARKS[opts["benchmark"]]
        generate = recipe["generate"]
        opts = fill_unset(opts, {"N_list": [generate["N"]], "tau": generate["tau"], "sigma": generate["sigma"]})
        n_values, settings = opts["N_list"], recipe["compare"]
    else:
        series = read_series_csv(opts["input"])
        if opts["truth_matrices"]:
            truth = read_truth_bundle(opts["truth_matrices"], opts["truth_index"], series)
        n_values, settings = [series.n_channels], lambda N: {"beta": 0.0, "reg": "none"}
    tasks = [{**fill_unset(opts, settings(N)), "N": N, "seed": seed, "series": series, "truth": truth}
             for N in n_values for seed in opts["seeds"]]

    if opts["workers"] > 1:
        with ProcessPoolExecutor(max_workers=opts["workers"]) as pool:
            rows = [row for rows in pool.map(_compare_instance, tasks) for row in rows]
    else:
        rows = [row for task in tasks for row in _compare_instance(task)]
    rows.sort(key=lambda r: (r["method"], r["N"], r["seed"]))

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_line("compare", {k: v for k, v in opts.items() if k != "workers"})
    write_csv(
        os.path.join(args.out, "compare_results.csv"),
        ([r["method"], r["N"], r["seed"], r["error"], r["rmse"], r["status"]] for r in rows),
        header=["method", "N", "seed", "mean_operator_norm_error", "rmse", "status"],
        manifest=manifest,
    )
    with open(os.path.join(args.out, "compare_timing.log"), "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        for row in rows:
            fh.write(f"method={row['method']} N={row['N']} seed={row['seed']} wall_seconds={fmt(row['wall_seconds'])}\n")
    if args.verbose:
        for row in rows:
            print(row)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


CLUSTER_KNOWN = {"u3": (str, None), "k": (int, 2), "seed": (int, 0)}


def cmd_cluster(args: argparse.Namespace) -> int:
    opts = resolve_options(args, CLUSTER_KNOWN)
    require(opts, ("u3",), "cluster")
    _, U3 = read_csv(opts["u3"])
    labels = cluster_temporal_modes(U3, k=opts["k"], seed=opts["seed"])
    os.makedirs(args.out, exist_ok=True)
    write_clusters_csv(args.out, labels, manifest_line("cluster", opts))
    if args.verbose:
        print("labels:", ",".join(str(v) for v in labels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One flag per option-table key (``max_iters`` -> ``--max-iters``), each
    defaulting to None so :func:`resolve_options` can tell it was not given."""
    parser = argparse.ArgumentParser(prog="lrtvar", description="Low-rank time-varying autoregression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("generate", cmd_generate, GENERATE_KNOWN, "write a synthetic benchmark series plus its truth bundle"),
        ("fit", cmd_fit, FIT_KNOWN, "fit the factored model to a series CSV"),
        ("compare", cmd_compare, COMPARE_KNOWN, "sweep methods over a benchmark or a series CSV"),
        ("cluster", cmd_cluster, CLUSTER_KNOWN, "k-means labels for the rows of a temporal-mode CSV"),
    )
    for name, func, known, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--verbose", action="store_true")
        for key, (parse, _) in known.items():
            kind = {"action": "store_const", "const": True} if parse is parse_bool else {"type": parse}
            p.add_argument(flag(key), dest=key, default=None, **kind)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status.  Bad input, an
    :class:`LrtvarError` or an ``OSError`` on a file, ends the command as
    ``SystemExit("error: <message>")`` raised from that exception: one line
    on stderr and exit status 1.  An ``OSError`` reads ``<path>:
    <strerror>``.  argparse's own usage errors exit 2."""
    args = build_parser().parse_args(argv)
    if args.verbose:  # shows the solver's per-iteration lines on stderr
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        return args.func(args)
    except (LrtvarError, OSError) as exc:
        path = getattr(exc, "filename", None)
        raise SystemExit(f"error: {exc}" if path is None else f"error: {path}: {exc.strerror}") from exc


if __name__ == "__main__":
    sys.exit(main())

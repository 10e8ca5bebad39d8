"""lrtvar benchmark: one workload per run, end-to-end metrics or the traced per-layer split.

    python3 benchmarks/run.py --workload switching --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, timing medians with tails and sample counts, the
answer metrics that apply to only some workloads, and the run environment.
See ``benchmarks/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "lrtvar-bench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("windowing", "synthetic", "solver", "regularizers", "cp_model", "evaluation", "cli")
SETUP_REPS = 8  # set-ups per end-to-end run; setup_s is their median
# Median calibration time on the machine the baseline was taken on.  It only
# sets the scale of the reported times: see speed_factor.
CALIBRATION_REF_S = 0.005

END_TO_END = {
    "instance_s": "s",
    "fit_s": "s",
    "score_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_error": "1",
    "final_cost": "1",
    "outer_iters": "count",
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes and one instance per phase")
    parser.add_argument("--peak", action="store_true", help=argparse.SUPPRESS)  # child of the peak-memory pass
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def load_lrtvar():
    """Import the package and every layer module from ``src/`` afresh; returns the package.

    Earlier imports are dropped first, so each call times a full package
    import (from cached bytecode after the first).
    """
    for name in [m for m in sys.modules if m == "lrtvar" or m.startswith("lrtvar.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("lrtvar")
    for layer in LAYERS:
        importlib.import_module(f"lrtvar.{layer}")
    if Path(lib.__file__).resolve().parent != SRC / "lrtvar":
        raise ImportError(f"lrtvar imported from {lib.__file__}, not from {SRC}")
    return lib


def package_modules():
    return {name: mod for name, mod in sys.modules.items() if name == "lrtvar" or name.startswith("lrtvar.")}


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import numpy as np

    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
    }


def calibration_s() -> float:
    """Time one fixed mix of interpreter, small-array and BLAS work that does
    not touch the package; how long it takes tracks the machine's speed."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7.0
    v = np.linspace(0.0, 1.0, 200)
    for _ in range(200):
        v = np.cumsum(v) / 200.0
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(30):
        a = np.tanh(a @ a.T / 64.0)
    np.linalg.svd(a)
    return time.perf_counter() - t0 + 0.0 * (total + v[0])


def speed_factor(calibrations) -> float:
    """Reference calibration time over this run's median: times multiplied by
    it read as seconds at the reference machine's speed.  On a shared machine
    whose speed drifts by a third between runs, this removes most of the drift
    (see README)."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def timing_summary(values) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 21:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def run_checked(workload, inputs, failures):
    """One instance; an exception is a failed instance, not a failed run."""
    try:
        outcome = workload.run(inputs)
    except Exception as exc:  # the run goes on and reports the failure
        failures.append(f"{type(exc).__name__}: {exc}")
        return None
    failures.extend(outcome.problems)
    return outcome


def timed_loop(seconds, minimum, step):
    """Call ``step(i)`` until ``seconds`` would be exceeded by one more typical
    step, but at least ``minimum`` times; returns the count."""
    start = time.perf_counter()
    durations = []
    i = 0
    while True:
        t0 = time.perf_counter()
        step(i)
        durations.append(time.perf_counter() - t0)
        i += 1
        if i >= minimum and time.perf_counter() - start + statistics.median(durations) > seconds:
            return i


def finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def peak_rss_mib(args) -> tuple:
    """Peak resident memory of a fresh process that sets up and runs one instance.

    Runs this script with ``--peak`` so the figure covers the interpreter,
    numpy and the package as a user's process would hold them, and so the
    timed process is not slowed by memory tracing.  Returns (MiB, problems).
    """
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--peak"] + (["--smoke"] if args.smoke else [])
    child = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if child.returncode != 0:
        return math.nan, [f"peak pass exited {child.returncode}: {child.stderr.strip()[-500:]}"]
    report = json.loads(child.stdout.strip().splitlines()[-1])
    return report["peak_rss_mib"], report["problems"]


def peak_pass(args, workload_cls, workdir) -> int:
    lib = load_lrtvar()
    workload = workload_cls(lib, args.smoke, workdir)
    outcome = run_checked(workload, workload.prepare(args.seed, count=1)[0], problems := [])
    workload.close()
    if outcome is None and not problems:
        problems.append("instance failed")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    mib = maxrss / 2**20 if sys.platform == "darwin" else maxrss / 2**10
    print(json.dumps({"peak_rss_mib": mib, "problems": problems}))
    return 0


def end_to_end_run(args, workload_cls, workdir):
    reps = 1 if args.smoke else SETUP_REPS
    setup_times = []

    calibrations = []

    def set_up():
        calibrations.append(calibration_s())
        t0 = time.perf_counter()
        workload = workload_cls(load_lrtvar(), args.smoke, workdir)
        inputs = workload.prepare(args.seed)
        setup_times.append(time.perf_counter() - t0)
        return workload, inputs

    workload, inputs = set_up()
    peak_mib, failures = peak_rss_mib(args)
    peak_failed = bool(failures) or not math.isfinite(peak_mib)
    outcomes = []

    start = time.perf_counter()

    def step(i):
        # the other set-ups are spread over the loop, so that one slow spell of
        # a shared machine does not decide the median; their results are dropped
        if len(setup_times) < reps and time.perf_counter() - start >= len(setup_times) * args.seconds / reps:
            set_up()
        calibrations.append(calibration_s())
        outcomes.append(run_checked(workload, inputs[i % len(inputs)], failures))

    attempted = 1 + timed_loop(args.seconds, workload.quality_n, step)
    workload.close()

    done = [o for o in outcomes if o is not None]
    quality = [o for o in outcomes[: workload.quality_n] if o is not None]
    hits = [o.regime_hit for o in quality if o.regime_hit is not None]
    wins = [o.beats_indep_r4 for o in quality if o.beats_indep_r4 is not None]
    if hits and statistics.fmean(hits) < workload.min_regime_hits:
        failures.append(f"regimes recovered in {statistics.fmean(hits):.2f} of instances, below {workload.min_regime_hits}")
    failed = len([o for o in outcomes if o is None or o.problems]) + peak_failed
    speed = speed_factor(calibrations)
    metrics = {
        "instance_s": speed * statistics.median(o.instance_s for o in done) if done else None,
        "fit_s": speed * statistics.median(o.fit_s for o in done) if done else None,
        "score_s": speed * statistics.median(o.score_s for o in done) if done else None,
        "setup_s": speed * statistics.median(setup_times),
        "peak_rss_mib": peak_mib,
        "op_error": statistics.median(o.op_error for o in quality) if quality else None,
        "final_cost": statistics.fmean(o.final_cost for o in quality) if quality else None,
        "outer_iters": statistics.fmean(o.outer_iters for o in quality) if quality else None,
    }
    detail = {
        "speed_factor": speed,
        "calibration_s": timing_summary(calibrations),
        "wall_timings": {k: timing_summary([getattr(o, k) for o in done]) for k in ("instance_s", "fit_s", "score_s")}
        if done else {},
        "samples": {k: [round(getattr(o, k), 6) for o in done] for k in ("instance_s", "fit_s", "score_s")},
        "setup_s": timing_summary(setup_times),
        "quality_instances": len(quality),
        "op_error_mean": statistics.fmean(o.op_error for o in quality) if quality else None,
        "regime_hits": statistics.fmean(hits) if hits else None,
        "lowrank_beats_indep_r4": statistics.fmean(wins) if wins else None,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
    }
    correct = not failures and len(quality) == workload.quality_n
    return correct, attempted, failed, {k: finite_or_none(v) for k, v in metrics.items()}, END_TO_END, detail


def traced_run(args, workload_cls, workdir):
    from layertrace import LayerTracer, per_layer_metrics

    lib = load_lrtvar()
    workload = workload_cls(lib, args.smoke, workdir)
    modules = package_modules()
    setup_tracer, tracer = LayerTracer(), LayerTracer()
    with setup_tracer.installed(modules):
        inputs = workload.prepare(args.seed)

    failures, plain, traced = [], [], []

    def step(i):
        # the same input untraced and traced, alternating which goes first
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                with tracer.installed(modules):
                    traced.append(run_checked(workload, inputs[i % len(inputs)], failures))
            else:
                plain.append(run_checked(workload, inputs[i % len(inputs)], failures))

    timed_loop(args.seconds, 1 if args.smoke else 2, step)
    workload.close()

    everything = [*plain, *traced]
    failed = len([o for o in everything if o is None or o.problems])
    done_traced = [o for o in traced if o is not None]
    done_plain = [o for o in plain if o is not None]
    metrics, units = per_layer_metrics(setup_tracer, len(inputs), tracer, len(traced))
    traced_s = statistics.median(o.instance_s for o in done_traced) if done_traced else math.nan
    plain_s = statistics.median(o.instance_s for o in done_plain) if done_plain else math.nan
    metrics["cli.bytes_written"] = statistics.fmean(o.bytes_written for o in done_traced) if done_traced else 0.0
    metrics["bench.instance_s_traced"] = traced_s
    metrics["bench.instance_s_untraced"] = plain_s
    metrics["bench.trace_overhead_s"] = traced_s - plain_s
    units.update({"cli.bytes_written": "B", "bench.instance_s_traced": "s", "bench.instance_s_untraced": "s",
                  "bench.trace_overhead_s": "s"})
    detail = {
        "traced_instances": len(traced),
        "untraced_instances": len(plain),
        "absent": sorted(setup_tracer.absent | tracer.absent),
        "failed_frac": failed / len(everything),
        "failures": failures[:20],
    }
    return failed == 0, len(everything), failed, {k: finite_or_none(v) for k, v in metrics.items()}, units, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lrtvar" / "__init__.py").is_file():
        print(f"error: no lrtvar package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = str(WORKDIR / f"{args.workload}-{os.getpid()}")
    if args.peak:
        return peak_pass(args, WORKLOADS[args.workload], workdir)
    runner = traced_run if args.trace else end_to_end_run
    correct, attempted, failed, metrics, units, detail = runner(args, WORKLOADS[args.workload], workdir)

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  smoke=args.smoke, environment=environment())
    for name, value in metrics.items():
        print(f"{name:42s} {value!s:>24} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": bool(correct and all(v is not None for v in metrics.values())),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one BLAS thread: steadier timings on shared machines, and never more than nproc
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())

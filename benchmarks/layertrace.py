"""Per-layer tracing from outside the package: wrap public functions, time them, restore them.

A function is wrapped under the module attribute its caller looks it up by
(``lrtvar.solver.tv_prox_columns``, not ``lrtvar.regularizers.tv_prox_columns``,
because ``solver`` binds that name at import).  Each wrapped call is a span;
a span's self time is its duration minus the time of the wrapped spans it
encloses.  Names that no longer exist are recorded as absent instead of
raising, so a refactor that renames a function degrades the trace rather than
breaking the benchmark.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# label -> (module, dotted attribute) sites.  The label names the layer and
# function that does the work; the sites are every place a caller looks it up.
TRACED = {
    "solver.fit": [("lrtvar.solver", "fit"), ("lrtvar.cli", "fit")],
    "solver.initialize": [("lrtvar.solver", "initialize")],
    "solver.update_left": [("lrtvar.solver", "update_left")],
    "solver.update_right": [("lrtvar.solver", "update_right")],
    "solver.update_temporal": [("lrtvar.solver", "update_temporal")],
    "solver.cost": [("lrtvar.solver", "cost")],
    "solver.rmse": [("lrtvar.solver", "rmse")],
    "regularizers.tv_prox_columns": [("lrtvar.solver", "tv_prox_columns")],
    "regularizers.tv_penalty": [("lrtvar.regularizers", "tv_penalty")],
    "evaluation.model_estimate": [("lrtvar.evaluation", "model_estimate"), ("lrtvar.cli", "model_estimate")],
    "evaluation.operator_norm_error": [
        ("lrtvar.evaluation", "operator_norm_error"),
        ("lrtvar.cli", "operator_norm_error"),
    ],
    "evaluation.independent_fit": [("lrtvar.evaluation", "independent_fit"), ("lrtvar.cli", "independent_fit")],
    "evaluation.estimate_rmse": [("lrtvar.evaluation", "estimate_rmse"), ("lrtvar.cli", "estimate_rmse")],
    "evaluation.cluster_temporal_modes": [
        ("lrtvar.evaluation", "cluster_temporal_modes"),
        ("lrtvar.cli", "cluster_temporal_modes"),
    ],
    "cp_model.slice": [("lrtvar.cp_model", "CpFactors.slice")],
    "cp_model.normalize": [("lrtvar.cp_model", "CpFactors.normalize")],
    "synthetic.simulate": [
        ("lrtvar.synthetic", "simulate_switching"),
        ("lrtvar.synthetic", "simulate_smooth"),
        ("lrtvar.cli", "simulate_switching"),
        ("lrtvar.cli", "simulate_smooth"),
    ],
    "windowing.build_snapshots": [("lrtvar.windowing", "build_snapshots"), ("lrtvar.cli", "build_snapshots")],
    "windowing.write_series_csv": [("lrtvar.cli", "write_series_csv")],
    "windowing.read_series_csv": [("lrtvar.cli", "read_series_csv")],
    "cli.write_truth_bundle": [("lrtvar.cli", "write_truth_bundle")],
    "cli.read_truth_bundle": [("lrtvar.cli", "read_truth_bundle")],
    "cli.generate": [("lrtvar.cli", "cmd_generate")],
    "cli.fit": [("lrtvar.cli", "cmd_fit")],
    "cli.compare": [("lrtvar.cli", "cmd_compare")],
}


def _bound_arguments(func, args, kwargs):
    """Arguments by parameter name with defaults applied, or {} if they do not bind."""
    try:
        bound = inspect.signature(func).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return bound.arguments


def _iteration_result(result):
    """The iteration count of an ``(array, iterations)`` result, or None."""
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
        return result[1]
    return None


def _right_apply_flops(model, data) -> float:
    """Computed (not counted) flops of one application of the U2 normal operator:
    two (N_in x M T) by R contractions plus the R x R mixing per transition."""
    n_in, rank = model.U2.shape
    transitions = data.M * data.T
    return 4.0 * n_in * transitions * rank + 2.0 * transitions * rank * rank


class LayerTracer:
    """Collects spans and counters while installed; accumulates across installs."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.absent = set()
        self._stack = []

    def _record(self, label, args, kwargs, result, original):
        """Counters that need a call's arguments or result."""
        if label == "solver.update_right":
            iters = _iteration_result(result)
            arguments = _bound_arguments(original, args, kwargs)
            if iters is None or not {"model", "data", "max_iters"} <= arguments.keys():
                self.counters["right_unparsed"] += 1
                return
            self.counters["cg_iters_right"] += iters
            self.counters["cg_capped_right"] += iters >= arguments["max_iters"]
            self.counters["right_apply_flops"] += (1 + iters) * _right_apply_flops(arguments["model"], arguments["data"])
        elif label == "solver.update_temporal":
            iters = _iteration_result(result)
            arguments = _bound_arguments(original, args, kwargs)
            params = arguments.get("params")
            if iters is None or params is None:
                self.counters["temporal_unparsed"] += 1
                return
            kind = params.reg.kind if params.reg.beta > 0 else "none"
            budget = {"tv": params.pg_max_iters, "spline": params.cg_max_iters}.get(kind)
            self.counters["inner_iters_temporal"] += iters
            self.counters["inner_capped_temporal"] += budget is not None and iters >= budget
            if kind == "tv":
                self.counters["fista_iters"] += iters
        elif label == "solver.fit":
            report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
            self.counters["outer_iters"] += getattr(report, "iterations", 0)

    def _wrap(self, label, original):
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]  # time of wrapped spans inside this one
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.calls[label] += 1
                tracer.total_s[label] += elapsed
                tracer.self_s[label] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            tracer._record(label, args, kwargs, result, original)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every traced site found in ``modules`` (name -> module) and
        restore the originals on exit, also when the body raises."""
        saved = []
        try:
            for label, sites in TRACED.items():
                for module_name, dotted in sites:
                    owner = modules.get(module_name)
                    *path, attr = dotted.split(".")
                    for part in path:
                        owner = getattr(owner, part, None)
                    original = getattr(owner, attr, None)
                    if owner is None or not callable(original):
                        self.absent.add(f"{module_name}.{dotted}")
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(label, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def per_layer_metrics(setup: LayerTracer, n_inputs: int, run: LayerTracer, n_instances: int):
    """Per-instance layer metrics: each instance's share of the traced set-up
    plus the mean over traced instances.  Returns (values, units)."""

    def per(table, label):
        value = table(run)[label] / max(n_instances, 1)
        return value + (table(setup)[label] / n_inputs if n_inputs else 0.0)

    def total(label):
        return per(lambda t: t.total_s, label)

    def calls(label):
        return per(lambda t: t.calls, label)

    def counter(name):
        return run.counters[name] / max(n_instances, 1)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    seconds = {
        "regularizers.tv_prox_s": total("regularizers.tv_prox_columns"),
        "regularizers.tv_penalty_s": total("regularizers.tv_penalty"),
        "solver.fit_s": total("solver.fit"),
        "solver.self_s": per(lambda t: t.self_s, "solver.fit"),
        "solver.initialize_s": total("solver.initialize"),
        "solver.update_left_s": total("solver.update_left"),
        "solver.update_right_s": total("solver.update_right"),
        "solver.update_temporal_s": total("solver.update_temporal"),
        "solver.objective_s": total("solver.cost") + total("solver.rmse"),
        "evaluation.model_estimate_s": total("evaluation.model_estimate"),
        "evaluation.operator_norm_error_s": total("evaluation.operator_norm_error"),
        "evaluation.independent_fit_s": total("evaluation.independent_fit"),
        "evaluation.estimate_rmse_s": total("evaluation.estimate_rmse"),
        "evaluation.cluster_s": total("evaluation.cluster_temporal_modes"),
        "cp_model.normalize_s": total("cp_model.normalize"),
        "synthetic.simulate_s": total("synthetic.simulate"),
        "windowing.build_snapshots_s": total("windowing.build_snapshots"),
        "windowing.write_series_csv_s": total("windowing.write_series_csv"),
        "windowing.read_series_csv_s": total("windowing.read_series_csv"),
        "cli.write_truth_bundle_s": total("cli.write_truth_bundle"),
        "cli.read_truth_bundle_s": total("cli.read_truth_bundle"),
        "cli.generate_s": total("cli.generate"),
        "cli.fit_s": total("cli.fit"),
        "cli.compare_s": total("cli.compare"),
    }
    for layer in sorted({label.split(".")[0] for label in TRACED}):
        seconds[f"{layer}.layer_self_s"] = sum(
            per(lambda t: t.self_s, label) for label in TRACED if label.startswith(layer + ".")
        )
    counts = {
        "regularizers.tv_prox_calls": calls("regularizers.tv_prox_columns"),
        "regularizers.prox_calls_per_inner_iter": ratio(
            run.calls["regularizers.tv_prox_columns"], run.counters["fista_iters"]
        ),
        "solver.inner_iters_temporal": counter("inner_iters_temporal"),
        "solver.inner_capped_frac_temporal": ratio(
            run.counters["inner_capped_temporal"], run.calls["solver.update_temporal"]
        ),
        "solver.update_right_calls": calls("solver.update_right"),
        "solver.cg_iters_right": counter("cg_iters_right"),
        "solver.cg_capped_frac_right": ratio(run.counters["cg_capped_right"], run.calls["solver.update_right"]),
        "solver.objective_calls": calls("solver.cost") + calls("solver.rmse"),
        "solver.outer_iters": counter("outer_iters"),
        "cp_model.slice_calls": calls("cp_model.slice"),
    }
    values = {**seconds, **counts, "solver.right_apply_gflop": counter("right_apply_flops") / 1e9}
    units = {**{k: "s" for k in seconds}, **{k: "count" for k in counts}, "solver.right_apply_gflop": "GFLOP"}
    units["regularizers.prox_calls_per_inner_iter"] = "ratio"
    units["solver.inner_capped_frac_temporal"] = "ratio"
    units["solver.cg_capped_frac_right"] = "ratio"
    return values, units

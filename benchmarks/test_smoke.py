"""Smoke test of the benchmark harness at toy size, so a broken harness shows in seconds.

    python -m pytest benchmarks -q

Runs every workload in both modes with ``--smoke`` (toy problem sizes, one
instance per phase) and checks the result line against ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_harness(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = run_harness(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_harness(tmp_path, "--workload", "switching", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tracer_reports_absent_names_and_restores_originals():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from layertrace import LayerTracer

        import lrtvar.cli
        import lrtvar.solver
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))
    # a solver module from after a refactor that renamed tv_prox_columns
    renamed = types.SimpleNamespace(**{k: v for k, v in vars(lrtvar.solver).items() if k != "tv_prox_columns"})
    original_update_right = renamed.update_right
    tracer = LayerTracer()
    with tracer.installed({"lrtvar.solver": renamed, "lrtvar.cli": lrtvar.cli}):
        assert renamed.update_right is not original_update_right
    assert renamed.update_right is original_update_right
    assert "lrtvar.solver.tv_prox_columns" in tracer.absent
    assert "lrtvar.evaluation.model_estimate" in tracer.absent
    assert "lrtvar.cli.fit" not in tracer.absent

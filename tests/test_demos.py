"""Every demo runs to completion with warnings as errors and leaves no file behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_clean_and_leaves_its_temporary_directory_empty(demo, tmp_path):
    # each demo in its own interpreter, as a user runs it, with a fresh TMPDIR
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert os.listdir(tmp_path) == []

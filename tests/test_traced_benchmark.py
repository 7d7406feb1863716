"""The benchmark's traced run must end with its result line.

The traced run drives `cli.main` in-process over one round of commands
(bench/layers.py), so a change to the CLI or to a name the benchmark
reads can break the run while every other test passes.  The run here
works on a copy of bench/ and src/, so nothing in the tree is written.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_traced_theorem_cli_run_ends_with_every_layer_metric(tmp_path):
    skip = shutil.ignore_patterns("results", "__pycache__")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theorem-cli",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_no_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}

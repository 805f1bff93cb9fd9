"""The traced child, and the runner outside a checkout."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from e2ebench.launch import launch_problems, run_process
from e2ebench.layers import layer_metrics, read_spans
from e2ebench.spec import ROOT, SPEC_PATH


def _env(store):
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(store))
    return env


def test_traced_child_runs_the_cli_and_writes_spans(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    argv = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "child", "--spans",
            str(spans_path), "table1", "fig14"]
    env = dict(_env(tmp_path / "store"), REPRO_SCALE="0.05")
    launch = run_process(argv, env, ROOT, timeout=300)
    assert launch_problems(launch, None) == []
    assert [section.split(":")[0] for section in launch.stdout.split("\n\n") if section] == [
        "== table1", "== fig14"
    ]
    spans, _counters = read_spans(spans_path)
    metrics = layer_metrics(spans, _counters)
    assert (metrics["sim.engine_runs"], metrics["llc.builds"], metrics["exec.batches"]) == (3, 3, 0)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "all-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == "" and "src/repro" in result.stderr

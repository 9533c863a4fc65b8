"""The benchmark's own smoke test: quick mode, the metric tables, and refusal
to run without the program's sources."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(HERE))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(HERE))
    return module


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    run, tracer, workloads = _load("run"), _load("tracer"), _load("workloads")
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(workloads.WHY.items())
    assert list(workloads.WHY) == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)


def test_quick_mode_runs_every_workload_and_checks_every_output():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for workload in bench["workloads"]:
        for name in names:
            metric = result["metrics"][f"{workload['name']}/{name}"]
            assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-sampled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

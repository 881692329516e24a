"""Smoke test of the benchmark: every workload at tiny sizes, both output modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints every metric BENCHMARK.json names, with its unit,
that the final JSON line keeps its schema, that the traced run's self times
add up to its wall time, and that the runner refuses to run without the
program beside it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
MODULES = ("cli", "experiments", "sgd", "oracles", "core", "rates", "ordering", "datasets")


def run(*extra, cwd=ROOT):
    return subprocess.run([sys.executable, *BENCH["command"][1:], *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_file_matches_runner_and_predictions():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    sys.path.insert(0, str(HERE))
    try:
        import run as runner
    finally:
        sys.path.remove(str(HERE))
    assert [w["name"] for w in BENCH["workloads"]] == list(runner.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == runner.END_TO_END_UNITS
    assert {m["name"] for m in BENCH["per_layer"]} == set(LAYERS)
    for m in BENCH["per_layer"]:
        assert m["unit"] == runner.unit_of(m["name"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_run_prints_every_metric_with_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
               "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines
    assert any(line.startswith("# facts ") for line in lines)
    assert "failed_frac 0.0 ratio" in lines
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[f"{mod}.self_s"] for mod in MODULES) + m["bench.self_s"] + m["trace.hook_s"]
        assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["trace.missing_entry_points"] == 0
        if workload == "rate-plan":
            assert m["oracles.call.n"] == 0 and m["sgd.steps"] == 0
        else:
            assert m["oracles.call.n"] == m["sgd.steps"] > 0


def test_refuses_to_run_without_the_program():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "c2-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

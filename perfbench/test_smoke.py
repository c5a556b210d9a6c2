"""Smoke test of the benchmark itself, at a tiny size::

    python3 -m pytest perfbench/test_smoke.py -q

For every workload, untraced and traced, it checks that each metric
``BENCHMARK.json`` names prints with its unit, that no operation fails,
and that the traced run reproduces the untraced digests.  It also checks
that tracing keeps the core's no-op hook elision, and that the benchmark
refuses to run without the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import plan  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        plan.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_every_metric_prints_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    table = {line.split()[0]: line.split()[-1]
             for line in lines if line.startswith("  ")}
    for metric in declared:
        assert table[metric["name"]] == metric["unit"]
    if trace:
        assert "note: traced digests equal untraced: True" in lines
    else:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


_ELISION_SCRIPT = """
import json
from layers import Tracer
tracer = Tracer()
tracer.install()
from repro.sim.runner import ExperimentRunner
runner = ExperimentRunner(jobs=1)
calls = {}
for prefetcher in ("none", "bfetch"):
    before = tracer.summary()["layers"]
    runner.run_single("mcf", prefetcher, 2000)
    after = tracer.summary()["layers"]
    calls[prefetcher] = {layer: after[layer]["calls"]
                         - before[layer]["calls"]
                         for layer in ("core", "prefetchers", "cpu.ooo")}
print(json.dumps(calls))
"""


def test_tracing_keeps_noop_hook_elision():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", _ELISION_SCRIPT], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls["none"]["core"] == 0
    assert calls["none"]["prefetchers"] == 0
    assert calls["none"]["cpu.ooo"] > 0
    assert calls["bfetch"]["core"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

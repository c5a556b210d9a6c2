"""Fast smoke test for the perf micro-harness (tiny instruction budget).

Guards that ``python -m repro bench-perf`` keeps working and emitting
schema-correct, machine-readable JSON; real trajectory points are
recorded with much larger budgets (see README.md).
"""

import json
import os

from repro.cli import main as cli_main
from repro.perf import COMPONENTS, run_perf_suite, write_bench_json
from repro.perf.harness import SCHEMA, bench_sweep


def test_suite_payload_schema(tmp_path):
    payload = run_perf_suite(benchmark="gamess", instructions=2_000,
                             label="smoke")
    assert payload["schema"] == SCHEMA
    assert payload["label"] == "smoke"
    assert set(payload["components"]) == set(COMPONENTS)
    for component in COMPONENTS:
        row = payload["components"][component]
        assert row["instructions"] == 2_000
        assert row["instr_per_sec"] > 0
    out = write_bench_json(payload, str(tmp_path / "BENCH_smoke.json"))
    with open(out) as handle:
        assert json.load(handle) == payload


def test_sweep_smoke_serial_parallel_identical():
    sweep = bench_sweep(("gamess", "libquantum"), ("none", "stride"),
                        instructions=2_000, jobs=2)
    assert sweep["runs"] == 4
    assert sweep["results_identical"] is True
    assert sweep["serial_seconds"] > 0 and sweep["parallel_seconds"] > 0
    # the parallel pass records its BatchReport (clean run: all misses)
    report = sweep["batch_report"]
    assert report["total"] == 4 and report["misses"] == 4
    assert report["failures"] == []


def test_cli_bench_perf_writes_json(tmp_path, capsys):
    out = str(tmp_path / "BENCH_cli.json")
    rc = cli_main([
        "bench-perf", "--benchmark", "gamess", "-n", "2000", "--out", out,
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "perf suite" in captured and "full_system" in captured
    assert os.path.exists(out)
    with open(out) as handle:
        payload = json.load(handle)
    assert payload["schema"] == SCHEMA


def test_bench_serve_smoke():
    from repro.perf import bench_serve

    serve = bench_serve(("gamess", "libquantum"), ("none",),
                        instructions=2_000, clients=2, max_concurrent=1)
    assert serve["jobs_per_phase"] == 2
    assert serve["runs_computed"] == 2 and serve["cache_hits"] == 2
    assert serve["uncached_seconds"] > 0 and serve["cached_seconds"] > 0
    # the cached phase never simulates, so it must be the faster one
    assert serve["cached_jobs_per_sec"] > serve["uncached_jobs_per_sec"]
    for series in ("computed", "cached"):
        block = serve["latency"][series]
        assert block["count"] == 2
        assert block["p50"] <= block["p95"]

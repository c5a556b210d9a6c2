"""Experiment runner and result cache."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.sim import ExperimentRunner
from repro.sim.runner import scaled


def cache_files(cache_dir):
    """All cached result files in the sharded cache layout."""
    found = []
    for root, _dirs, files in os.walk(str(cache_dir)):
        found.extend(os.path.join(root, name) for name in files
                     if name.endswith(".json"))
    return found


def test_scaled_respects_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert scaled(100_000) == 50_000
    monkeypatch.setenv("REPRO_SCALE", "4")
    assert scaled(100_000) == 400_000
    monkeypatch.delenv("REPRO_SCALE")
    assert scaled(100_000) == 100_000


def test_scaled_floor(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.000001")
    assert scaled(100_000) == 1000


def test_scaled_rejects_non_numeric(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "fast")
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        scaled(100_000)


def test_scaled_rejects_non_positive(monkeypatch):
    for bad in ("0", "-1", "-0.25"):
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(ValueError, match="REPRO_SCALE must be positive"):
            scaled(100_000)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert scaled(100_000) == 50_000  # the bad value was not memoised


def test_run_single_cached_on_disk(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_single("gamess", "none", instructions=5_000)
    files = cache_files(tmp_path)
    assert len(files) == 1
    # sharded layout: <cache_dir>/<kind>/<digest prefix>/<file>
    relative = os.path.relpath(files[0], str(tmp_path))
    parts = relative.split(os.sep)
    assert parts[0] == "single" and len(parts) == 3
    second = runner.run_single("gamess", "none", instructions=5_000)
    assert second.as_dict() == first.as_dict()


def test_run_single_disk_cache_survives_new_runner(tmp_path):
    first = ExperimentRunner(cache_dir=str(tmp_path)).run_single(
        "gamess", "none", instructions=5_000
    )
    second = ExperimentRunner(cache_dir=str(tmp_path)).run_single(
        "gamess", "none", instructions=5_000
    )
    assert second.as_dict() == first.as_dict()


def test_cache_distinguishes_configs(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    runner.run_single("gamess", "none", instructions=5_000)
    runner.run_single("gamess", "stride", instructions=5_000)
    assert len(cache_files(tmp_path)) == 2


def test_corrupt_cache_entry_is_discarded_and_recomputed(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_single("gamess", "none", instructions=5_000)
    (path,) = cache_files(tmp_path)
    with open(path, "w") as handle:
        handle.write('{"workload": "gam')  # truncated write
    fresh = ExperimentRunner(cache_dir=str(tmp_path))
    recomputed = fresh.run_single("gamess", "none", instructions=5_000)
    assert recomputed.as_dict() == first.as_dict()
    # the corrupt entry was replaced by a valid enveloped one
    (path,) = cache_files(tmp_path)
    with open(path) as handle:
        entry = json.load(handle)
    assert entry["data"] == first.as_dict()


def test_cache_writes_leave_no_temp_files(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    runner.run_single("gamess", "none", instructions=5_000)
    runner.run_mix(("gamess", "gamess"), instructions=4_000)
    for root, _dirs, files in os.walk(str(tmp_path)):
        for name in files:
            assert name.endswith(".json") and not name.startswith(".tmp")


def test_memo_serves_repeat_lookups_without_disk(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_single("gamess", "none", instructions=5_000)
    for path in cache_files(tmp_path):
        os.unlink(path)  # disk gone; the in-memory memo must serve it
    second = runner.run_single("gamess", "none", instructions=5_000)
    assert second.as_dict() == first.as_dict()


def test_memo_results_are_isolated_copies():
    runner = ExperimentRunner()
    first = runner.run_single("gamess", "none", instructions=5_000)
    first.data["ipc"] = -1.0  # mutate the caller's copy
    second = runner.run_single("gamess", "none", instructions=5_000)
    assert second.ipc != -1.0


def test_config_prefetcher_mismatch_rejected():
    from repro.sim import SystemConfig
    runner = ExperimentRunner()
    with pytest.raises(ValueError):
        runner.run_single("gamess", "stride", 5_000,
                          config=SystemConfig(prefetcher="sms"))


@pytest.mark.parametrize("instructions", [-5, 0, 2.5, "100", True])
def test_run_single_rejects_bad_instructions(tmp_path, instructions):
    """A bad budget fails fast, before the cache probe and the retry
    loop (a plain ValueError, not a retried SimulationError), and
    nothing is cached."""
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match="instructions"):
        runner.run_single("mcf", "none", instructions)
    with pytest.raises(ValueError, match="instructions"):
        runner.run_many([("mcf", "none", instructions)], jobs=1)
    assert cache_files(tmp_path) == [] and runner._memo == {}


@pytest.mark.parametrize("instructions", [-1, 0, 2.5, "100", False])
def test_run_mix_rejects_bad_instructions(tmp_path, instructions):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match="instructions"):
        runner.run_mix(["mcf", "astar"], "none", instructions)
    assert cache_files(tmp_path) == [] and runner._memo == {}


@pytest.mark.parametrize("variant", [-1, 1.5, "1", True])
def test_run_single_rejects_bad_variant(tmp_path, variant):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match="variant"):
        runner.run_single("mcf", "none", 2_000, variant=variant)
    assert cache_files(tmp_path) == [] and runner._memo == {}


@pytest.mark.parametrize("variant", [-1, 1.5, True])
def test_build_workload_rejects_bad_variant(variant):
    from repro.workloads import build_workload
    with pytest.raises(ValueError, match="variant"):
        build_workload("mcf", variant)


@pytest.mark.parametrize("mix", ["mcf", [], (), None, ["mcf", 3]])
def test_run_mix_rejects_bad_mix(tmp_path, mix):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match="mix"):
        runner.run_mix(mix, "none", 2_000)
    assert cache_files(tmp_path) == [] and runner._memo == {}


def test_default_path_does_not_import_numpy():
    """Building a runner and running a single and a mix loads no
    numpy: the simulator is stdlib-only.  A fresh interpreter, so no
    other test's imports leak in."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = "\n".join((
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "from repro.sim import ExperimentRunner",
        "runner = ExperimentRunner(cache_dir=None)",
        "runner.run_single('mcf', 'bfetch', 2000)",
        "runner.run_mix(['mcf', 'libquantum'], 'bfetch', 1000)",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_environment_knobs_are_the_known_eight():
    """Every ``REPRO_*`` variable the package reads; a new one must be
    added here on purpose, not land unnoticed."""
    package = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "repro")
    names = set()
    for root, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as handle:
                    names.update(re.findall(r"REPRO_[A-Z_]+", handle.read()))
    assert names == {"REPRO_SCALE", "REPRO_JOBS", "REPRO_FAULTS",
                     "REPRO_CKPT_DIR", "REPRO_CKPT_EVERY", "REPRO_CHECK",
                     "REPRO_TRACE", "REPRO_TRACE_FILE"}


def test_speedup_of_baseline_is_one():
    runner = ExperimentRunner()
    assert runner.speedup("gamess", "none", instructions=5_000) == 1.0


def test_run_mix_cached(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_mix(("gamess", "gamess"), instructions=4_000)
    second = runner.run_mix(("gamess", "gamess"), instructions=4_000)
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]


def test_foa_map_covers_requested_benchmarks():
    runner = ExperimentRunner()
    foa = runner.foa_map(["gamess", "libquantum"], instructions=5_000)
    assert set(foa) == {"gamess", "libquantum"}
    # the streaming benchmark hammers the LLC far harder
    assert foa["libquantum"] > foa["gamess"]


def test_weighted_speedup_normalized_baseline_is_one():
    runner = ExperimentRunner()
    value = runner.weighted_speedup_normalized(
        ("gamess", "gamess"), "none",
        instructions=4_000, single_instructions=4_000,
    )
    assert value == pytest.approx(1.0)

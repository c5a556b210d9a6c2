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


SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _fresh_env():
    """The environment of a default run: ``src`` importable and no
    ``REPRO_*`` knob (a sanitizer or fault plan would load its modules)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def _run_fresh(script):
    """Run *script* in a fresh interpreter; it must exit cleanly."""
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _imported_by(argv):
    """Every module ``python -X importtime argv...`` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime"] + argv,
                          env=_fresh_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_serial_run_imports_only_what_it_runs():
    """A serial ``run_single`` and ``run_mix`` of mcf/bfetch import no
    process pool, server, analysis, sanitizer, fault parser, front end,
    assembler, trace capture, LLC policy, synthesizer or prefetcher they
    did not ask for."""
    names = (
        "multiprocessing", "concurrent.futures.process", "repro.serve",
        "repro.analysis", "repro.sanitize", "repro.resilience.faults",
        "repro.frontend.frontend", "repro.frontend.iprefetch",
        "repro.isa.assembler", "repro.cpu.trace", "repro.memory.replacement",
        "repro.workloads.synth", "repro.prefetchers.nextn",
        "repro.prefetchers.stride", "repro.prefetchers.perfect",
        "repro.prefetchers.tango", "repro.prefetchers.isb",
        "repro.prefetchers.stems", "repro.prefetchers.sms",
    )
    _run_fresh("\n".join((
        "import sys",
        "from repro.sim import ExperimentRunner",
        "runner = ExperimentRunner(cache_dir=None)",
        "runner.run_single('mcf', 'bfetch', 2000)",
        "runner.run_mix(['mcf', 'libquantum'], 'bfetch', 1000)",
        "names = %r" % (names,),
        "prefixes = ('repro.serve.', 'repro.analysis.', 'repro.sanitize.')",
        "bad = sorted(m for m in sys.modules",
        "             if m in names or m.startswith(prefixes))",
        "assert not bad, 'imported: %s' % ', '.join(bad)",
    )))


@pytest.mark.parametrize("argv", [["--help"],
                                  ["run", "mcf", "none", "-n", "2000"]],
                         ids=["help", "run"])
def test_cli_imports_no_server_or_analysis(argv):
    """``repro --help`` and a plain ``repro run`` build the parser (it
    reads the server's default port off the ``repro.serve`` package)
    without importing a serve or analysis module, the process pool or a
    prefetcher they did not ask for."""
    imported = _imported_by(["-m", "repro"] + argv)
    assert "repro.cli" in imported
    assert sorted(m for m in imported
                  if m in ("multiprocessing", "repro.prefetchers.sms")
                  or m.startswith(("repro.serve.", "repro.analysis"))) == []


@pytest.mark.parametrize("argv", [
    ["-m", "repro", "--help"],
    ["-c", "\n".join((
        "from repro.sim import ExperimentRunner",
        "runner = ExperimentRunner(cache_dir=None)",
        "runner.run_single('mcf', 'bfetch', 2000)",
        "runner.run_mix(['mcf', 'libquantum'], 'bfetch', 1000)",
    ))],
], ids=["help", "serial-runs"])
def test_cold_paths_import_no_dataclasses_or_inspect(argv):
    """``FailurePolicy`` is a namedtuple: neither ``repro --help`` nor a
    serial run pays for ``dataclasses`` and the ``inspect`` it loads."""
    assert {"dataclasses", "inspect"} & _imported_by(argv) == set()


def test_started_server_has_imported_every_model():
    """A started ``JobServer`` has imported every prefetcher module and
    the front end, and a sweep over every prefetcher compiles no module
    while it is served."""
    models = tuple("repro.prefetchers." + name for name in (
        "nextn", "stride", "sms", "perfect", "tango", "isb", "stems")) + (
        "repro.core.bfetch", "repro.frontend.frontend",
        "repro.frontend.ftq", "repro.frontend.iprefetch",
        "repro.frontend.predecode")
    _run_fresh("\n".join((
        "import sys",
        "from repro.serve.client import ServeClient",
        "from repro.serve.server import ServerThread",
        "from repro.sim.config import PREFETCHER_NAMES",
        "with ServerThread() as thread:",
        "    loaded = set(sys.modules)",
        "    missing = [m for m in %r if m not in loaded]" % (models,),
        "    assert not missing, 'not imported at start: %s' % missing",
        "    with ServeClient(*thread.address, timeout=120) as client:",
        "        ticket = client.submit_sweep(['mcf'], list(PREFETCHER_NAMES),",
        "                                     instructions=1000)",
        "        reply = client.result(ticket['job_id'], wait=True)",
        "    assert len(reply['result']) == len(PREFETCHER_NAMES), reply",
        "    new = sorted(m for m in set(sys.modules) - loaded",
        "                 if m.startswith('repro'))",
        "    assert not new, 'imported while serving: %s' % new",
    )))


# every name each package exports, by the module that defines it (a
# package's own constants are defined by the package itself)
PACKAGE_EXPORTS = {
    "repro": {
        "repro": ("__version__",),
        "repro.sim.runner": ("ExperimentRunner",),
        "repro.sim.system": ("System", "RunResult"),
        "repro.sim.cmp": ("CMPSystem",),
        "repro.sim.config": ("SystemConfig",),
        "repro.sim.metrics": ("geomean",),
        "repro.workloads.spec": ("BENCHMARKS", "PREFETCH_SENSITIVE",
                                 "build_workload"),
    },
    "repro.analysis": {
        "repro.analysis.variation": ("collect_variation", "VariationCDF"),
        "repro.analysis.overhead": ("overhead_table", "bfetch_overhead_kb",
                                    "sms_overhead_kb"),
        "repro.analysis.fetch_breakdown": ("fetch_branch_breakdown",),
        "repro.analysis.energy": ("EnergyModel", "prefetcher_energy",
                                  "energy_comparison"),
        "repro.analysis.reporting": ("render_table", "render_series",
                                     "render_cdf"),
    },
    "repro.branch": {
        "repro.branch.bimodal": ("BimodalPredictor",),
        "repro.branch.gshare": ("GsharePredictor",),
        "repro.branch.local": ("LocalPredictor",),
        "repro.branch.tournament": ("TournamentPredictor",),
        "repro.branch.perceptron": ("PerceptronPredictor",),
        "repro.branch.btb": ("BranchTargetBuffer",),
        "repro.branch.confidence": ("JRSEstimator", "UpDownEstimator",
                                    "SelfCounterEstimator",
                                    "CompositeConfidenceEstimator"),
        "repro.branch.path_confidence": ("PathConfidence",),
    },
    "repro.checkpoint": {
        "repro.checkpoint.manager": ("CHECKPOINT_VERSION", "DEFAULT_EVERY",
                                     "CheckpointError", "Checkpointer",
                                     "InterruptFlag", "from_env",
                                     "gc_stale_tmp", "signal_guard"),
        "repro.checkpoint.state": ("decode_meta", "encode_meta", "int_dict",
                                   "pairs", "rng_from_json", "rng_to_json"),
    },
    "repro.core": {
        "repro.core.config": ("BFetchConfig",),
        "repro.core.bfetch": ("BFetchPrefetcher",),
        "repro.core.arf": ("AlternateRegisterFile",),
        "repro.core.brtc": ("BranchTraceCache",),
        "repro.core.mht": ("MemoryHistoryTable", "MHTEntry",
                           "RegisterHistory"),
        "repro.core.perload_filter": ("PerLoadFilter",),
        "repro.core.hashing": ("bb_hash", "load_pc_hash"),
    },
    "repro.cpu": {
        "repro.cpu.functional": ("Machine", "HaltError"),
        "repro.cpu.ooo": ("OutOfOrderCore", "CoreConfig"),
        "repro.cpu.trace": ("TraceReplay", "capture_trace", "save_trace"),
    },
    "repro.frontend": {
        "repro.frontend.config": ("FRONTEND_MODES", "IPREFETCHER_NAMES"),
        "repro.frontend.frontend": ("DecoupledFrontEnd",),
        "repro.frontend.ftq": ("FetchTargetQueue",),
        "repro.frontend.iprefetch": ("IPrefetcher", "NextLineIPrefetcher",
                                     "FDIPPrefetcher", "BFetchIPrefetcher",
                                     "CombinedIPrefetcher",
                                     "make_iprefetcher"),
        "repro.frontend.predecode": ("Predecoder",),
    },
    "repro.isa": {
        "repro.isa": ("NUM_REGS", "ZERO_REG", "WORD_SIZE", "MASK64"),
        "repro.isa.opcodes": ("Op", "is_branch", "is_cond_branch", "is_load",
                              "is_store", "is_mem"),
        "repro.isa.instructions": ("Instr",),
        "repro.isa.program": ("Program", "BasicBlock",
                              "extract_basic_blocks"),
        "repro.isa.assembler": ("assemble", "AssemblerError"),
    },
    "repro.memory": {
        "repro.memory.cache": ("Cache", "CacheStats", "Line"),
        "repro.memory.dram": ("DramModel",),
        "repro.memory.hierarchy": ("MemoryHierarchy", "HierarchyConfig"),
        "repro.memory.prefetch_queue": ("PrefetchQueue",),
        "repro.memory.stats": ("PrefetchStats",),
        "repro.memory.replacement": ("ReplacementPolicy", "LRUPolicy",
                                     "RandomPolicy", "SRRIPPolicy",
                                     "PACManPolicy", "make_policy"),
    },
    "repro.obs": {
        "repro.obs.io": ("atomic_write_text",),
        "repro.obs.profile": ("PhaseRecord", "Profiler"),
        "repro.obs.registry": ("AdoptedStat", "Counter", "FuncStat",
                               "Histogram", "Ratio", "Stat",
                               "StatsRegistry"),
        "repro.obs.trace": ("CATEGORIES", "DEFAULT_TRACE_FILE", "Channel",
                            "TraceConfigError", "Tracer", "parse_trace_spec",
                            "validate_event", "validate_jsonl"),
    },
    "repro.prefetchers": {
        "repro.prefetchers.base": ("Prefetcher",),
        "repro.prefetchers.nextn": ("NextNPrefetcher",),
        "repro.prefetchers.stride": ("StridePrefetcher",),
        "repro.prefetchers.sms": ("SMSPrefetcher",),
        "repro.prefetchers.perfect": ("PerfectPrefetcher",),
        "repro.prefetchers.tango": ("TangoPrefetcher",),
        "repro.prefetchers.isb": ("ISBPrefetcher",),
        "repro.prefetchers.stems": ("STeMSPrefetcher",),
    },
    "repro.resilience": {
        "repro.resilience.envelope": ("payload_sha", "read_envelope_text",
                                      "unwrap_envelope", "wrap_envelope"),
        "repro.resilience.errors": ("BatchReport", "CacheCorruption",
                                    "SimulationError", "TaskTimeout",
                                    "WorkerCrash"),
        "repro.resilience.faults": ("FaultPlan", "FaultSpec",
                                    "InjectedCrash", "get_fault_plan",
                                    "parse_faults"),
        "repro.resilience.policy": ("ON_ERROR_MODES", "FailurePolicy"),
        "repro.resilience.retry": ("backoff_delay", "jitter_fraction"),
    },
    "repro.sanitize": {
        "repro.sanitize.bisect": ("DivergenceReport",
                                  "bisect_first_bad_cycle", "sentinel_run"),
        "repro.sanitize.checks": ("CHEAP_INTERVAL", "ENV_CHECK",
                                  "FULL_INTERVAL", "MODES", "Sanitizer",
                                  "mode_from_env"),
        "repro.sanitize.errors": ("SanitizerError",),
    },
    "repro.serve": {
        "repro.serve.breaker": ("BreakerBoard", "CircuitBreaker"),
        "repro.serve.client": ("ServeClient", "ServeError"),
        "repro.serve.fleet": ("WorkerSupervisor",),
        "repro.serve.health": ("WorkerHealth",),
        "repro.serve.jobs": ("Job", "JobTable"),
        "repro.serve.metrics": ("ServeMetrics",),
        "repro.serve.protocol": ("BUSY_CLASS_CODES", "ERROR_CODES",
                                 "FrameDecoder", "MAX_FRAME_BYTES",
                                 "ProtocolError", "decode_payload",
                                 "encode_frame"),
        "repro.serve.queue": ("AdmissionQueue", "QueueFull"),
        "repro.serve.server": ("JobServer", "ServerThread"),
        "repro.serve.supervisor": ("WorkerLost", "WorkerProcess"),
        "repro.serve.workers": ("JobCancelled", "ThreadWorker"),
    },
    "repro.sim": {
        "repro.sim.config": ("SystemConfig", "make_prefetcher"),
        "repro.sim.system": ("System", "RunResult"),
        "repro.sim.cmp": ("CMPSystem",),
        "repro.sim.runner": ("ExperimentRunner", "RunRequest",
                             "default_jobs", "scaled"),
        "repro.sim.metrics": ("geomean", "normalize", "weighted_speedup"),
    },
    "repro.workloads": {
        "repro.workloads.builder": ("ProgramBuilder",),
        "repro.workloads.workload": ("Workload",),
        "repro.workloads.spec": ("BENCHMARKS", "PREFETCH_SENSITIVE",
                                 "SPEC_BENCHMARKS", "build_workload"),
        "repro.workloads.mixes": ("select_mixes",),
        "repro.workloads.synth": ("synthesize",),
    },
}


def test_package_exports_resolve():
    """Every package keeps its ``__all__``, and each exported name
    resolves to its defining module's object in a fresh interpreter."""
    _run_fresh("\n".join((
        "import importlib",
        "exports = %r" % (PACKAGE_EXPORTS,),
        "for package, modules in sorted(exports.items()):",
        "    pkg = importlib.import_module(package)",
        "    names = [n for ns in modules.values() for n in ns]",
        "    assert sorted(pkg.__all__) == sorted(names), package",
        "    assert set(names) <= set(dir(pkg)), package",
        "    for module, ns in modules.items():",
        "        for name in ns:",
        "            value = getattr(importlib.import_module(module), name)",
        "            assert getattr(pkg, name) is value, (package, name)",
        "    star = {}",
        "    exec('from %s import *' % package, star)",
        "    assert set(names) <= set(star), package",
    )))


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

"""End-to-end System assembly and RunResult contents."""

import inspect

import pytest

from repro.branch.tournament import TournamentPredictor
from repro.checkpoint import CheckpointError, Checkpointer
from repro.core.config import BFetchConfig
from repro.cpu.ooo import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sanitize import Sanitizer
from repro.sim import RunResult, System, SystemConfig
from repro.sim.config import PREFETCHER_NAMES, make_prefetcher
from repro.workloads import build_workload


def test_unknown_prefetcher_rejected():
    with pytest.raises(ValueError):
        SystemConfig(prefetcher="oracle9000")


@pytest.mark.parametrize("cls, field, value", [
    (HierarchyConfig, "l1d_assoc", True),
    (HierarchyConfig, "dram_cycles_per_transfer", False),
    (BFetchConfig, "brtc_entries", True),
    (SystemConfig, "width", True),
    (CoreConfig, "width", True),
    (CoreConfig, "block_bytes", True),
    (Checkpointer, "every", True),
    (Sanitizer, "interval", True),
    (Sanitizer, "interval", 0),
    (Sanitizer, "interval", -3),
    (Sanitizer, "interval", 2.5),
    (Sanitizer, "interval", "7"),
], ids=lambda arg: getattr(arg, "__name__", str(arg)))
def test_integer_knobs_reject_non_integers(cls, field, value, tmp_path):
    """``bool`` is an ``int`` subclass; no integer knob takes it, and the
    error names the class and the field."""
    args = (str(tmp_path / "run.ckpt.json"),) if cls is Checkpointer else ()
    with pytest.raises((ValueError, CheckpointError),
                       match=r"^%s\.%s " % (cls.__name__, field)):
        cls(*args, **{field: value})


def test_config_surface_is_the_known_one():
    """The machine's settable parameters, each set by a figure, an
    ablation, an example, the CLI or a behavioural test; every other
    Table I/II value is a module constant.  A new parameter must be
    added here on purpose, not land unnoticed."""
    surface = {
        SystemConfig: ["width", "bp_scale", "prefetcher", "hierarchy",
                       "bfetch", "branch_predictor", "frontend",
                       "iprefetcher"],
        HierarchyConfig: ["l1d_size", "l1d_assoc", "llc_size_per_core",
                          "llc_assoc", "dram_latency",
                          "dram_cycles_per_transfer", "block_bytes",
                          "mshr_entries", "llc_policy"],
        CoreConfig: ["width", "block_bytes", "frontend"],
        BFetchConfig: ["brtc_entries", "mht_entries",
                       "path_confidence_threshold", "use_filter",
                       "loop_prefetch", "pattern_prefetch", "arf_delay",
                       "instruction_prefetch", "filter_initial",
                       "filter_tables", "queue_capacity"],
        TournamentPredictor: ["scale"],
    }
    for cls, names in surface.items():
        assert list(inspect.signature(cls).parameters) == names, cls
    assert sum(len(names) for names in surface.values()) == 32


@pytest.mark.parametrize("name", PREFETCHER_NAMES)
def test_factory_builds_every_prefetcher(name):
    prefetcher = make_prefetcher(SystemConfig(prefetcher=name))
    assert prefetcher.storage_bits() >= 0


@pytest.mark.parametrize("name", ["sms", "stems"])
def test_spatial_prefetchers_take_the_line_size(name):
    """SMS and STeMS record and replay regions in the hierarchy's lines,
    as every other prefetcher steps in them: with 32-byte lines a
    pattern's second block lies 32 bytes past its trigger."""
    prefetcher = make_prefetcher(SystemConfig(
        prefetcher=name, hierarchy=HierarchyConfig(block_bytes=32)))
    assert prefetcher.block_bytes == 32
    # a generation touching its region's first two blocks ...
    prefetcher.on_load(0x200, 0x100000, hit=False, now=0)
    prefetcher.on_load(0x204, 0x100020, hit=False, now=1)
    prefetcher.on_l1d_eviction(0x100000, None)
    # ... replays the second when its trigger recurs in another region
    prefetcher.on_load(0x200, 0x200000, hit=False, now=2)
    assert [addr for addr, _meta in prefetcher.queue._queue] == [0x200020]


def test_run_result_contents():
    system = System(build_workload("gamess"), SystemConfig())
    result = system.run(10_000)
    data = result.as_dict()
    assert data["instructions"] >= 10_000
    assert data["cycles"] > 0
    assert 0 < data["ipc"] < 8
    assert data["workload"] == "gamess"
    assert data["prefetcher"] == "none"
    for key in ("l1d", "l2", "llc", "prefetch", "fetch_branch_hist"):
        assert key in data


def test_run_result_attribute_access():
    result = RunResult({"ipc": 1.5})
    assert result.ipc == 1.5
    with pytest.raises(AttributeError):
        result.nonexistent


def test_bfetch_result_extra_fields():
    system = System(build_workload("libquantum"),
                    SystemConfig(prefetcher="bfetch"))
    result = system.run(15_000)
    assert "mean_lookahead_depth" in result.data
    assert result.data["brtc_hit_rate"] >= 0


def test_systems_are_isolated():
    """Two systems over the same workload must not share memory state."""
    workload = build_workload("mcf")
    a = System(workload, SystemConfig())
    b = System(workload, SystemConfig())
    a.machine.memory[0xDEAD0] = 42
    assert b.machine.memory.get(0xDEAD0) != 42


def test_describe_matches_table2():
    rows = dict(SystemConfig().describe())
    assert "4-wide" in rows["CPU"]
    assert "192-entry ROB" in rows["CPU"]
    assert "64KB 8-way" in rows["L1I & L1D cache"]
    assert "256KB" in rows["L2 cache"]
    assert "2MB/core 16-way" in rows["Shared L3 cache"]
    assert rows["Branch path confidence threshold"] == "0.75"
    assert rows["Per-load filter threshold"] == "3"


def test_prefetcher_improves_memory_bound_benchmark():
    base = System(build_workload("libquantum"), SystemConfig())
    bf = System(build_workload("libquantum"), SystemConfig(prefetcher="bfetch"))
    base_result = base.run(40_000)
    bf_result = bf.run(40_000)
    assert bf_result.ipc > 1.5 * base_result.ipc


def test_perfect_dominates_on_memory_bound():
    base = System(build_workload("milc"), SystemConfig())
    oracle = System(build_workload("milc"), SystemConfig(prefetcher="perfect"))
    assert oracle.run(30_000).ipc > base.run(30_000).ipc


def test_compute_bound_benchmark_insensitive():
    base = System(build_workload("gamess"), SystemConfig())
    bf = System(build_workload("gamess"), SystemConfig(prefetcher="bfetch"))
    ratio = bf.run(30_000).ipc / base.run(30_000).ipc
    assert 0.95 < ratio < 1.1

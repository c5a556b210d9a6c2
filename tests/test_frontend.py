"""Decoupled front end: FTQ, predecode, I-prefetchers, byte-identity.

The headline guarantee of the front-end subsystem is the *off-mode
byte-identity* contract: with ``frontend="off"`` (the default) every
``RunResult`` payload is byte-for-byte identical to the tree before the
subsystem existed.  The golden digests pinned below were computed on
that pre-front-end tree and must never change; everything new hides
behind ``frontend="ftq"``.
"""

import hashlib
import json

import pytest

from repro.branch import BranchTargetBuffer
from repro.frontend import (
    FRONTEND_MODES,
    IPREFETCHER_NAMES,
    FetchTargetQueue,
    FrontendConfig,
    Predecoder,
    make_iprefetcher,
)
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.config import PREFETCHER_NAMES, SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from repro.workloads import build_workload
from repro.workloads.builder import ProgramBuilder


# ----------------------------------------------------------------------
# off-mode byte-identity (golden digests from the pre-front-end tree)

GOLDEN_SINGLE = \
    "01917baa960ddfab5b9ea995da3125b9fed155ea6a08d9a2036f2dfe325aff16"
GOLDEN_MIX = \
    "73f6a5c1f70208d3eeda5281b4afbb8a2c1bacf5a6a6972386a39613e25dfb1a"
GOLDEN_ALL_PREFETCHERS = \
    "ece484816c1690281dec5f4f8d6d3ac67cfe3a9cc388f590991f7abfb3521a7e"
# pinned when the trace-replay and batch engines were removed, on the
# tree that still had them: they cover the perceptron predictor and the
# CMP path for every prefetcher, as those engines' identity suites did
GOLDEN_ALL_PREFETCHERS_PERCEPTRON = \
    "a0c677b48587984eaffb5d7eed6874cf69821b374643fa4fdda345956033292f"
GOLDEN_MIX_ALL_PREFETCHERS = \
    "9b8761d1acfd20bf1ecfb9c03adfdc52851d794a5b45154dcac115b449878907"


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_off_mode_single_matches_pre_frontend_golden():
    result = ExperimentRunner(cache_dir=None).run_single(
        "mcf", "bfetch", 20_000)
    assert _digest(result.data) == GOLDEN_SINGLE


def test_off_mode_mix_matches_pre_frontend_golden():
    results = ExperimentRunner(cache_dir=None).run_mix(
        ["mcf", "libquantum"], "bfetch", 8_000)
    assert _digest([r.data for r in results]) == GOLDEN_MIX


def test_off_mode_all_prefetchers_match_pre_frontend_golden():
    """Every D-side prefetcher, single-core: no payload drifted."""
    runner = ExperimentRunner(cache_dir=None)
    combo = hashlib.sha256()
    for prefetcher in PREFETCHER_NAMES:
        data = runner.run_single("mcf", prefetcher, 6_000).data
        combo.update(json.dumps(data, sort_keys=True).encode())
    assert combo.hexdigest() == GOLDEN_ALL_PREFETCHERS


def test_off_mode_all_prefetchers_perceptron_match_golden():
    """The same sweep under the perceptron branch predictor."""
    runner = ExperimentRunner(cache_dir=None)
    combo = hashlib.sha256()
    for prefetcher in PREFETCHER_NAMES:
        config = SystemConfig(prefetcher=prefetcher,
                              branch_predictor="perceptron")
        data = runner.run_single("mcf", prefetcher, 6_000,
                                 config=config).data
        combo.update(json.dumps(data, sort_keys=True).encode())
    assert combo.hexdigest() == GOLDEN_ALL_PREFETCHERS_PERCEPTRON


def test_off_mode_mix_all_prefetchers_match_golden():
    """Every D-side prefetcher on the 2-core shared-LLC CMP."""
    runner = ExperimentRunner(cache_dir=None)
    combo = hashlib.sha256()
    for prefetcher in PREFETCHER_NAMES:
        results = runner.run_mix(["mcf", "libquantum"], prefetcher, 6_000)
        combo.update(json.dumps([r.data for r in results],
                                sort_keys=True).encode())
    assert combo.hexdigest() == GOLDEN_MIX_ALL_PREFETCHERS


def test_off_mode_payload_has_no_frontend_keys():
    result = ExperimentRunner(cache_dir=None).run_single("mcf", "none", 5_000)
    for key in ("l1i", "frontend", "iprefetcher", "iprefetch"):
        assert key not in result.data


# ----------------------------------------------------------------------
# cache-key identity

def test_off_mode_cache_key_is_unchanged():
    """frontend="off" must not grow the cache key -- cached results from
    the pre-front-end tree stay addressable."""
    off = SystemConfig(prefetcher="bfetch")
    assert len(off.key()) == len(SystemConfig(prefetcher="stride").key())
    ftq = SystemConfig(prefetcher="bfetch", frontend="ftq",
                       iprefetcher="fdip")
    assert len(ftq.key()) > len(off.key())
    assert ftq.key()[:len(off.key())] == off.key()


def test_frontend_configs_get_distinct_keys():
    base = SystemConfig(frontend="ftq", iprefetcher="fdip")
    other = SystemConfig(frontend="ftq", iprefetcher="bfetch-i")
    tuned = SystemConfig(frontend="ftq", iprefetcher="fdip",
                         frontend_cfg=FrontendConfig(ftq_entries=16))
    assert len({base.key(), other.key(), tuned.key()}) == 3


def test_iprefetcher_requires_frontend():
    with pytest.raises(ValueError):
        SystemConfig(iprefetcher="fdip")
    with pytest.raises(ValueError):
        SystemConfig(frontend="warp")
    with pytest.raises(ValueError):
        SystemConfig(frontend="ftq", iprefetcher="stride")


# ----------------------------------------------------------------------
# FTQ mechanics

def test_ftq_bounded_fifo():
    ftq = FetchTargetQueue(entries=3)
    assert ftq.pop() is None
    assert ftq.push(0x1000) and ftq.push(0x1040) and ftq.push(0x1080)
    assert ftq.full() and not ftq.push(0x10c0)
    assert [ftq.pop() for _ in range(3)] == [0x1000, 0x1040, 0x1080]
    assert ftq.pop() is None


def test_ftq_pending_window_skips_and_marks():
    ftq = FetchTargetQueue(entries=8)
    for addr in (0x0, 0x40, 0x80, 0xc0, 0x100):
        ftq.push(addr)
    window = ftq.pending(skip=1, limit=2)
    assert [entry[0] for entry in window] == [0x40, 0x80]
    for entry in window:
        entry[1] = True
    # issued entries are not handed out again
    again = ftq.pending(skip=1, limit=2)
    assert [entry[0] for entry in again] == [0xc0, 0x100]


def test_ftq_snapshot_round_trip():
    ftq = FetchTargetQueue(entries=4)
    ftq.push(0x1000)
    ftq.push(0x1040)
    ftq.pending(0, 1)[0][1] = True
    state = json.loads(json.dumps(ftq.snapshot()))
    other = FetchTargetQueue(entries=4)
    other.restore(state)
    assert other.snapshot() == ftq.snapshot()


def test_ftq_rejects_bad_capacity():
    for bad in (0, -1, 1.5, "8"):
        with pytest.raises(ValueError):
            FetchTargetQueue(entries=bad)


# ----------------------------------------------------------------------
# predecode / shadow branches

def _branchy_program():
    """16 instructions (one 64B block): entry branch at index 0, a
    shadow conditional at 4, a shadow BR at 8, a JR at 12."""
    b = ProgramBuilder("shadowy")
    b.label("top")
    b.bnez(1, "side")        # 0: block entry point
    b.nop(); b.nop(); b.nop()
    b.bnez(2, "top")         # 4: shadow conditional
    b.nop(); b.nop(); b.nop()
    b.label("side")
    b.br("top")              # 8: shadow unconditional
    b.nop(); b.nop(); b.nop()
    b.jr(3)                  # 12: indirect -- never shadow-installed
    b.nop(); b.nop(); b.nop()
    b.halt()                 # 16: lands in the next block
    return b.build()


def test_predecoder_installs_only_shadow_direct_branches():
    program = _branchy_program()
    btb = BranchTargetBuffer(entries=64)
    pre = Predecoder(program, btb, block_bytes=64)
    entry = program.pc_of(0)
    pre.on_fill(entry, entry_pc=entry)
    # the entry-point branch is NOT a shadow branch
    assert btb.peek(entry) is None
    # direct shadow branches got their static taken targets
    assert btb.peek(program.pc_of(4)) == program.pc_of(0)
    assert btb.peek(program.pc_of(8)) == program.pc_of(0)
    # the indirect JR has no static target to install
    assert btb.peek(program.pc_of(12)) is None
    assert pre.shadow_fills == 2 and pre.blocks == 1


def test_predecoder_scans_each_block_once():
    program = _branchy_program()
    pre = Predecoder(program, BranchTargetBuffer(entries=64), block_bytes=64)
    pre.on_fill(program.pc_of(0))
    fills = pre.shadow_fills
    pre.on_fill(program.pc_of(2))  # same 64B block
    assert pre.blocks == 1 and pre.shadow_fills == fills


def test_predecoder_credits_walker_shadow_hits():
    program = _branchy_program()
    pre = Predecoder(program, BranchTargetBuffer(entries=64), block_bytes=64)
    pre.on_fill(program.pc_of(0), entry_pc=program.pc_of(0))
    shadow_pc = program.pc_of(4)
    pre.note_hit(shadow_pc)
    pre.note_hit(shadow_pc)  # only the first discovery counts
    assert pre.shadow_hits == 1


def test_predecoder_branch_kind_classification():
    program = _branchy_program()
    pre = Predecoder(program, BranchTargetBuffer(entries=64), block_bytes=64)
    assert pre.branch_kind(program.pc_of(4)) == "c"
    assert pre.branch_kind(program.pc_of(8)) == "u"
    assert pre.branch_kind(program.pc_of(12)) == "u"
    assert pre.branch_kind(program.pc_of(1)) is None
    assert pre.branch_kind(program.pc_of(0) - 4) is None


def test_predecoder_snapshot_round_trip():
    program = _branchy_program()
    pre = Predecoder(program, BranchTargetBuffer(entries=64), block_bytes=64)
    pre.on_fill(program.pc_of(0), entry_pc=program.pc_of(0))
    state = json.loads(json.dumps(pre.snapshot()))
    other = Predecoder(program, BranchTargetBuffer(entries=64),
                       block_bytes=64)
    other.restore(state)
    assert other.snapshot() == pre.snapshot()


def test_predecoder_rejects_non_power_of_two_blocks():
    with pytest.raises(ValueError):
        Predecoder(_branchy_program(), BranchTargetBuffer(), block_bytes=48)


# ----------------------------------------------------------------------
# I-prefetcher family

def test_iprefetcher_catalog_is_complete():
    assert IPREFETCHER_NAMES == (
        "none", "nextline-i", "fdip", "bfetch-i", "combined")
    assert FRONTEND_MODES == ("off", "ftq")
    for name in IPREFETCHER_NAMES:
        pf = make_iprefetcher(name, FrontendConfig())
        assert pf is not None


def test_make_iprefetcher_rejects_unknown():
    with pytest.raises(ValueError):
        make_iprefetcher("ghost", FrontendConfig())


# ----------------------------------------------------------------------
# end-to-end: ftq mode runs, reports, and stays deterministic

def _ftq_config(iprefetcher="fdip", **overrides):
    return SystemConfig(prefetcher="none", frontend="ftq",
                        iprefetcher=iprefetcher, **overrides)


@pytest.mark.parametrize("iprefetcher", IPREFETCHER_NAMES)
def test_ftq_mode_runs_and_reports(iprefetcher):
    system = System(build_workload("nginx"), _ftq_config(iprefetcher))
    result = system.run(8_000)
    data = result.data
    assert data["iprefetcher"] == iprefetcher
    frontend = data["frontend"]
    assert frontend["ftq_enqueued"] > 0
    assert frontend["demand_fetches"] > 0
    assert data["l1i"]["accesses"] > 0
    dump = system.stats.dump()
    assert dump["core.ftq.enqueued"] == frontend["ftq_enqueued"]
    assert "core.ftq.mean_occupancy" in dump
    assert dump["core.predecode.shadow_fills"] == frontend["shadow_fills"]
    assert "pf.ifetch.%s.issued" % iprefetcher in dump
    assert "pf.ifetch.%s.coverage" % iprefetcher in dump


def test_ftq_mode_is_deterministic():
    def run():
        return System(build_workload("postgres"),
                      _ftq_config("combined")).run(10_000).as_dict()
    first, second = run(), run()
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


def test_fdip_beats_no_iprefetch_on_server_code():
    base = System(build_workload("nginx"), _ftq_config("none")).run(12_000)
    fdip = System(build_workload("nginx"), _ftq_config("fdip")).run(12_000)
    assert fdip.data["l1i"]["misses"] < base.data["l1i"]["misses"]
    assert fdip.data["ipc"] > base.data["ipc"]


def test_shadow_fills_happen_on_server_code():
    result = System(build_workload("nginx"), _ftq_config("fdip")).run(12_000)
    frontend = result.data["frontend"]
    assert frontend["shadow_fills"] > 0
    assert frontend["shadow_hits"] > 0


def test_ftq_mode_snapshot_round_trip():
    system = System(build_workload("nginx"), _ftq_config("combined"))
    system.run(6_000)
    state = json.loads(json.dumps(system.snapshot()))
    fresh = System(build_workload("nginx"), _ftq_config("combined"))
    fresh.restore(state)
    assert fresh.snapshot() == system.snapshot()


# ----------------------------------------------------------------------
# fetch-block geometry: everything derives from block_bytes

def test_32_byte_lines_run_end_to_end():
    """Satellite: fetch stepping, FTQ blocks and the L1-I all follow
    HierarchyConfig.block_bytes -- a 32B-line system must work."""
    config = SystemConfig(
        prefetcher="none", frontend="ftq", iprefetcher="fdip",
        hierarchy=HierarchyConfig(block_bytes=32))
    result = System(build_workload("nginx"), config).run(8_000)
    assert result.data["l1i"]["accesses"] > 0
    assert result.data["frontend"]["ftq_enqueued"] > 0
    # trace-visible FTQ blocks must be 32B aligned
    system = System(build_workload("nginx"), config)
    system.run(2_000)
    for addr, _issued in system.core.frontend.ftq.snapshot():
        assert addr % 32 == 0


def test_geometry_mismatch_is_rejected():
    from repro.cpu.ooo import CoreConfig
    config = SystemConfig(frontend="ftq", iprefetcher="none",
                          core=CoreConfig(block_bytes=64, frontend="ftq"),
                          hierarchy=HierarchyConfig(block_bytes=32))
    with pytest.raises(ValueError):
        System(build_workload("nginx"), config)

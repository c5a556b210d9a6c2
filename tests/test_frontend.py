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
# frontend="ftq" payloads, pinned on the tree whose BPU walker still
# probed every instruction slot of a fetch block: the three server
# workloads under every I-prefetcher
GOLDEN_FTQ_SERVERS = \
    "9a0629f989d06a9958dd0d7d1603d30e80408ba33760cd8d83e3c856459b0ca5"
SERVER_BENCHMARKS = ("nginx", "postgres", "verilator")


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


def test_ftq_mode_servers_all_iprefetchers_match_golden():
    """Every I-prefetcher on every server workload, front end on."""
    combo = hashlib.sha256()
    for benchmark in SERVER_BENCHMARKS:
        for iprefetcher in IPREFETCHER_NAMES:
            config = SystemConfig(prefetcher="none", frontend="ftq",
                                  iprefetcher=iprefetcher)
            data = System(build_workload(benchmark), config).run(6_000).data
            combo.update(json.dumps(data, sort_keys=True).encode())
    assert combo.hexdigest() == GOLDEN_FTQ_SERVERS


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
    keys = {SystemConfig(frontend="ftq", iprefetcher=name).key()
            for name in IPREFETCHER_NAMES}
    keys.add(SystemConfig().key())
    assert len(keys) == len(IPREFETCHER_NAMES) + 1


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
# BPU walker: branch-to-branch walk against the slot-by-slot scan

def reference_walk_next(frontend, pc):
    """The walker step as it was before the static branch index: probe
    every instruction slot of the fetch block from *pc* on, through the
    front end's own predecoder, BTB and predictor."""
    predecoder = frontend.predecoder
    branch_kind = predecoder.branch_kind
    peek = frontend.btb.peek
    predict = frontend.predictor.predict
    block_end = (pc | (frontend.block_bytes - 1)) + 1
    last_pc = frontend._last_pc
    p = pc
    while p < block_end:
        if p > last_pc:
            return None  # ran past the program image
        kind = branch_kind(p)
        if kind is not None:
            target = peek(p)
            if target is not None:
                predecoder.note_hit(p)
                if kind == "u" or predict(p):
                    return target
        p += 4
    return block_end if block_end <= last_pc else None


def _assert_walks_agree(walked, reference, pcs, logs=None):
    """Step both front ends from every PC in *pcs*; the walks must agree
    on the next PC and on the shadow-hit credit, and (given *logs*) on
    every BTB and predictor probe, in order."""
    for pc in pcs:
        got = walked._walk_next(pc)
        expected = reference_walk_next(reference, pc)
        assert got == expected, "pc 0x%x: %r != %r" % (pc, got, expected)
        assert walked.predecoder.shadow_hits == \
            reference.predecoder.shadow_hits, "pc 0x%x" % pc
        assert walked.predecoder._shadow == reference.predecoder._shadow
        if logs is not None:
            assert logs[0] == logs[1], "pc 0x%x" % pc


def test_walker_matches_slot_scan_on_warm_server_front_end():
    """Every PC of nginx's image (and one block past it) on a warmed
    front end whose BTB holds executed and shadow-filled branches."""
    config = SystemConfig(prefetcher="none", frontend="ftq",
                          iprefetcher="fdip")
    system = System(build_workload("nginx"), config)
    system.run(6_000)
    copy = System(build_workload("nginx"), config)
    copy.restore(json.loads(json.dumps(system.snapshot())))
    walked, reference = system.core.frontend, copy.core.frontend
    program = walked.predecoder.program
    shadow = walked.predecoder._shadow
    visible = {instr.pc for instr in program.instrs
               if walked.btb.peek(instr.pc) is not None}
    assert visible & shadow and visible - shadow
    hits = walked.predecoder.shadow_hits
    pcs = range(program.pc_of(0), program.pc_of(len(program)) + 64, 4)
    _assert_walks_agree(walked, reference, pcs)
    assert walked.predecoder.shadow_hits > hits


class _RecordingBTB(BranchTargetBuffer):
    def __init__(self, log):
        super().__init__(entries=64)
        self.log = log

    def peek(self, pc):
        self.log.append(("peek", pc))
        return super().peek(pc)


class _StubPredictor:
    """Direction predictor answering from a fixed taken-PC set."""

    def __init__(self, log, taken):
        self.log = log
        self.taken = taken
        self.history = 0

    def predict(self, pc):
        self.log.append(("predict", pc))
        return pc in self.taken


def _walk_fixture_program(base_pc=0x1000):
    """20 instructions, 64B blocks: at the default base block 0 is
    full, block 1 (16-19) is partial, so walks from it run off the end
    of the image."""
    b = ProgramBuilder("walk-fixture")
    b.label("top")
    b.nop()                  # 0
    b.bnez(1, "mid")         # 1: conditional, shadow-filled
    b.nop()                  # 2
    b.beqz(2, "top")         # 3: conditional, shadow-filled
    b.nop()                  # 4
    b.jr(3)                  # 5: indirect, BTB-trained at "execution"
    b.nop(); b.nop()         # 6-7
    b.br("tail")             # 8: unconditional, shadow-filled
    b.label("mid")
    for _ in range(7):
        b.nop()              # 9-15
    b.label("tail")
    b.nop()                  # 16: block 1 starts
    b.bnez(4, "top")         # 17: BTB-invisible (never filled or run)
    b.beqz(5, "mid")         # 18: conditional, BTB-trained
    b.halt()                 # 19: the last instruction
    return b.build(base_pc=base_pc)


def _walk_fixture_front_end(program, log, taken):
    from repro.frontend import DecoupledFrontEnd
    from repro.memory.hierarchy import MemoryHierarchy
    btb = _RecordingBTB(log)
    front_end = DecoupledFrontEnd(
        MemoryHierarchy(HierarchyConfig()), _StubPredictor(log, taken),
        btb, program, make_iprefetcher("none"))
    # shadow fills, as predecoding their blocks would install them
    # (a fill of a whole block would also expose the branch at 17)
    for index in (1, 3, 8):
        pc = program.pc_of(index)
        btb.update(pc, program.pc_of(program[index].target))
        front_end.predecoder._shadow.add(pc)
    btb.update(program.pc_of(5), program.pc_of(9))   # the JR's last target
    btb.update(program.pc_of(18), program.pc_of(9))  # an executed branch
    del log[:]
    return front_end


# image bases: on a block boundary; mid-block, so the last instruction
# opens a block of its own; and off 4-byte alignment, so the BR at 8
# straddles a block boundary
@pytest.mark.parametrize("base_pc", [0x1000, 0x1034, 0x101e])
@pytest.mark.parametrize("taken", ["none", "all", "some"])
def test_walker_matches_slot_scan_on_hand_built_program(taken, base_pc):
    """Entries mid-block, an invisible branch, predicted-not-taken
    conditionals, a JR, a partial last block and PCs past the end."""
    program = _walk_fixture_program(base_pc)
    taken_pcs = {
        "none": set(),
        "all": {program.pc_of(index) for index in range(len(program))},
        "some": {program.pc_of(3), program.pc_of(18)},
    }[taken]
    logs = ([], [])
    walked = _walk_fixture_front_end(program, logs[0], taken_pcs)
    reference = _walk_fixture_front_end(program, logs[1], taken_pcs)
    # from just below the image to one block past its last instruction
    pcs = range(program.pc_of(0) - 8, program.pc_of(len(program)) + 64, 4)
    _assert_walks_agree(walked, reference, pcs, logs)


def test_walker_exits_on_hand_built_program():
    """The walk's exits, one by one, with a never-taken predictor."""
    program = _walk_fixture_program()
    log = []
    front_end = _walk_fixture_front_end(program, log, set())
    pc_of = program.pc_of
    # from 0: BTB-visible conditionals at 1 and 3 are predicted not
    # taken, the visible JR at 5 redirects to its last target
    assert front_end._walk_next(pc_of(0)) == pc_of(9)
    assert [entry for entry in log if entry[0] == "predict"] == [
        ("predict", pc_of(1)), ("predict", pc_of(3))]
    # mid-block entry past the JR: the BR at 8 is taken
    assert front_end._walk_next(pc_of(6)) == pc_of(16)
    # no branch left in the block: fall into the next block
    assert front_end._walk_next(pc_of(9)) == pc_of(16)
    # the invisible branch at 17 is skipped, 18 is predicted not taken
    # and the partial last block runs off the image
    del log[:]
    assert front_end._walk_next(pc_of(16)) is None
    assert log == [("peek", pc_of(17)), ("peek", pc_of(18)),
                   ("predict", pc_of(18))]
    # past the end of the image
    assert front_end._walk_next(pc_of(20)) is None
    assert front_end._walk_next(pc_of(19) + 64) is None


# ----------------------------------------------------------------------
# I-prefetcher family

def test_iprefetcher_catalog_is_complete():
    assert IPREFETCHER_NAMES == (
        "none", "nextline-i", "fdip", "bfetch-i", "combined")
    assert FRONTEND_MODES == ("off", "ftq")
    for name in IPREFETCHER_NAMES:
        pf = make_iprefetcher(name)
        assert pf is not None


def test_make_iprefetcher_rejects_unknown():
    with pytest.raises(ValueError):
        make_iprefetcher("ghost")


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


def test_ftq_mode_restore_keeps_the_front_end_queues_live():
    """The front end reads the FTQ and I-side queue deques it bound at
    construction; a restore must refill those deques, not replace them."""
    system = System(build_workload("nginx"), _ftq_config("combined"))
    system.run(6_000)
    state = json.loads(json.dumps(system.snapshot()))
    fresh = System(build_workload("nginx"), _ftq_config("combined"))
    frontend = fresh.core.frontend
    fresh.restore(state)
    assert frontend._ftq_queue is frontend.ftq._queue
    assert frontend._iq_queue is frontend.iprefetcher.queue._queue
    assert [list(entry) for entry in frontend._ftq_queue] == \
        state["frontend"]["ftq"]


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

"""B-Fetch engine behaviour on small hand-written kernels, and the
lookahead walk checked against a method-per-block reference on real
workloads."""

import copy
import hashlib
import json
from collections import OrderedDict, deque

import pytest

from repro.core import BFetchConfig, BFetchPrefetcher, bb_hash
from repro.core.config import MAX_LOOKAHEAD
from repro.core.mht import OFFSET_LIMIT
from repro.isa import assemble
from repro.obs import Tracer
from repro.obs.trace import parse_trace_spec
from repro.sim import System, SystemConfig
from repro.workloads import Workload, build_workload


def run_system(text, prefetcher="bfetch", instructions=20_000, memory=None,
               bfetch=None):
    workload = Workload("unit", assemble(text), memory or {})
    config = SystemConfig(prefetcher=prefetcher, bfetch=bfetch)
    system = System(workload, config)
    system.core.run(instructions)
    return system


STREAM = """
        li   r8, 0x100000
outer:  li   r16, 200
loop:   load r1, 0(r8)
        add  r4, r4, r1
        addi r8, r8, 64
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_stream_learns_offset_and_loopdelta():
    system = run_system(STREAM)
    pf = system.prefetcher
    slots = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 8
    ]
    assert slots, "MHT never learned the stream's base register"
    assert any(slot.loopdelta == 64 for slot in slots)


def test_stream_brtc_links_loop_branch_to_itself():
    system = run_system(STREAM)
    pf = system.prefetcher
    program = system.workload.program
    bnez_pc = program.pc_of(program.labels["loop"] + 4)
    loop_pc = program.pc_of(program.labels["loop"])
    h = bb_hash(bnez_pc, True, loop_pc)
    step = pf.brtc.lookup(h, bnez_pc & 0xFFFFFFFF)
    assert step is not None
    end_pc, taken_target = step
    assert end_pc == bnez_pc and taken_target == loop_pc


def test_stream_prefetches_are_useful():
    system = run_system(STREAM)
    pf = system.prefetcher
    assert pf.stats.issued > 100
    # demanded = useful + late now that the outcome counters are disjoint
    assert pf.stats.useful + pf.stats.late > 0.8 * pf.stats.issued
    assert pf.walks > 0
    assert pf.mean_lookahead_depth > 2


def test_stream_speedup_over_baseline():
    base = run_system(STREAM, prefetcher="none")
    bf = run_system(STREAM)
    assert bf.core.ipc > 1.5 * base.core.ipc


PATTERN = """
        li   r8, 0x200000
outer:  li   r16, 150
loop:   load r1, 0(r8)
        load r2, 64(r8)
        load r3, 128(r8)
        add  r4, r4, r1
        addi r8, r8, 512
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_same_register_block_pattern_learned():
    system = run_system(PATTERN)
    pf = system.prefetcher
    slots = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 8 and slot.pospatt
    ]
    assert slots
    # loads at +64 and +128 from the primary: pattern bits 0 and 1
    assert slots[0].pospatt & 0b11 == 0b11


def test_pattern_prefetch_can_be_disabled():
    cfg = BFetchConfig(pattern_prefetch=False)
    system = run_system(PATTERN, bfetch=cfg)
    pf = system.prefetcher
    for entry in pf.mht.table:
        if entry is None:
            continue
        for slot in entry.slots:
            assert slot.pospatt == 0 and slot.negpatt == 0


def test_filter_disabled_issues_more_candidates():
    gated = run_system(STREAM)
    open_cfg = BFetchConfig(use_filter=False)
    ungated = run_system(STREAM, bfetch=open_cfg)
    assert ungated.prefetcher.filtered == 0
    assert gated.prefetcher.candidates > 0


def test_unrepresentable_offset_invalidates_slot():
    """A load further from its base register's value at the leading
    branch than the signed Offset field holds cannot be covered: its
    MHT slot is invalidated."""
    program = assemble("""
top:    bnez r1, top
        load r2, 0(r8)
        halt
""")
    branch, load = program[0], program[1]
    regs = [0] * 32   # r8 reads 0 in the ARF, so the offset is the EA
    pf = BFetchPrefetcher()

    def train(ea, now):
        pf.on_commit(branch, None, False, branch.pc + 4, regs, now)
        pf.on_commit(load, ea, False, None, regs, now + 1)
        entry = pf.mht.lookup(bb_hash(branch.pc, False, branch.pc + 4),
                              branch.pc & 0xFFFFFFFF)
        return entry.slot_for(8, allocate=False)

    slot = train(OFFSET_LIMIT, 0)
    assert slot.valid and slot.offset == OFFSET_LIMIT
    slot = train(OFFSET_LIMIT + 1, 10)
    assert not slot.valid and slot.stable == 0


def test_lookahead_requires_attach():
    pf = BFetchPrefetcher()
    with pytest.raises(RuntimeError):
        pf.on_branch_decode(0x1000, True, 0x2000, 0)


HASHY = """
        li   r8, 0x900000
outer:  li   r16, 300
loop:   li   r2, 1103515245
        mul  r20, r20, r2
        addi r20, r20, 12345
        srli r1, r20, 8
        andi r1, r1, 0x7ff8
        add  r12, r8, r1
        load r3, 0(r12)
        add  r4, r4, r3
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_unstable_offsets_never_become_candidates():
    """A load whose address is hash-computed bears no stable relation to
    any register at the branch; the offset-stability hysteresis must keep
    it out of the prefetch stream (this is what keeps B-Fetch quiet on
    gamess/sjeng-class code)."""
    system = run_system(HASHY, instructions=30_000)
    pf = system.prefetcher
    unstable = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.regidx == 12
    ]
    assert unstable, "the hash-computed load never trained"
    assert all(slot.stable == 0 for slot in unstable)
    assert pf.stats.useless < 20


def test_stable_offsets_reconfirm_and_issue():
    system = run_system(STREAM)
    pf = system.prefetcher
    slots = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 8
    ]
    assert any(slot.stable >= 2 for slot in slots)


BRANCHY = """
        li   r9, 0x300000
        li   r12, 0x400000
outer:  li   r16, 100
loop:   load r5, 0(r9)
        bnez r5, big
        addi r12, r12, 64
        br   join
big:    addi r12, r12, 320
join:   load r1, 0(r12)
        add  r4, r4, r1
        addi r9, r9, 8
        subi r16, r16, 1
        bnez r16, loop
        li   r12, 0x400000
        br   outer
        halt
"""


def test_branchy_offsets_stable_per_direction():
    memory = {}
    for i in range(100):
        memory[0x300000 + i * 8] = 1 if i % 5 else 0
    system = run_system(BRANCHY, memory=memory)
    pf = system.prefetcher
    offsets = {
        slot.offset
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 12
    }
    assert offsets, "walk register never learned"
    # at least one path-specific offset was learned and prefetches flowed
    assert pf.stats.issued > 0


def test_storage_bits_scale_with_config():
    small = BFetchPrefetcher(BFetchConfig.sized(64)).storage_bits()
    default = BFetchPrefetcher(BFetchConfig()).storage_bits()
    big = BFetchPrefetcher(BFetchConfig.sized(512)).storage_bits()
    assert small < default < big


# ----------------------------------------------------------------------
# walk oracle: the lookahead walk as one method call per block

_MASK64 = (1 << 64) - 1


class ReferenceWalk(BFetchPrefetcher):
    """The lookahead walk written one method call per block.

    Every step probes the tables through ``BranchTraceCache.lookup`` and
    ``MemoryHistoryTable.lookup``, reads the path through
    ``predict``/``probability``, and issues each hit block through
    :meth:`_prefetch_block` -> ``PerLoadFilter.allow`` ->
    ``Prefetcher.push``.  The engine computes the same walk out of
    precomputed flat data; this class is the specification it is
    checked against (it runs on a clone of the engine's state, see
    :func:`_clone_for_walk`).
    """

    def on_branch_decode(self, pc, pred_taken, target, now):
        cfg = self.config
        self.arf.sync(now)
        self.walks += 1
        threshold = cfg.path_confidence_threshold
        predict = self.predictor.predict
        probability = self.confidence.probability
        spec_history = self.predictor.history
        path_value = probability(pc, spec_history)
        if path_value < threshold:
            self.depth_hist[0] += 1
            return
        if pred_taken:
            if target is None:
                self.depth_hist[0] += 1
                return  # indirect branch without a known target
            next_pc = target
        else:
            next_pc = pc + 4
        state_hash = bb_hash(pc, pred_taken, next_pc)
        state_tag = pc & 0xFFFFFFFF
        spec_history = (spec_history << 1) | (1 if pred_taken else 0)
        visits = {}
        depth = 0
        entry_pc = next_pc
        while depth < MAX_LOOKAHEAD:
            depth += 1
            revisit = visits.get(state_hash, 0)
            visits[state_hash] = revisit + 1
            entry = self.mht.lookup(state_hash, state_tag)
            if entry is not None:
                self._prefetch_block(entry, revisit)
            step = self.brtc.lookup(state_hash, state_tag)
            if step is None:
                break
            end_pc, end_taken_target = step
            if cfg.instruction_prefetch and end_pc >= entry_pc:
                self._prefetch_instr_range(entry_pc, end_pc)
            direction = predict(end_pc, spec_history)
            path_value *= probability(end_pc, spec_history)
            if path_value < threshold:
                break
            if direction:
                if end_taken_target is None:
                    break
                next_pc = end_taken_target
            else:
                next_pc = end_pc + 4
            state_hash = bb_hash(end_pc, direction, next_pc)
            state_tag = end_pc & 0xFFFFFFFF
            spec_history = (spec_history << 1) | (1 if direction else 0)
            entry_pc = next_pc
        self.total_depth += depth
        self.depth_hist[depth] += 1

    def _prefetch_block(self, entry, revisit):
        """Stages 2+3 for one MHT hit: every valid, stable slot is a
        candidate; the filter gates it, then its address and its pattern
        blocks are pushed."""
        cfg = self.config
        block_bytes = self.block_bytes
        for slot in entry.slots:
            if not slot.valid or not slot.stable:
                continue
            self.candidates += 1
            load_hash = slot.load_hash
            if cfg.use_filter and not self.filter.allow(load_hash):
                self.filtered += 1
                continue
            ea = self.arf.values[slot.regidx] + slot.offset
            if cfg.loop_prefetch and revisit:
                ea += revisit * slot.loopdelta
            ea &= _MASK64
            self.push(ea, load_hash)
            if not cfg.pattern_prefetch:
                continue
            block = ea & ~(block_bytes - 1)
            pattern = slot.pospatt
            step = 1
            while pattern:
                if pattern & 1:
                    self.push(block + step * block_bytes, load_hash)
                pattern >>= 1
                step += 1
            pattern = slot.negpatt
            step = 1
            while pattern:
                if pattern & 1:
                    self.push((block - step * block_bytes) & _MASK64,
                              load_hash)
                pattern >>= 1
                step += 1


def _clone_for_walk(engine):
    """A :class:`ReferenceWalk` over *engine*'s current state.  The tables
    a walk only reads (BrTC, MHT, filter counters, predictor) are shared;
    everything a walk writes is copied."""
    ref = object.__new__(ReferenceWalk)
    ref.__dict__.update(engine.__dict__)
    ref.brtc = copy.copy(engine.brtc)
    ref.mht = copy.copy(engine.mht)
    ref.filter = copy.copy(engine.filter)
    ref.arf = copy.copy(engine.arf)
    ref.arf.values = list(engine.arf.values)
    ref.arf.seq = list(engine.arf.seq)
    ref.arf._pending = list(engine.arf._pending)
    ref.stats = copy.copy(engine.stats)
    ref.queue = copy.copy(engine.queue)
    ref.queue._queue = deque(engine.queue._queue)
    ref._recent = OrderedDict(engine._recent)
    ref.depth_hist = list(engine.depth_hist)
    ref._trace_bfetch = None
    return ref


def _walk_state(pf):
    """Everything one walk may change."""
    filt = pf.filter
    return {
        "queue": list(pf.queue._queue),
        "queue_drops": pf.queue.drops,
        "recent": list(pf._recent),
        "stats": pf.stats.as_dict(),
        "filter": (filt.passed, filt.blocked, filt.probes,
                   filt._since_probe),
        "candidates": pf.candidates,
        "filtered": pf.filtered,
        "walks": pf.walks,
        "total_depth": pf.total_depth,
        "depth_hist": list(pf.depth_hist),
        "brtc": (pf.brtc.lookups, pf.brtc.hits),
        "mht": (pf.mht.lookups, pf.mht.hits),
        "arf": (list(pf.arf.values), list(pf.arf.seq),
                list(pf.arf._pending)),
    }


WALK_BENCHMARKS = ("mcf", "sphinx", "libquantum", "sjeng")
WALK_CONFIGS = (
    ("default", {}),
    ("no-loop", {"loop_prefetch": False}),
    ("no-pattern", {"pattern_prefetch": False}),
    ("no-filter", {"use_filter": False}),
    ("bfetch-i", {"instruction_prefetch": True}),
    ("sized-64", None),
    # a filter that starts cold blocks every load but its probes, and
    # reads two tables; a short queue drops
    ("cold-filter", {"filter_initial": 0, "filter_tables": 2}),
    ("short-queue", {"queue_capacity": 1}),
)
WALK_PREDICTORS = ("tournament", "perceptron")


def _walk_config(overrides):
    if overrides is None:
        return BFetchConfig.sized(64)
    return BFetchConfig(**overrides)


def _bfetch_system(benchmark, overrides, predictor, tracer=None):
    config = SystemConfig(prefetcher="bfetch",
                          bfetch=_walk_config(overrides),
                          branch_predictor=predictor)
    return System(build_workload(benchmark), config, tracer=tracer)


@pytest.mark.parametrize("predictor", WALK_PREDICTORS)
@pytest.mark.parametrize("name,overrides", WALK_CONFIGS,
                         ids=[name for name, _ in WALK_CONFIGS])
def test_walk_matches_method_per_block_reference(name, overrides,
                                                 predictor):
    """Before every walk of a real run, the engine's state is cloned into
    the reference; both walk, and everything a walk changes must agree."""
    for benchmark in WALK_BENCHMARKS:
        system = _bfetch_system(benchmark, overrides, predictor)
        engine = system.prefetcher
        walk = system.core._pf_on_branch_decode
        checked = []

        def checked_walk(pc, pred_taken, target, now):
            reference = _clone_for_walk(engine)
            reference.on_branch_decode(pc, pred_taken, target, now)
            walk(pc, pred_taken, target, now)
            assert _walk_state(engine) == _walk_state(reference), \
                (benchmark, len(checked))
            checked.append(engine.total_depth)

        system.core._pf_on_branch_decode = checked_walk
        system.run(10_000)
        assert len(checked) > 500, benchmark
        assert engine.candidates > 0, benchmark


# ----------------------------------------------------------------------
# registry and trace goldens, pinned on the tree whose walk called one
# method per block (see ReferenceWalk).  The run payload does not carry
# the walk counters, the depth histogram or the filter's counts; the
# registry dump does.  System.run keeps REPRO_SCALE out of them.

GOLDEN_BFETCH_REGISTRY = \
    "163aa0c5ea39fe73d8da70524990e3b392a2c60121907e746b2e54c9b87bb589"
GOLDEN_BFETCH_TRACE = \
    "df16b352e41ac1d1b02c84939cbe5e65f2ee483b7fa6072fa779f55932dac569"


def test_bfetch_registry_matches_golden():
    combo = hashlib.sha256()
    for predictor in WALK_PREDICTORS:
        for _, overrides in WALK_CONFIGS:
            for benchmark in WALK_BENCHMARKS:
                system = _bfetch_system(benchmark, overrides, predictor)
                system.run(10_000)
                combo.update(json.dumps(system.stats.as_dict(),
                                        sort_keys=True).encode())
    assert combo.hexdigest() == GOLDEN_BFETCH_REGISTRY


def test_bfetch_trace_matches_golden():
    """Walk events carry depth, end_pc and path_conf; prefetch events
    every issued block."""
    tracer = Tracer(parse_trace_spec("bfetch,prefetch"))
    _bfetch_system("libquantum", {}, "tournament", tracer=tracer).run(10_000)
    text = tracer.to_jsonl()
    assert '"ev": "walk"' in text and '"cat": "prefetch"' in text
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_BFETCH_TRACE

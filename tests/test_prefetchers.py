"""Baseline prefetchers: base class, next-n, stride, SMS, perfect, tango."""

import pytest

from repro.isa import Instr, Op, Program
from repro.memory import HierarchyConfig, MemoryHierarchy
from repro.prefetchers import (
    NextNPrefetcher,
    PerfectPrefetcher,
    Prefetcher,
    SMSPrefetcher,
    StridePrefetcher,
    TangoPrefetcher,
)
from repro.prefetchers.sms import AGT_ENTRIES, REGION_BYTES


def drain_addrs(prefetcher):
    out = []
    while True:
        request = prefetcher.queue.pop()
        if request is None:
            return out
        out.append(request[0])


class TestBase:
    def test_noop_hooks(self):
        p = Prefetcher()
        p.on_load(0, 0, True, 0)
        p.on_branch_decode(0, True, 0, 0)
        assert len(p.queue) == 0

    def test_push_dedups_recent_blocks(self):
        p = Prefetcher()
        p.push(0x1000)
        p.push(0x1008)  # same block
        assert len(p.queue) == 1
        assert p.stats.duplicate == 1

    def test_drain_issues_and_counts_duplicates(self):
        p = Prefetcher()
        h = MemoryHierarchy(HierarchyConfig())
        p.push(0x1000)
        p.drain(h, 0, 4)
        assert p.stats.issued == 1
        # push a different address in the same block is deduped at push;
        # force a queue-level duplicate by clearing the recent filter
        p._recent.clear()
        p.push(0x1000)
        p.drain(h, 0, 4)
        assert p.stats.duplicate >= 1

    def test_feedback_accounting_is_disjoint(self):
        p = Prefetcher()
        p.feedback(None, "useful")
        p.feedback(None, "late")
        p.feedback(None, "useless")
        # useful / late / useless are disjoint outcome counters
        assert p.stats.useful == 1
        assert p.stats.late == 1
        assert p.stats.useless == 1
        assert p.stats.resolved == 3
        # accuracy counts demanded (useful + late) over resolved
        assert p.stats.accuracy == pytest.approx(2 / 3)
        assert p.stats.timeliness == pytest.approx(1 / 2)


class TestNextN:
    def test_prefetches_sequential_blocks_on_miss(self):
        p = NextNPrefetcher(n=3)
        p.on_load(0x40, 0x1000, hit=False, now=0)
        assert drain_addrs(p) == [0x1040, 0x1080, 0x10C0]

    def test_no_action_on_hit(self):
        p = NextNPrefetcher(n=3)
        p.on_load(0x40, 0x1000, hit=True, now=0)
        assert len(p.queue) == 0


class TestStride:
    def test_learns_stride_and_bursts_on_miss(self):
        p = StridePrefetcher(entries=64, degree=4)
        base = 0x10000
        addrs = []
        for i in range(6):
            p.on_load(0x100, base + i * 256, hit=False, now=0)
            addrs.extend(drain_addrs(p))
        expected_front = base + 5 * 256 + 256
        assert expected_front in addrs

    def test_does_not_issue_on_hits(self):
        p = StridePrefetcher(entries=64, degree=4)
        for i in range(6):
            p.on_load(0x100, 0x10000 + i * 256, hit=True, now=0)
        assert len(p.queue) == 0

    def test_stride_break_stops_prefetching(self):
        p = StridePrefetcher(entries=64, degree=4)
        for i in range(5):
            p.on_load(0x100, 0x10000 + i * 256, hit=False, now=0)
        drain_addrs(p)
        p._recent.clear()
        p.on_load(0x100, 0x90000, hit=False, now=0)  # wild jump
        assert drain_addrs(p) == []

    def test_zero_stride_never_prefetches(self):
        p = StridePrefetcher(entries=64, degree=4)
        for _ in range(6):
            p.on_load(0x100, 0x10000, hit=False, now=0)
        assert drain_addrs(p) == []

    def test_storage_bits(self):
        assert StridePrefetcher(entries=256).storage_bits() == 256 * 80


class TestSMS:
    def test_pattern_learned_and_replayed(self):
        p = SMSPrefetcher()
        region = 0x100000  # 2KB-aligned
        # generation in region 0: touch blocks 0, 3, 7
        for offset_block in (0, 3, 7):
            p.on_load(0x200, region + offset_block * 64,
                      hit=offset_block != 0, now=0)
        # end the generation via an L1 eviction of a region block
        p.on_l1d_eviction(region, None)
        # same trigger PC+offset in a new region replays blocks 3 and 7
        new_region = 0x200000
        p.on_load(0x200, new_region, hit=False, now=0)
        addrs = drain_addrs(p)
        assert new_region + 3 * 64 in addrs
        assert new_region + 7 * 64 in addrs
        assert new_region not in addrs  # trigger block excluded

    def test_no_replay_without_matching_trigger(self):
        p = SMSPrefetcher()
        region = 0x100000
        p.on_load(0x200, region, hit=False, now=0)
        p.on_l1d_eviction(region, None)
        # different trigger offset -> different PHT key
        p.on_load(0x200, 0x200000 + 5 * 64, hit=False, now=0)
        assert drain_addrs(p) == []

    def test_agt_capacity_commits_victims(self):
        p = SMSPrefetcher()
        for i in range(AGT_ENTRIES + 5):
            # vary the trigger offset so displaced generations land in
            # distinct PHT slots
            addr = 0x100000 + i * REGION_BYTES + (i % 7) * 64
            p.on_load(0x300, addr, hit=False, now=0)
        assert len(p.agt) <= AGT_ENTRIES
        assert len(p.pht) >= 5

    def test_stores_train_too(self):
        p = SMSPrefetcher()
        p.on_store(0x400, 0x100000, hit=False, now=0)
        assert len(p.agt) == 1


class TestPerfect:
    def test_marker(self):
        assert PerfectPrefetcher().is_perfect
        assert not SMSPrefetcher().is_perfect


class TestTango:
    def test_branch_directed_ea_history_prefetch(self):
        p = TangoPrefetcher()
        program = Program(
            [
                Instr(Op.BNEZ, ra=1, target=2),   # 0: branch
                Instr(Op.NOP),                    # 1
                Instr(Op.LOAD, rd=2, ra=3, imm=0),  # 2: load in target BB
                Instr(Op.HALT),                   # 3
            ]
        )
        branch, load = program[0], program[2]
        regs = [0] * 32
        # two training rounds establish last EA + delta
        p.on_commit(branch, None, True, program.pc_of(2), regs, 0)
        p.on_commit(load, 0x5000, False, program.pc_of(3), regs, 0)
        p.on_commit(branch, None, True, program.pc_of(2), regs, 0)
        p.on_commit(load, 0x5100, False, program.pc_of(3), regs, 0)
        # decode-time: predicted taken to the same target
        p.on_branch_decode(branch.pc, True, program.pc_of(2), 0)
        addrs = drain_addrs(p)
        assert addrs == [0x5200]  # last EA + learned delta

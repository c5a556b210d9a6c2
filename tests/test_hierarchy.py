"""Memory hierarchy: stacked latencies, MSHRs, prefetch semantics, DRAM."""

import pytest

from repro.memory import DramModel, HierarchyConfig, MemoryHierarchy
from repro.memory.hierarchy import L1_LATENCY, L2_LATENCY, LLC_LATENCY


def make(**kwargs):
    return MemoryHierarchy(HierarchyConfig(**kwargs))


def test_latency_stack_cold_then_warm():
    h = make()
    cfg = h.config
    latency, hit = h.load(0x10000, now=0)
    assert not hit
    assert latency >= L1_LATENCY + L2_LATENCY + LLC_LATENCY + \
        cfg.dram_latency
    latency, hit = h.load(0x10000, now=1000)
    assert hit and latency == L1_LATENCY


def test_l2_hit_latency():
    h = make()
    h.l2.fill(0x20000)
    latency, hit = h.load(0x20000, now=0)
    assert not hit
    assert latency == L1_LATENCY + L2_LATENCY


def test_llc_hit_latency():
    h = make()
    h.llc.fill(0x30000)
    latency, hit = h.load(0x30000, now=0)
    assert latency == L1_LATENCY + L2_LATENCY + LLC_LATENCY
    # fill path installed it into L2 as well
    assert h.l2.contains(0x30000)


def test_mshr_limit_serialises_demand_misses():
    h = make(mshr_entries=2, dram_latency=100, dram_cycles_per_transfer=0)
    latencies = [h.load(0x100000 + i * 64, now=0)[0] for i in range(4)]
    # first two fit in MSHRs; the next two wait for a free slot
    assert latencies[0] < latencies[2]
    assert latencies[1] < latencies[3]


def test_prefetch_fills_with_future_ready_time():
    h = make()
    assert h.prefetch(0x40000, now=0, meta=7)
    line = h.l1d.lookup(0x40000)
    assert line.prefetched and line.meta == 7 and line.ready > 0


def test_prefetch_duplicate_rejected():
    h = make()
    assert h.prefetch(0x40000, now=0)
    assert not h.prefetch(0x40000, now=1)


def test_late_prefetch_partially_hides_latency():
    h = make()
    h.prefetch(0x50000, now=0)
    line = h.l1d.lookup(0x50000)
    ready = line.ready
    latency, hit = h.load(0x50000, now=ready - 10)
    assert hit
    assert latency == 10 + L1_LATENCY
    assert h.l1d.stats.late_hits == 1


def test_timely_prefetch_is_l1_hit():
    h = make()
    h.prefetch(0x60000, now=0)
    ready = h.l1d.lookup(0x60000).ready
    latency, hit = h.load(0x60000, now=ready + 5)
    assert hit and latency == L1_LATENCY
    assert h.l1d.stats.prefetch_useful == 1


def test_feedback_outcomes():
    outcomes = []
    h = make()
    h.pf_feedback = lambda meta, outcome: outcomes.append((meta, outcome))
    h.prefetch(0x70000, now=0, meta=1)
    ready = h.l1d.lookup(0x70000).ready
    h.load(0x70000, now=ready + 1)
    assert outcomes == [(1, "useful")]
    h.prefetch(0x70040, now=0, meta=2)
    h.load(0x70040, now=1)
    assert outcomes[-1] == (2, "late")


def test_useless_feedback_on_eviction():
    outcomes = []
    h = make(l1d_size=2 * 64, l1d_assoc=2)
    h.pf_feedback = lambda meta, outcome: outcomes.append((meta, outcome))
    h.prefetch(0, now=0, meta=9)
    h.load(64, now=0)
    h.load(128, now=0)
    assert (9, "useless") in outcomes


def test_oracle_access_does_not_touch_dram():
    h = make()
    before = h.dram.accesses
    for i in range(10):
        h.access_oracle(0x80000 + i * 64, now=0)
    assert h.dram.accesses == before
    assert h.l1d.contains(0x80000)


def test_ifetch_uses_l1i():
    h = make()
    first = h.ifetch(0x1000, now=0)
    second = h.ifetch(0x1000, now=100)
    assert first > second == L1_LATENCY


def test_store_allocates():
    h = make()
    h.store(0x90000, now=0)
    assert h.l1d.contains(0x90000)


def test_store_marks_dirty_and_eviction_counts_writeback():
    h = make(l1d_size=2 * 64, l1d_assoc=2)
    h.store(0, now=0)
    assert h.l1d.lookup(0).dirty
    h.load(64, now=0)
    h.load(128, now=0)  # evicts the dirty line
    assert h.l1d.stats.writebacks == 1


def test_clean_evictions_are_not_writebacks():
    h = make(l1d_size=2 * 64, l1d_assoc=2)
    for block in (0, 64, 128):
        h.load(block, now=0)
    assert h.l1d.stats.writebacks == 0


class TestDram:
    def test_serialises_transfers(self):
        dram = DramModel(latency=100, cycles_per_transfer=5)
        l1 = dram.access(0)
        l2 = dram.access(0)
        assert l1 == 100
        assert l2 == 105  # waits for the channel

    def test_reset(self):
        dram = DramModel()
        dram.access(0)
        dram.reset()
        assert dram.accesses == 0 and dram.next_free == 0

    def test_demand_priority_over_prefetch_backlog(self):
        """A demand transfer waits at most one transfer slot behind a
        pile of queued prefetches."""
        dram = DramModel(latency=100, cycles_per_transfer=5)
        for _ in range(10):
            dram.access(0, demand=False)  # 50 cycles of prefetch backlog
        latency = dram.access(0, demand=True)
        assert latency <= 100 + 5

    def test_prefetch_queues_behind_everything(self):
        dram = DramModel(latency=100, cycles_per_transfer=5)
        dram.access(0, demand=True)
        latency = dram.access(0, demand=False)
        assert latency == 105

    def test_demand_transfers_serialise_with_each_other(self):
        dram = DramModel(latency=100, cycles_per_transfer=5)
        first = dram.access(0, demand=True)
        second = dram.access(0, demand=True)
        assert second == first + 5

    def test_prefetch_counter(self):
        dram = DramModel()
        dram.access(0, demand=False)
        dram.access(0, demand=True)
        assert dram.prefetch_accesses == 1
        assert dram.accesses == 2


def test_shared_llc_between_hierarchies():
    cfg = HierarchyConfig()
    llc = cfg.make_llc(2)
    dram = cfg.make_dram()
    h1 = MemoryHierarchy(cfg, llc=llc, dram=dram)
    h2 = MemoryHierarchy(cfg, llc=llc, dram=dram)
    h1.load(0xA0000, now=0)
    # the second core's miss now hits in the shared LLC
    latency, hit = h2.load(0xA0000, now=1000)
    assert not hit
    assert latency == L1_LATENCY + L2_LATENCY + LLC_LATENCY

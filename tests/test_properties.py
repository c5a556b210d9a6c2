"""Property-based tests on core structures' invariants."""

from hypothesis import given, settings, strategies as st

from repro.branch import PathConfidence
from repro.core import (
    AlternateRegisterFile,
    BranchTraceCache,
    MemoryHistoryTable,
    PerLoadFilter,
    bb_hash,
)
from repro.memory import Cache
from repro.prefetchers import SMSPrefetcher
from repro.prefetchers.sms import AGT_ENTRIES


@given(st.lists(st.tuples(st.integers(0, 1023), st.booleans()), max_size=300))
@settings(max_examples=30, deadline=None)
def test_filter_counters_always_bounded(updates):
    f = PerLoadFilter()
    for load_hash, useful in updates:
        f.update(load_hash, useful)
        assert 0 <= f.confidence(load_hash) <= 3 * f.max_count
    for table in f.tables:
        assert all(0 <= c <= f.max_count for c in table)


@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 2**32),
                          st.integers(0, 1000)), max_size=200))
@settings(max_examples=30, deadline=None)
def test_arf_reflects_youngest_applied_write(writes):
    arf = AlternateRegisterFile()
    expected = {}
    for seq, (reg, value, ready) in enumerate(writes):
        arf.write(reg, value, seq, ready)
        current = expected.get(reg)
        if current is None or seq > current[0]:
            expected[reg] = (seq, value)
    arf.sync(10_000)
    for reg, (_, value) in expected.items():
        assert arf.read(reg) == value


_ARF_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 31), st.integers(0, 2**32),
              st.integers(0, 300)),
    st.tuples(st.just("sync"), st.integers(0, 320)),
), max_size=200)


@given(_ARF_OPS, st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_arf_syncs_at_non_monotonic_times(ops, delay):
    """Writes interleaved with syncs whose times go back and forth, as
    the engine makes them: a committed branch syncs at its completion
    time, and the next decoded branch's walk at an earlier cycle.  A
    write applies once some later sync reaches its visibility time, and
    of a register's applied writes the youngest wins."""
    arf = AlternateRegisterFile(delay=delay)
    writes = []  # [visible_at, seq, reg, value, applied]
    for op in ops:
        if op[0] == "write":
            _, reg, value, ready = op
            seq = len(writes)
            arf.write(reg, value, seq, ready)
            writes.append([ready + delay, seq, reg, value, False])
            continue
        now = op[1]
        arf.sync(now)
        values = [0] * 32
        seqs = [-1] * 32
        for write in writes:
            if write[0] <= now:
                write[4] = True
            _, seq, reg, value, applied = write
            if applied and seq > seqs[reg]:
                seqs[reg] = seq
                values[reg] = value
        assert arf.values == values
        assert arf.seq == seqs


@given(st.lists(st.tuples(st.integers(0, 2**20), st.booleans(),
                          st.integers(0, 2**20)), max_size=200))
@settings(max_examples=30, deadline=None)
def test_brtc_capacity_is_fixed(updates):
    brtc = BranchTraceCache(entries=64)
    for pc, taken, target in updates:
        h = bb_hash(pc, taken, target)
        brtc.update(h, pc & 0xFFFFFFFF, pc + 4, target)
    assert len(brtc.tags) == 64


@given(st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 31)),
                max_size=300))
@settings(max_examples=30, deadline=None)
def test_mht_slot_count_bounded(ops):
    mht = MemoryHistoryTable(entries=16, reg_slots=3)
    for h, reg in ops:
        entry = mht.get_or_allocate(h, h & 0xFFFF)
        entry.slot_for(reg, allocate=True)
    for entry in mht.table:
        if entry is not None:
            assert len(entry.slots) <= 3


@given(st.lists(st.floats(0.5, 1.0), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_path_confidence_monotonically_nonincreasing(probs):
    path = PathConfidence(threshold=0.5)
    previous = path.value
    for p in probs:
        path.extend(p)
        assert path.value <= previous + 1e-12
        previous = path.value


@given(st.lists(st.integers(0, 255), max_size=400))
@settings(max_examples=30, deadline=None)
def test_cache_occupancy_never_exceeds_capacity(blocks):
    cache = Cache("p", 8 * 64, 2, 64)  # 4 sets x 2 ways
    for block in blocks:
        cache.fill(block * 64)
        assert cache.occupancy() <= 8
        for cache_set in cache.sets:
            assert len(cache_set) <= 2


@given(st.lists(st.tuples(st.integers(0, 2**12), st.integers(0, 2**22),
                          st.booleans()), max_size=300))
@settings(max_examples=20, deadline=None)
def test_sms_agt_bounded_and_patterns_well_formed(accesses):
    p = SMSPrefetcher()
    for pc, addr, hit in accesses:
        p.on_load(pc, addr, hit, 0)
        assert len(p.agt) <= AGT_ENTRIES
    mask = (1 << p.blocks_per_region) - 1
    for generation in p.agt.values():
        assert generation.pattern & ~mask == 0
    for tag, pattern in p.pht.values():
        assert pattern & ~mask == 0

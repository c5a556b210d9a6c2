"""Set-associative cache."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.memory import Cache


def make(size=4096, assoc=4, block=64, listeners=None):
    return Cache("test", size, assoc, block, eviction_listeners=listeners)


def test_miss_then_hit():
    cache = make()
    assert cache.access(0x1000) is None
    cache.fill(0x1000)
    assert cache.access(0x1000) is not None
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_block_granularity():
    cache = make()
    cache.fill(0x1000)
    assert cache.access(0x103F) is not None  # same 64B block
    assert cache.access(0x1040) is None      # next block


def test_lru_eviction_order():
    cache = make(size=4 * 64, assoc=4, block=64)  # one set of 4 ways
    addrs = [i * 64 for i in range(4)]
    for addr in addrs:
        cache.fill(addr)
    cache.access(addrs[0])  # refresh way 0
    cache.fill(4 * 64)      # evicts LRU = addrs[1]
    assert cache.contains(addrs[0])
    assert not cache.contains(addrs[1])


def test_fill_refreshes_existing_line_without_eviction():
    cache = make(size=4 * 64, assoc=4)
    for i in range(4):
        cache.fill(i * 64)
    evicted = cache.fill(0)  # already resident
    assert evicted is None
    assert cache.occupancy() == 4


def test_eviction_listener_invoked_with_address_and_line():
    events = []
    cache = make(size=2 * 64, assoc=2,
                 listeners=[lambda addr, line: events.append((addr, line))])
    cache.fill(0, prefetched=True, meta=0x2A)
    cache.fill(64)
    cache.fill(128)
    assert len(events) == 1
    addr, line = events[0]
    assert addr == 0
    assert line.prefetched and line.meta == 0x2A


def test_useless_prefetch_counted_on_eviction():
    cache = make(size=2 * 64, assoc=2)
    cache.fill(0, prefetched=True)
    cache.fill(64)
    cache.fill(128)  # evicts the unused prefetch
    assert cache.stats.prefetch_useless == 1


def test_used_prefetch_not_counted_useless():
    cache = make(size=2 * 64, assoc=2)
    cache.fill(0, prefetched=True)
    line = cache.access(0)
    line.used = True
    cache.fill(64)
    cache.fill(128)
    assert cache.stats.prefetch_useless == 0


def test_invalidate():
    cache = make()
    cache.fill(0x1000)
    cache.invalidate(0x1000)
    assert not cache.contains(0x1000)


def test_flush():
    cache = make()
    for i in range(10):
        cache.fill(i * 64)
    cache.flush()
    assert cache.occupancy() == 0


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache("bad", 1000, 4, 64)
    with pytest.raises(ValueError):
        Cache("bad", 4096, 4, 60)


def test_ready_time_carried_on_prefetch_fill():
    cache = make()
    cache.fill(0x2000, now=10, prefetched=True, ready=50)
    line = cache.lookup(0x2000)
    assert line.ready == 50


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 31)), max_size=200))
@settings(max_examples=40, deadline=None)
def test_matches_reference_lru_model(ops):
    """The cache must behave exactly like a per-set LRU reference model."""
    cache = make(size=4 * 64 * 2, assoc=4, block=64)  # 2 sets, 4 ways
    reference = {0: [], 1: []}  # set index -> MRU-last list of blocks
    for is_fill, block in ops:
        addr = block * 64
        set_index = block & 1
        lru = reference[set_index]
        if is_fill:
            cache.fill(addr)
            if block in lru:
                lru.remove(block)
                lru.append(block)
            else:
                if len(lru) == 4:
                    lru.pop(0)
                lru.append(block)
        else:
            hit = cache.access(addr) is not None
            assert hit == (block in lru)
            if hit:
                lru.remove(block)
                lru.append(block)
    for set_index, lru in reference.items():
        for block in lru:
            assert cache.contains(block * 64)


@pytest.mark.parametrize("args, field", [
    ((4096, 0), "assoc"),
    ((4096, 4, 0), "block_bytes"),
    ((0, 4), "size_bytes"),
    ((-4096, 4), "size_bytes"),
    ((4096.0, 4), "size_bytes"),
    ((4096, True), "assoc"),
    ((4096, 4, True), "block_bytes"),
])
def test_geometry_fails_fast_naming_the_parameter(args, field):
    with pytest.raises(ValueError, match=field):
        Cache("bad", *args)


# ----------------------------------------------------------------------
# the recency-ordered default path against its oracles

_BLOCKS = st.integers(0, 15)  # 2 sets x 4 ways: plenty of evictions


def _make_logged(policy):
    """A 2-set, 4-way cache that logs each eviction's
    ``(addr, prefetched, meta)``."""
    log = []

    def listener(addr, line):
        log.append((addr, line.prefetched, line.meta))

    cache = Cache("t", 2 * 4 * 64, 4, 64, eviction_listeners=[listener],
                  policy=policy)
    return cache, log


def _line_fields(line):
    if line is None:
        return None
    return (line.prefetched, line.meta, line.used, line.ready, line.dirty)


def _apply(cache, op, block, step):
    """One operation; returns what the caller can observe."""
    addr = block * 64
    if op == "access":
        line = cache.access(addr)
        if line is not None and line.prefetched:
            line.used = True  # as the hierarchy marks a demanded prefetch
        return _line_fields(line)
    if op == "fill":
        return _line_fields(cache.fill(addr))
    if op == "prefetch":
        return _line_fields(cache.fill(addr, step, prefetched=True,
                                       meta=("pc", step), ready=step + 9))
    if op == "lookup":
        return _line_fields(cache.lookup(addr))
    cache.invalidate(addr)
    return None


_OPS = st.lists(
    st.tuples(st.sampled_from(
        ["access", "fill", "prefetch", "lookup", "invalidate"]), _BLOCKS),
    max_size=150,
)


@given(_OPS)
@settings(max_examples=60, deadline=None)
def test_recency_sets_match_the_lru_policy_oracle(ops):
    """The default path's key order is its recency: after every step it
    must agree with the tick-stamped :class:`LRUPolicy` cache on
    residency, the order of recency, evictions and statistics."""
    from repro.memory.replacement import LRUPolicy

    fast, fast_log = _make_logged(None)
    oracle, oracle_log = _make_logged(LRUPolicy())
    for step, (op, block) in enumerate(ops):
        assert (_apply(fast, op, block, step)
                == _apply(oracle, op, block, step))
        for fast_set, oracle_set in zip(fast.sets, oracle.sets):
            by_stamp = sorted(oracle_set, key=lambda b: oracle_set[b].lru)
            assert list(fast_set) == by_stamp
        assert fast_log == oracle_log
        assert fast.stats.as_dict() == oracle.stats.as_dict()
    assert fast._tick == 0  # the default path stamps nothing


def _cache_state(cache):
    return ([[(block, _line_fields(line)) for block, line in s.items()]
             for s in cache.sets], cache._tick, cache.stats.as_dict())


_PREFIX = st.lists(
    st.tuples(st.sampled_from(["access", "fill", "prefetch"]), _BLOCKS),
    max_size=40,
)


@pytest.mark.parametrize("policy", [None, "lru", "srrip", "pacman",
                                    "random"])
@given(prefix=_PREFIX, block=_BLOCKS)
@example(prefix=[], block=0)                                 # empty set
@example(prefix=[("fill", 0), ("fill", 2)], block=2)         # hit
@example(prefix=[("fill", 0), ("fill", 2)], block=4)         # not full
@example(prefix=[("fill", b) for b in (0, 2, 4, 6)], block=4)  # full, hit
@example(prefix=[("prefetch", 0)] + [("fill", b) for b in (2, 4, 6)],
         block=8)                                # full: evicts a prefetch
@settings(max_examples=40, deadline=None)
def test_probe_allocate_equals_access_then_fill(policy, prefix, block):
    """On two caches built alike, one ``probe_allocate`` must leave the
    same state, evictions and statistics as ``access`` followed, on a
    miss, by ``fill``."""
    from repro.memory.replacement import make_policy

    def build():
        cache, log = _make_logged(
            None if policy is None else make_policy(policy))
        for step, (op, b) in enumerate(prefix):
            _apply(cache, op, b, step)
        return cache, log

    probed, probed_log = build()
    reference, reference_log = build()
    hit = probed.probe_allocate(block * 64)
    reference_hit = reference.access(block * 64) is not None
    if not reference_hit:
        reference.fill(block * 64)
    assert hit == reference_hit
    assert _cache_state(probed) == _cache_state(reference)
    assert probed_log == reference_log


def test_probe_allocate_files_the_shared_clean_line():
    cache = make()
    cache.probe_allocate(0x1000)
    cache.probe_allocate(0x2000)
    first, second = cache.lookup(0x1000), cache.lookup(0x2000)
    assert first is second
    assert _line_fields(first) == (False, None, False, 0, False)

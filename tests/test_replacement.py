"""Cache replacement policies."""

import pytest

from repro.memory import Cache, make_policy
from repro.memory.replacement import (
    LRUPolicy,
    PACManPolicy,
    RandomPolicy,
    SRRIPPolicy,
)


def make_cache(policy):
    return Cache("t", 4 * 64, 4, 64, policy=policy)  # one set of 4 ways


def test_factory():
    assert isinstance(make_policy("lru"), LRUPolicy)
    assert isinstance(make_policy("pacman"), PACManPolicy)
    with pytest.raises(ValueError):
        make_policy("belady")


def test_lru_policy_matches_inline_fast_path():
    explicit = make_cache(LRUPolicy())
    inline = make_cache(None)
    sequence = [0, 1, 2, 3, 0, 4, 1, 5, 2, 6]
    for cache in (explicit, inline):
        for block in sequence:
            if cache.access(block * 64, 0) is None:
                cache.fill(block * 64)
    for block in range(7):
        assert explicit.contains(block * 64) == inline.contains(block * 64)


def test_random_policy_deterministic_with_seed():
    def run():
        cache = make_cache(RandomPolicy(seed=7))
        for block in range(20):
            cache.fill(block * 64)
        return sorted(b for s in cache.sets for b in s)
    assert run() == run()


def test_srrip_protects_rereferenced_lines():
    cache = make_cache(SRRIPPolicy())
    for block in range(4):
        cache.fill(block * 64)
    cache.access(0, 0)  # promote block 0 to RRPV 0
    cache.fill(4 * 64)  # someone must go -- not block 0
    assert cache.contains(0)


def test_pacman_evicts_prefetches_before_demand_lines():
    cache = make_cache(PACManPolicy())
    cache.fill(0 * 64)                     # demand
    cache.fill(1 * 64, prefetched=True)    # distant insertion
    cache.fill(2 * 64)
    cache.fill(3 * 64)
    cache.fill(4 * 64)                     # one victim needed
    assert not cache.contains(1 * 64)      # the prefetch went first
    assert cache.contains(0)


def test_pacman_promoted_prefetch_survives():
    cache = make_cache(PACManPolicy())
    cache.fill(1 * 64, prefetched=True)
    cache.access(1 * 64, 0)  # demand touch promotes it
    for block in (2, 3, 4, 5):
        cache.fill(block * 64)
    assert cache.contains(1 * 64)


def test_llc_policy_flows_through_hierarchy_config():
    from repro.memory import HierarchyConfig
    llc = HierarchyConfig(llc_policy="pacman").make_llc(2)
    assert isinstance(llc.policy, PACManPolicy)
    assert HierarchyConfig().make_llc(1).policy is None  # inline LRU


@pytest.mark.parametrize("bad", ["LRU", "fifo", "", None, 3])
def test_unknown_llc_policy_fails_at_construction(bad):
    """A policy name the LLC cannot build is rejected when the config is
    made, naming the field and every choice, not inside each run."""
    from repro.memory import HierarchyConfig
    from repro.memory.replacement import POLICIES
    with pytest.raises(ValueError, match=r"HierarchyConfig\.llc_policy") \
            as info:
        HierarchyConfig(llc_policy=bad)
    for name in POLICIES:
        assert name in str(info.value)


def test_policy_occupancy_bounded():
    for name in ("lru", "random", "srrip", "pacman"):
        cache = make_cache(make_policy(name))
        for block in range(50):
            cache.fill(block * 64)
        assert cache.occupancy() == 4

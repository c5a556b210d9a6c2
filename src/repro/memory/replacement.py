"""Pluggable cache replacement policies.

The default :class:`~repro.memory.Cache` keeps each set in recency order
and evicts its first key; passing a policy object switches to one of:

* :class:`LRUPolicy` -- least recently used (the Table II baseline),
  with per-line tick stamps: the oracle the default path is tested
  against.
* :class:`RandomPolicy` -- seeded pseudo-random victim selection.
* :class:`SRRIPPolicy` -- static re-reference interval prediction
  (Jaleel et al.): 2-bit RRPVs, inserted "long", promoted on hit.
* :class:`PACManPolicy` -- prefetch-aware SRRIP in the spirit of PACMan
  (Wu et al., MICRO 2011 -- cited by the paper for the damage inaccurate
  prefetches do in shared caches): *prefetched* lines are inserted at
  distant re-reference, so useless prefetches are evicted first instead
  of displacing demand data.

Policies keep their per-line state in the line's ``lru`` field, whose
meaning is policy-defined (recency tick for LRU, RRPV for RRIP).
"""

import random


class ReplacementPolicy:
    """Interface: per-line state lives in ``line.lru``."""

    name = "abstract"
    STATE = ()  # checkpointed with its cache

    def on_fill(self, cache, line, prefetched):
        """Initialise the state of a newly inserted line."""
        raise NotImplementedError

    def on_hit(self, cache, line):
        """Update state when a resident line is demanded."""
        raise NotImplementedError

    def select_victim(self, cache, cache_set):
        """Return the block key of the line to evict from *cache_set*."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used by tick stamps: the oracle of the
    default recency-ordered sets, which must evict the same blocks."""

    name = "lru"

    def on_fill(self, cache, line, prefetched):
        cache._tick += 1
        line.lru = cache._tick

    def on_hit(self, cache, line):
        cache._tick += 1
        line.lru = cache._tick

    def select_victim(self, cache, cache_set):
        return min(cache_set, key=lambda b: cache_set[b].lru)


class RandomPolicy(ReplacementPolicy):
    """Seeded random replacement -- cheap hardware, noisier behaviour."""

    name = "random"
    STATE = ("_rng",)

    def __init__(self, seed=1):
        self._rng = random.Random(seed)

    def on_fill(self, cache, line, prefetched):
        line.lru = 0

    def on_hit(self, cache, line):
        pass

    def select_victim(self, cache, cache_set):
        keys = sorted(cache_set)
        return keys[self._rng.randrange(len(keys))]


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with 2-bit re-reference prediction values.

    Lines are inserted with RRPV ``max-1`` ("long re-reference"),
    promoted to 0 on a hit; the victim is any line at ``max``, aging the
    set when none is.
    """

    name = "srrip"

    def __init__(self, bits=2):
        self.max_rrpv = (1 << bits) - 1

    def _insert_rrpv(self, prefetched):
        return self.max_rrpv - 1

    def on_fill(self, cache, line, prefetched):
        line.lru = self._insert_rrpv(prefetched)

    def on_hit(self, cache, line):
        line.lru = 0

    def select_victim(self, cache, cache_set):
        while True:
            for block in sorted(cache_set):
                if cache_set[block].lru >= self.max_rrpv:
                    return block
            for line in cache_set.values():
                line.lru += 1


class PACManPolicy(SRRIPPolicy):
    """Prefetch-aware SRRIP: prefetch fills predicted distant.

    Useless prefetches then age out before demand-fetched data, which is
    the mechanism PACMan uses to contain "friendly fire" in shared LLCs.
    """

    name = "pacman"

    def _insert_rrpv(self, prefetched):
        return self.max_rrpv if prefetched else self.max_rrpv - 1


POLICIES = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "pacman": PACManPolicy,
}


def make_policy(name, **kwargs):
    """Instantiate a replacement policy by name ("lru", "random",
    "srrip", "pacman")."""
    try:
        return POLICIES[name](**kwargs)
    except KeyError:
        raise ValueError(
            "unknown replacement policy %r (choose from %s)"
            % (name, ", ".join(sorted(POLICIES)))
        )

"""Shared-LLC replacement policy under prefetching (extension).

The paper cites PACMan (Wu et al.) for the damage inaccurate prefetches
do in shared caches.  This extension runs a contended 2-app mix under
LRU vs prefetch-aware (PACMan) LLC insertion for SMS and B-Fetch.  An
accurate prefetcher should be near-indifferent to the policy; a wasteful
one benefits from having its prefetches inserted at distant re-reference.
"""

from conftest import MIX_BUDGET, SINGLE_BUDGET
from repro_common import mix_speedups

from repro.analysis import render_table
from repro.memory.hierarchy import HierarchyConfig
from repro.sim import SystemConfig

MIX = ("mcf", "libquantum")
POLICIES = ("lru", "pacman")
PREFETCHERS = ("sms", "bfetch")


def test_llc_policy_ablation(runner, archive, benchmark):
    def machine(prefetcher, policy):
        return SystemConfig(prefetcher=prefetcher,
                            hierarchy=HierarchyConfig(llc_policy=policy))

    def experiment():
        speedups = iter(mix_speedups(
            runner,
            [(MIX, prefetcher, machine(prefetcher, policy),
              machine("none", policy))
             for prefetcher in PREFETCHERS for policy in POLICIES],
            MIX_BUDGET, SINGLE_BUDGET,
        ))
        return [
            (prefetcher, {policy: next(speedups) for policy in POLICIES})
            for prefetcher in PREFETCHERS
        ]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive(
        "llc_policy",
        render_table(
            "LLC replacement under prefetching (mix: %s)" % "+".join(MIX),
            rows, list(POLICIES),
        ),
    )
    table = dict(rows)
    # both prefetchers keep their gains (within noise) under either policy
    for prefetcher in PREFETCHERS:
        for policy in POLICIES:
            assert table[prefetcher][policy] > 0.95
    # B-Fetch is accurate enough that prefetch-aware insertion moves it
    # only marginally
    bf = table["bfetch"]
    assert abs(bf["pacman"] - bf["lru"]) < 0.15 * bf["lru"]

"""Chip-multiprocessor simulation."""

import heapq

import pytest

from repro.isa import assemble
from repro.memory.hierarchy import HierarchyConfig
from repro.sanitize import Sanitizer
from repro.sim import CMPSystem, RunResult, SystemConfig
from repro.sim.cmp import _KEEP_RUNNING_FACTOR
from repro.workloads import Workload, build_workload


def make_cmp(names, prefetcher="none"):
    return CMPSystem([build_workload(n) for n in names],
                     SystemConfig(prefetcher=prefetcher))


def test_requires_workloads():
    with pytest.raises(ValueError):
        CMPSystem([])


def test_two_core_run_returns_per_core_results():
    cmp_system = make_cmp(["gamess", "libquantum"])
    results = cmp_system.run(8_000)
    assert len(results) == 2
    assert {r.workload for r in results} == {"gamess", "libquantum"}
    for result in results:
        assert result.instructions == 8_000
        assert result.cycles > 0


def test_llc_scales_with_core_count():
    two = make_cmp(["gamess", "gamess"])
    four = make_cmp(["gamess"] * 4)
    assert four.llc.size_bytes == 2 * two.llc.size_bytes


def test_shared_llc_contention_slows_memory_bound_app():
    solo_cfg = SystemConfig()
    from repro.sim import System
    solo = System(build_workload("milc"), solo_cfg)
    solo_result = solo.run(15_000)

    paired = make_cmp(["milc", "libquantum"])
    paired_results = paired.run(15_000)
    milc_multi = next(r for r in paired_results if r.workload == "milc")
    # sharing LLC + DRAM with a streaming app must not speed milc up
    assert milc_multi.ipc <= solo_result.ipc * 1.02


def test_fast_core_keeps_running_until_all_finish():
    cmp_system = make_cmp(["gamess", "milc"])
    results = cmp_system.run(10_000)
    fast = next(r for r in results if r.workload == "gamess")
    # the compute-bound core retired extra instructions while waiting
    assert fast.data["total_retired"] >= fast.instructions


def test_deterministic():
    a = make_cmp(["milc", "libquantum"]).run(8_000)
    b = make_cmp(["milc", "libquantum"]).run(8_000)
    assert [r.cycles for r in a] == [r.cycles for r in b]


def test_prefetching_helps_in_cmp():
    base = make_cmp(["libquantum", "sphinx"]).run(10_000)
    pf = make_cmp(["libquantum", "sphinx"], prefetcher="bfetch").run(10_000)
    assert sum(r.ipc for r in pf) > sum(r.ipc for r in base)


# ----------------------------------------------------------------------
# burst scheduler vs the one-step-per-pop reference


def reference_run(cmp_system, target):
    """The one-step-per-pop CMP driver the burst scheduler replaced: pop
    the earliest ``(time, index)``, step that core once, record its
    finish cycle at the step where it reaches *target*, push it back."""
    systems = cmp_system.systems
    finish_cycle = [None] * len(systems)
    remaining = len(systems)
    heap = []
    for index, system in enumerate(systems):
        system.core.start(target * _KEEP_RUNNING_FACTOR)
        heapq.heappush(heap, (0, index))
    while remaining:
        now, index = heapq.heappop(heap)
        core = systems[index].core
        next_time = core.step_cycle(now)
        if finish_cycle[index] is None and core.retired >= target:
            finish_cycle[index] = max(now, 1)
            remaining -= 1
            if remaining == 0:
                break
        heapq.heappush(heap, (next_time, index))
    results = []
    for index, system in enumerate(systems):
        core = system.core
        total_retired = core.retired
        core.cycle = finish_cycle[index]
        core.retired = min(core.retired, target)
        result = RunResult.from_core(core, system.workload.name,
                                     cmp_system.config.prefetcher)
        result.data["total_retired"] = total_retired
        results.append(result.as_dict())
    return results


def idle_counters(cmp_system):
    """Per-core idle-step counters, which RunResult does not carry."""
    return [(system.core.rob_full_stalls, system.core.flush_stall_cycles)
            for system in cmp_system.systems]


@pytest.mark.parametrize("prefetcher", ["none", "stride", "sms", "bfetch"])
@pytest.mark.parametrize("names", [
    ("mcf", "libquantum"),
    ("astar", "mcf", "soplex", "sphinx"),
])
def test_bursts_replay_the_reference_pops(names, prefetcher):
    reference = make_cmp(names, prefetcher)
    expected = reference_run(reference, 3_000)
    cmp_system = make_cmp(names, prefetcher)
    results = cmp_system.run(3_000)
    assert [result.as_dict() for result in results] == expected
    assert idle_counters(cmp_system) == idle_counters(reference)


def test_chunk_boundaries_inside_bursts_change_nothing():
    # a 7-cycle sanitizer cadence cuts most bursts mid-way
    names = ("milc", "libquantum")
    expected = reference_run(make_cmp(names, "bfetch"), 2_000)
    results = make_cmp(names, "bfetch").run(
        2_000, sanitizer=Sanitizer("cheap", interval=7))
    assert [result.as_dict() for result in results] == expected


SPIN = """
loop:   addi r1, r1, 1
        addi r2, r2, 1
        addi r3, r3, 1
        br   loop
        halt
"""

CHASE = """
        li   r1, 4096
loop:   load r1, 0(r1)
        br   loop
        halt
"""


def test_core_past_its_keep_running_budget_matches_the_reference():
    # the spinner retires 1000x the target while the other core's
    # pointer chase waits out 2000-cycle DRAM misses, so the spinner
    # reaches its keep-running budget and is stepped once per pop
    def make():
        nodes = [4096 + 0x10000 * k for k in range(32)]
        chase = Workload("chase", assemble(CHASE), {
            node: nodes[(k + 1) % len(nodes)]
            for k, node in enumerate(nodes)})
        spin = Workload("spin", assemble(SPIN), {})
        config = SystemConfig(hierarchy=HierarchyConfig(dram_latency=2000))
        return CMPSystem([spin, chase], config)

    reference = make()
    expected = reference_run(reference, 10)
    cmp_system = make()
    results = cmp_system.run(10)
    assert cmp_system.systems[0].core.done
    assert [result.as_dict() for result in results] == expected
    assert idle_counters(cmp_system) == idle_counters(reference)

"""Out-of-order timing core."""

import pytest

from repro.cpu.ooo import CoreConfig
from repro.isa import assemble
from repro.sim import RunResult, System, SystemConfig
from repro.workloads import Workload, build_workload


def build_system(text, memory=None, **config_kwargs):
    workload = Workload("unit", assemble(text), memory or {})
    return System(workload, SystemConfig(**config_kwargs))


COMPUTE = """
outer:  li   r16, 100
loop:   addi r1, r1, 1
        addi r2, r2, 1
        addi r3, r3, 1
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""

SERIAL = """
outer:  li   r16, 100
loop:   addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_ipc_bounded_by_width():
    system = build_system(COMPUTE, width=4)
    system.core.run(20_000)
    assert 0.5 < system.core.ipc <= 4.0


def test_wider_pipeline_is_faster_on_parallel_code():
    narrow = build_system(COMPUTE, width=2)
    wide = build_system(COMPUTE, width=8)
    narrow.core.run(20_000)
    wide.core.run(20_000)
    assert wide.core.ipc > narrow.core.ipc


def test_serial_chain_limits_ipc_regardless_of_width():
    system = build_system(SERIAL, width=8)
    system.core.run(20_000)
    # 3 serially dependent adds per 5 instructions: IPC caps near 5/3
    assert system.core.ipc < 2.2


def test_determinism():
    a = build_system(COMPUTE)
    b = build_system(COMPUTE)
    a.core.run(15_000)
    b.core.run(15_000)
    assert a.core.cycle == b.core.cycle
    assert a.core.retired == b.core.retired


MISPREDICT = """
        li   r9, 0x500000
outer:  li   r16, 200
loop:   load r5, 0(r9)
        bnez r5, skip
        addi r1, r1, 1
skip:   addi r9, r9, 8
        subi r16, r16, 1
        bnez r16, loop
        li   r9, 0x500000
        br   outer
        halt
"""


def test_unpredictable_branches_cost_cycles():
    import random
    rng = random.Random(3)
    noisy = {0x500000 + i * 8: rng.randrange(2) for i in range(200)}
    steady = {0x500000 + i * 8: 1 for i in range(200)}
    sys_noisy = build_system(MISPREDICT, memory=noisy)
    sys_steady = build_system(MISPREDICT, memory=steady)
    sys_noisy.core.run(20_000)
    sys_steady.core.run(20_000)
    assert sys_noisy.core.mispredict_rate > sys_steady.core.mispredict_rate
    assert sys_noisy.core.ipc < sys_steady.core.ipc


def test_memory_latency_limits_ipc():
    stream = """
        li   r8, 0x600000
outer:  li   r16, 100
loop:   load r1, 0(r8)
        addi r8, r8, 64
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""
    system = build_system(stream)
    system.core.run(20_000)
    assert system.core.ipc < 1.0
    assert system.hierarchy.dram.accesses > 100


def test_rob_size_matters_under_misses():
    stream = """
        li   r8, 0x700000
outer:  li   r16, 100
loop:   load r1, 0(r8)
        add  r2, r2, r1
        addi r8, r8, 64
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""
    small = build_system(stream, rob_entries=16)
    big = build_system(stream, rob_entries=192)
    small.core.run(20_000)
    big.core.run(20_000)
    assert big.core.ipc >= small.core.ipc


def test_fetch_branch_histogram_populated():
    system = build_system(COMPUTE)
    system.core.run(10_000)
    hist = system.core.fetch_branch_hist
    assert sum(hist[1:]) > 0
    # narrow loops: essentially never 3+ branches per fetch group
    branch_cycles = sum(hist[1:])
    assert (hist[1] + hist[2]) / branch_cycles > 0.99


def test_budget_respected():
    system = build_system(COMPUTE)
    cycles = system.core.run(5_000)
    assert system.core.retired >= 5_000
    assert system.core.retired <= 5_000 + 4  # at most one extra group
    assert cycles == system.core.cycle


@pytest.mark.parametrize("kwargs", [
    {"width": 0},
    {"rob_entries": -1},
    {"alu_latency": 1.5},
    {"redirect_penalty": -1},
    {"redirect_penalty": 2.5},
    {"redirect_penalty": None},
    {"block_bytes": 0},
    {"block_bytes": 48},
    {"block_bytes": 48.0},
    {"block_bytes": 64.0},
    {"frontend": "warp"},
])
def test_core_config_rejects_bad_fields(kwargs):
    field = next(iter(kwargs))
    with pytest.raises(ValueError, match="CoreConfig.%s" % field):
        CoreConfig(**kwargs)


def test_core_config_accepts_zero_redirect_penalty():
    assert CoreConfig(redirect_penalty=0, block_bytes=32).block_shift == 5


def _result_by_steps(system, instructions):
    """Drive the core one ``step_cycle`` at a time, as the reference."""
    core = system.core
    core.start(instructions)
    now = core.cycle
    while not core.done:
        now = core.step_cycle(now)
    core.cycle = now
    return RunResult.from_core(core, system.workload.name,
                               system.config.prefetcher).as_dict()


@pytest.mark.parametrize("prefetcher", ["none", "bfetch"])
def test_step_cycle_replays_run_with_frontend(prefetcher):
    config = SystemConfig(prefetcher=prefetcher, frontend="ftq",
                          iprefetcher="fdip")
    ran_system = System(build_workload("nginx"), config)
    ran = ran_system.run(6_000).as_dict()
    stepped_system = System(build_workload("nginx"), config)
    stepped = _result_by_steps(stepped_system, 6_000)
    assert stepped == ran
    assert ran["frontend"]["redirects"] > 0
    for field in ("rob_full_stalls", "flush_stall_cycles"):
        assert (getattr(stepped_system.core, field)
                == getattr(ran_system.core, field))


def test_run_until_retire_mark_stops_at_the_crossing_step():
    reference = build_system(COMPUTE)
    core = reference.core
    core.start(10_000)
    now = 0
    while core.retired < 1_000:
        step_time, now = now, core.step_cycle(now)
    system = build_system(COMPUTE)
    system.core.start(10_000)
    assert system.core.run_until(0, 10 ** 9, 1_000) == now
    assert system.core.mark_cycle == step_time
    assert system.core.retired == core.retired
    # without a mark it runs on to the stop cycle
    assert system.core.run_until(now, now + 50) >= now + 50
    assert system.core.mark_cycle == step_time

"""Synthetic workloads: construction, determinism, kernel semantics."""

import random

import pytest

from repro.cpu import Machine
from repro.isa import extract_basic_blocks
from repro.workloads import (
    BENCHMARKS,
    PREFETCH_SENSITIVE,
    SPEC_BENCHMARKS,
    build_workload,
)
from repro.workloads.builder import ProgramBuilder
from repro.workloads.patterns import (
    PERSISTENT_REGS,
    emit_stream,
    init_pointer_chain,
    init_predicates,
)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_all_benchmarks_build_and_validate(name):
    workload = build_workload(name)
    assert workload.program.validate()
    assert len(workload.program) > 20


@pytest.mark.parametrize("name", BENCHMARKS)
def test_all_benchmarks_run_functionally(name):
    workload = build_workload(name)
    machine = Machine(workload.program, dict(workload.memory))
    for _ in range(30_000):
        machine.step()
    assert machine.instret == 30_000


def test_benchmark_roster():
    # 18 SPEC stand-ins plus the three server-class front-end profiles
    assert len(BENCHMARKS) == 21
    servers = [name for name in BENCHMARKS
               if build_workload(name).profile.klass == "server"]
    assert servers == ["nginx", "postgres", "verilator"]


def test_spec_benchmarks_are_the_paper_grid():
    # the figure grids iterate these: the 18 SPEC stand-ins, no server
    assert len(SPEC_BENCHMARKS) == 18
    assert list(SPEC_BENCHMARKS) == sorted(SPEC_BENCHMARKS)
    assert set(SPEC_BENCHMARKS) < set(BENCHMARKS)
    assert not [name for name in SPEC_BENCHMARKS
                if build_workload(name).profile.klass == "server"]


def test_prefetch_sensitive_subset():
    assert set(PREFETCH_SENSITIVE) < set(BENCHMARKS)
    assert len(PREFETCH_SENSITIVE) == 14


def test_determinism_across_builds():
    import repro.workloads.spec as spec
    spec._CACHE.pop(("mcf", 0), None)
    a = build_workload("mcf")
    spec._CACHE.pop(("mcf", 0), None)
    b = build_workload("mcf")
    assert [repr(i) for i in a.program.instrs] == \
        [repr(i) for i in b.program.instrs]
    assert a.memory == b.memory


def test_workloads_are_memoised():
    assert build_workload("lbm") is build_workload("lbm")


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        build_workload("doom")


def test_programs_form_infinite_loops():
    """The outer loop must allow arbitrarily long runs (no halting)."""
    workload = build_workload("gamess")
    machine = Machine(workload.program, dict(workload.memory))
    for _ in range(50_000):
        machine.step()
    assert machine.restarts == 0


def test_pointer_chain_is_a_single_cycle():
    mem = {}
    rng = random.Random(9)
    head = init_pointer_chain(mem, rng, base=0x1000, nodes=64, spread=2)
    seen = set()
    node = head
    for _ in range(64):
        assert node not in seen
        seen.add(node)
        node = mem[node]
    assert node == head
    assert len(seen) == 64


def test_pointer_chain_spread_spaces_nodes():
    mem = {}
    head = init_pointer_chain(mem, random.Random(1), 0x1000, nodes=16,
                              node_bytes=64, spread=4)
    addrs = sorted(a for a in mem if a % 64 == 16 * 0 or True)
    node_addrs = sorted({a & ~63 for a in mem})
    deltas = {b - a for a, b in zip(node_addrs, node_addrs[1:])}
    assert deltas == {256}


def test_predicate_bias():
    mem = {}
    init_predicates(mem, random.Random(7), 0x0, 4000, bias=0.9)
    ones = sum(mem.values())
    assert 0.85 < ones / 4000 < 0.95


def test_persistent_stream_requires_registration():
    builder = ProgramBuilder("x")
    with pytest.raises(ValueError):
        emit_stream(builder, 0x1000, 10, pos_reg=PERSISTENT_REGS[0])


def test_persistent_stream_advances_across_laps():
    builder = ProgramBuilder("x")
    pro = []
    builder.label("outer")
    emit_stream(builder, 0x100000, elems=10, stride=64,
                pos_reg=PERSISTENT_REGS[0], size=1 << 20, prologue=pro)
    builder.br("outer")
    builder.halt()
    final = ProgramBuilder("x2")
    for reg, value in pro:
        final.li(reg, value)
    final.append_builder(builder)
    machine = Machine(final.build())
    # two laps of 10 elements each
    for _ in range(2 * (10 * 5 + 1) + 4 * 2):
        machine.step()
    assert machine.regs[PERSISTENT_REGS[0]] >= 0x100000 + 20 * 64


def test_region_spacing_avoids_aliasing():
    from repro.workloads.spec import _bases
    bases = _bases(5)
    assert len(set(b % (1 << 20) for b in bases)) == 5


def test_builder_rejects_duplicate_labels():
    builder = ProgramBuilder("x")
    builder.label("a")
    with pytest.raises(ValueError):
        builder.label("a")


def test_append_builder_offsets_labels():
    a = ProgramBuilder("a")
    a.nop()
    b = ProgramBuilder("b")
    b.label("loop")
    b.subi(1, 1, 1)
    b.bnez(1, "loop")
    b.halt()
    a.append_builder(b)
    program = a.build()
    assert program.labels["loop"] == 1
    assert program[2].target == 1


def test_workload_classes_cover_paper_taxonomy():
    from repro.workloads.spec import PROFILES
    classes = {p.klass for p in PROFILES.values()}
    assert classes == {"compute", "streaming", "spatial", "irregular",
                       "server"}


def test_cfg_extraction_on_generated_programs():
    workload = build_workload("astar")
    blocks = extract_basic_blocks(workload.program)
    assert len(blocks) > 5
    boundaries = {b.start for b in blocks}
    assert 0 in boundaries

"""Runtime invariant sanitizer, corrupt-state fault, and auto-bisect."""

import json
import os

import pytest

from repro.resilience import FailurePolicy, SimulationError
from repro.resilience.faults import (
    DEFAULT_CORRUPT_CYCLE,
    FaultPlan,
    apply_state_corruption,
    parse_faults,
)
from repro.sanitize import (
    DivergenceReport,
    Sanitizer,
    SanitizerError,
    mode_from_env,
    sentinel_run,
)
from repro.checkpoint import Checkpointer
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from repro.workloads.spec import build_workload


def _system(benchmark="mcf", prefetcher="bfetch"):
    return System(build_workload(benchmark),
                  SystemConfig(prefetcher=prefetcher))


# ----------------------------------------------------------------------
# mode plumbing


def test_mode_from_env():
    assert mode_from_env({}) == "off"
    assert mode_from_env({"REPRO_CHECK": ""}) == "off"
    assert mode_from_env({"REPRO_CHECK": "cheap"}) == "cheap"
    assert mode_from_env({"REPRO_CHECK": " FULL "}) == "full"
    with pytest.raises(ValueError) as excinfo:
        mode_from_env({"REPRO_CHECK": "paranoid"})
    assert "off, cheap, full" in str(excinfo.value)


def test_from_env_returns_none_when_off():
    assert Sanitizer.from_env({}) is None
    sanitizer = Sanitizer.from_env({"REPRO_CHECK": "full"})
    assert sanitizer.mode == "full" and sanitizer.active


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        Sanitizer("paranoid")


# ----------------------------------------------------------------------
# clean runs: checks pass and perturb nothing


@pytest.mark.parametrize("prefetcher", ["none", "stride", "sms", "bfetch"])
def test_clean_run_passes_full_checks(prefetcher):
    budget = 15_000
    reference = _system(prefetcher=prefetcher).run(budget).as_dict()
    sanitizer = Sanitizer("full", interval=1024)
    checked = _system(prefetcher=prefetcher).run(
        budget, sanitizer=sanitizer).as_dict()
    assert checked == reference  # auditing must never change behaviour
    assert sanitizer.checks_run > 0
    assert sanitizer.violations == 0


# ----------------------------------------------------------------------
# detection


def test_cheap_detects_counter_corruption():
    system = _system()
    system.run(3_000)
    apply_state_corruption(system)
    sanitizer = Sanitizer("cheap")
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.check_system(system, cycle=3_000)
    error = excinfo.value
    assert error.component == "mem.l1d"
    assert error.invariant == "hit-miss-partition"
    assert error.cycle == 3_000
    assert sanitizer.violations == 1


def test_full_detects_misfiled_line():
    """A line filed under the wrong set breaks tag/set consistency --
    invisible to the cheap tier (counters and occupancy stay legal),
    caught only by the full walk."""
    from repro.memory.cache import Line

    system = _system()
    system.run(3_000)
    cache = system.hierarchy.l1d
    # swap one victim for a block that maps to a *different* set, so
    # occupancy stays within associativity and no counter moves
    index, cache_set = next(
        (i, s) for i, s in enumerate(cache.sets) if s
    )
    cache_set.pop(next(iter(cache_set)))
    bogus_block = (index + 1) & cache._set_mask | (cache._set_mask + 1)
    assert bogus_block & cache._set_mask != index
    cache_set[bogus_block] = Line(cache._tick)
    Sanitizer("cheap").check_system(system, cycle=3_000)  # passes
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer("full").check_system(system, cycle=3_000)
    assert excinfo.value.invariant == "tag-set-consistency"


def test_full_detects_a_written_lower_level_line():
    """L2 and the LLC file their blocks under one shared clean line, so
    a line there that was written would corrupt every block at once.
    Counters stay legal (the cheap tier passes); the full walk names the
    dirty line."""
    from repro.memory.cache import Line

    system = _system()
    system.run(3_000)
    cache_set = next(s for s in system.hierarchy.llc.sets if s)
    # a fresh line: writing through the shared one would dirty them all
    written = Line(0)
    written.dirty = True
    cache_set[next(iter(cache_set))] = written
    Sanitizer("cheap").check_system(system, cycle=3_000)  # passes
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer("full").check_system(system, cycle=3_000)
    assert excinfo.value.component == "mem.llc"
    assert excinfo.value.invariant == "lower-level-clean"


def test_full_checks_stamps_only_where_a_policy_keeps_them():
    """A default-policy cache stamps nothing; an LLC with a policy object
    still has its stamps checked against its tick."""
    from repro.memory.hierarchy import HierarchyConfig

    config = SystemConfig(prefetcher="none",
                          hierarchy=HierarchyConfig(llc_policy="lru"))
    system = System(build_workload("mcf"), config)
    system.run(3_000)
    assert system.hierarchy.l1d._tick == 0
    Sanitizer("full").check_system(system, cycle=3_000)  # passes

    policy_config = SystemConfig(
        prefetcher="none", hierarchy=HierarchyConfig(llc_policy="srrip"))
    system = System(build_workload("mcf"), policy_config)
    system.run(3_000)
    llc = system.hierarchy.llc
    line = next(line for s in llc.sets for line in s.values())
    line.lru = llc._tick + 1
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer("full").check_system(system, cycle=3_000)
    assert excinfo.value.invariant == "lru-monotonic"


def test_arf_functional_agreement_check():
    system = _system(prefetcher="bfetch")
    system.run(10_000)
    arf = system.prefetcher.arf
    pending = {entry[2] for entry in arf._pending}
    victims = [reg for reg in range(31)
               if reg not in pending and arf.seq[reg] >= 0]
    assert victims, "run too short to drain any ARF write"
    arf.values[victims[0]] += 1
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer("full").check_system(system)
    assert excinfo.value.invariant == "arf-functional-agreement"


def test_violation_dumps_snapshot(tmp_path):
    system = _system()
    system.run(3_000)
    apply_state_corruption(system)
    sanitizer = Sanitizer("cheap", snapshot_dir=str(tmp_path))
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.check_system(system, cycle=3_000)
    path = excinfo.value.snapshot_path
    assert path is not None and os.path.exists(path)
    with open(path) as handle:
        envelope = json.load(handle)
    assert set(envelope) == {"v", "sha", "data"}
    assert envelope["data"]["cycle"] == 3_000


# ----------------------------------------------------------------------
# corrupt-state fault verb


def test_parse_corrupt_state_spec():
    specs = parse_faults("corrupt-state:1.0:cycle=500")
    spec = specs["corrupt-state"]
    assert spec.prob == 1.0 and spec.cycle == 500
    with pytest.raises(ValueError):
        parse_faults("corrupt-state:1.0:cycle=0")


def test_corrupt_state_cycle_fires_once_first_attempt_only():
    plan = FaultPlan(parse_faults("corrupt-state:1.0:cycle=700"))
    assert plan.corrupt_state_cycle("job", attempt=1) is None
    assert plan.corrupt_state_cycle("job") == 700
    assert plan.corrupt_state_cycle("job") is None  # once per key
    assert plan.corrupt_state_cycle("other") == 700
    default = FaultPlan(parse_faults("corrupt-state:1.0"))
    assert default.corrupt_state_cycle("job") == DEFAULT_CORRUPT_CYCLE


def test_run_with_corrupt_at_trips_sanitizer():
    sanitizer = Sanitizer("cheap", interval=1000)
    with pytest.raises(SanitizerError) as excinfo:
        _system().run(20_000, sanitizer=sanitizer, corrupt_at=2_500)
    assert excinfo.value.cycle >= 2_500


# ----------------------------------------------------------------------
# divergence sentinel + first-bad-cycle auto-bisect


def test_sentinel_run_clean():
    result, report = sentinel_run(
        lambda: _system(), 10_000, sanitizer=Sanitizer("full"))
    assert report is None
    assert result.as_dict() == _system().run(10_000).as_dict()


def test_sentinel_bisect_names_first_bad_cycle(tmp_path):
    corrupt_at = 2_500
    checkpointer = Checkpointer(str(tmp_path / "run.ckpt.json"), every=1000)
    result, report = sentinel_run(
        lambda: _system(), 20_000,
        checkpointer=checkpointer,
        sanitizer=Sanitizer("cheap", interval=1000),
        corrupt_at=corrupt_at,
    )
    assert result is None
    assert isinstance(report, DivergenceReport)
    # the checkpoint replayed from predates the corruption...
    assert report.replay_from < corrupt_at
    # ...and per-cycle full checks pin the first bad simulated cycle to
    # the corruption point (at/after corrupt_at, well inside the coarse
    # detection interval of the original trigger)
    assert report.first_bad_cycle is not None
    assert corrupt_at <= report.first_bad_cycle <= report.trigger.cycle
    assert report.first_error.invariant == "hit-miss-partition"
    assert "first bad cycle" in report.describe()


# ----------------------------------------------------------------------
# chaos convergence through the runner: a corrupt-state fault is
# detected by REPRO_CHECK and the retry (attempt 1, fault gated off)
# recovers the byte-identical clean result


def test_runner_recovers_from_corrupt_state_fault(monkeypatch):
    budget = 20_000
    reference = ExperimentRunner().run_single(
        "mcf", "bfetch", budget).as_dict()
    monkeypatch.setenv("REPRO_FAULTS", "corrupt-state:1.0:cycle=1500")
    monkeypatch.setenv("REPRO_CHECK", "cheap")
    policy = FailurePolicy(retries=1)
    result = ExperimentRunner(policy=policy).run_single(
        "mcf", "bfetch", budget).as_dict()
    assert result == reference


def test_runner_surfaces_unrecovered_violation(monkeypatch):
    # a *different* REPRO_FAULTS string from the test above, so the
    # process-level fault plan (and its once-per-key memory) is rebuilt
    monkeypatch.setenv("REPRO_FAULTS", "corrupt-state:1.0:cycle=1800")
    monkeypatch.setenv("REPRO_CHECK", "cheap")
    policy = FailurePolicy(retries=0)
    with pytest.raises(SimulationError) as excinfo:
        ExperimentRunner(policy=policy).run_single("mcf", "bfetch", 20_000)
    assert "invariant" in str(excinfo.value)

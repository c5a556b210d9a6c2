"""The run loop's observable sequence (``repro.sim.system.drive``).

Single-core runs, CMP mixes and the sanitizer's bisect replay step
through one chunk loop.  These pins fix what it does at its boundaries
-- how many checkpoints it saves and when, how many sanitizer checks it
runs, where a bisect replay starts and what it finds -- on explicit
budgets, so ``REPRO_SCALE`` does not move them.  All runs are B-Fetch.
"""

import os
import signal

import pytest

from repro.checkpoint import Checkpointer, InterruptFlag
from repro.obs.trace import validate_jsonl
from repro.sanitize import Sanitizer, sentinel_run
from repro.sim.cmp import CMPSystem
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.spec import build_workload

CONFIG = SystemConfig(prefetcher="bfetch")
MIX = ("mcf", "libquantum")


def _mcf():
    return System(build_workload("mcf"), CONFIG)


def _mix():
    return CMPSystem([build_workload(name) for name in MIX], CONFIG)


def test_single_core_checkpoint_cadence(tmp_path):
    ckpt = Checkpointer(str(tmp_path / "run.ckpt.json"), every=1500)
    result = _mcf().run(20_000, checkpointer=ckpt)
    assert (ckpt.saves, ckpt.last_cycle, result.cycles) == (45, 71_943,
                                                            72_126)


def test_mix_checkpoint_cadence(tmp_path):
    ckpt = Checkpointer(str(tmp_path / "mix.ckpt.json"), every=1500)
    results = _mix().run(6_000, checkpointer=ckpt)
    assert (ckpt.saves, ckpt.last_cycle) == (23, 34_626)
    assert [result.cycles for result in results] == [35_007, 28_467]


def test_sentinel_replays_from_the_last_checkpoint(tmp_path):
    ckpt = Checkpointer(str(tmp_path / "run.ckpt.json"), every=1250)
    result, report = sentinel_run(
        _mcf, 20_000, checkpointer=ckpt,
        sanitizer=Sanitizer("full", interval=1000), corrupt_at=2_500)
    assert result is None
    assert (report.trigger.cycle, report.replay_from,
            report.first_bad_cycle) == (3_456, 2_306, 2_536)


def test_clean_sentinel_check_count():
    sanitizer = Sanitizer("full")
    result, report = sentinel_run(_mcf, 20_000, sanitizer=sanitizer)
    assert report is None and result is not None
    assert sanitizer.checks_run == 64


def test_mix_is_checked_at_its_final_boundary():
    # 23 boundaries before the last core finishes plus the final one,
    # each checking both cores
    sanitizer = Sanitizer("cheap", interval=1500)
    _mix().run(6_000, sanitizer=sanitizer)
    assert sanitizer.checks_run == 48


def test_mix_with_an_untripped_interrupt_equals_the_plain_run():
    plain = [result.as_dict() for result in _mix().run(6_000)]
    polled = [result.as_dict()
              for result in _mix().run(6_000, interrupt=InterruptFlag())]
    assert polled == plain


def test_mix_checkpoint_for_another_target_is_cleared(tmp_path):
    ckpt = Checkpointer(str(tmp_path / "mix.ckpt.json"), every=1500)
    tripped = InterruptFlag()
    tripped.signum = signal.SIGTERM
    with pytest.raises(SystemExit):
        _mix().run(6_000, checkpointer=ckpt, interrupt=tripped)
    assert os.path.exists(ckpt.path)

    fresh, reloaded = _mix(), _mix()
    expected = [result.as_dict() for result in fresh.run(5_000)]
    assert [result.as_dict() for result in
            reloaded.run(5_000, checkpointer=ckpt)] == expected
    assert ckpt.loads == 1 and not os.path.exists(ckpt.path)
    # nothing of the cleared checkpoint was restored: the whole end
    # state, idle-step counters included, is that of the fresh run
    assert reloaded.snapshot() == fresh.snapshot()


def test_traced_mix_writes_one_file(tmp_path, monkeypatch):
    path = tmp_path / "mix-trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", "all")
    monkeypatch.setenv("REPRO_TRACE_FILE", str(path))
    cmp_system = _mix()
    assert all(system.tracer is cmp_system.systems[0].tracer
               for system in cmp_system.systems)
    cmp_system.run(3_000)
    assert os.listdir(str(tmp_path)) == ["mix-trace.jsonl"]
    text = path.read_text()
    assert len(text.splitlines()) == 5_141
    assert validate_jsonl(text) == []

"""Checkpoint/restore: byte-identical resume after interruption.

The headline guarantee (DESIGN.md section 7): because the simulator is
fully deterministic, restoring a checkpoint and running to completion
produces *exactly* the same :class:`RunResult` payload as the
uninterrupted run -- for single-core systems, for the shared-LLC CMP,
and for every prefetcher.  The chaos tests here enforce it with real
``SIGKILL`` mid-run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.checkpoint import (
    CheckpointError,
    Checkpointer,
    InterruptFlag,
    from_env,
    gc_stale_tmp,
)
from repro.obs import Tracer
from repro.obs.trace import parse_trace_spec
from repro.sim.cmp import CMPSystem
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from repro.workloads.spec import build_workload


def _system(benchmark="mcf", prefetcher="bfetch", **overrides):
    return System(build_workload(benchmark),
                  SystemConfig(prefetcher=prefetcher, **overrides))


# ----------------------------------------------------------------------
# Checkpointer mechanics


def test_checkpointer_round_trip(tmp_path):
    path = str(tmp_path / "run.ckpt.json")
    ckpt = Checkpointer(path, every=100)
    state = {"machine": {"regs": list(range(32))}, "nested": {"a": [1, 2]}}
    ckpt.save(state, cycle=1234)
    loaded = Checkpointer(path).load()
    assert loaded is not None
    restored, cycle = loaded
    assert restored == state
    assert cycle == 1234


def test_checkpointer_due_cadence(tmp_path):
    ckpt = Checkpointer(str(tmp_path / "x.ckpt.json"), every=1000)
    assert not ckpt.due(999)
    assert ckpt.due(1000)
    ckpt.save({}, 1000)
    assert not ckpt.due(1999)
    assert ckpt.due(2100)


def test_checkpointer_rejects_bad_interval(tmp_path):
    for bad in (0, -5, 1.5, "100"):
        with pytest.raises(CheckpointError):
            Checkpointer(str(tmp_path / "x.ckpt.json"), every=bad)


def test_corrupt_checkpoint_is_discarded(tmp_path):
    path = str(tmp_path / "run.ckpt.json")
    ckpt = Checkpointer(path, every=100)
    ckpt.save({"ok": True}, 10)
    with open(path, "w") as handle:
        handle.write('{"v": 1, "sha": "deadbeef", "data": {"trunca')
    assert Checkpointer(path).load() is None
    assert not os.path.exists(path)  # never approximately trusted


def test_clear_removes_checkpoint(tmp_path):
    path = str(tmp_path / "run.ckpt.json")
    ckpt = Checkpointer(path, every=100)
    ckpt.save({}, 10)
    assert os.path.exists(path)
    ckpt.clear()
    assert not os.path.exists(path)
    ckpt.clear()  # idempotent


def test_gc_stale_tmp(tmp_path):
    stale = tmp_path / "sub" / ".tmp-dead"
    stale.parent.mkdir()
    stale.write_text("junk")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    fresh = tmp_path / ".tmp-live"
    fresh.write_text("mid-write")
    keep = tmp_path / "entry.json"
    keep.write_text("{}")
    assert gc_stale_tmp(str(tmp_path)) == 1
    assert not stale.exists()
    assert fresh.exists() and keep.exists()


def test_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CKPT_DIR", raising=False)
    assert from_env("k") is None
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT_EVERY", "1234")
    ckpt = from_env("key1")
    assert ckpt.every == 1234
    assert ckpt.path.endswith("key1.ckpt.json")
    monkeypatch.setenv("REPRO_CKPT_EVERY", "soon")
    with pytest.raises(CheckpointError):
        from_env("key1")
    monkeypatch.setenv("REPRO_CKPT_EVERY", "0")
    with pytest.raises(CheckpointError):
        from_env("key1")


# ----------------------------------------------------------------------
# in-process interrupt -> resume byte-identity (all system flavours)


@pytest.mark.parametrize("prefetcher", ["bfetch", "stride", "sms", "isb"])
def test_interrupt_resume_byte_identical_single(tmp_path, prefetcher):
    budget = 20_000
    reference = _system(prefetcher=prefetcher).run(budget).as_dict()

    ckpt = Checkpointer(str(tmp_path / "run.ckpt.json"), every=1500)
    tripped = InterruptFlag()
    tripped.signum = signal.SIGINT  # pre-latched: trips at first boundary
    with pytest.raises(KeyboardInterrupt):
        _system(prefetcher=prefetcher).run(budget, checkpointer=ckpt,
                                           interrupt=tripped)
    assert os.path.exists(ckpt.path)

    resumed = _system(prefetcher=prefetcher).run(
        budget, checkpointer=ckpt, interrupt=InterruptFlag()
    ).as_dict()
    assert resumed == reference
    assert not os.path.exists(ckpt.path)  # cleared after completion


def test_interrupt_resume_byte_identical_cmp(tmp_path):
    mix = ["mcf", "libquantum"]
    config = SystemConfig(prefetcher="bfetch")
    budget = 6_000

    def build():
        return CMPSystem([build_workload(name) for name in mix], config)

    reference = [r.as_dict() for r in build().run(budget)]

    ckpt = Checkpointer(str(tmp_path / "mix.ckpt.json"), every=1500)
    tripped = InterruptFlag()
    tripped.signum = signal.SIGTERM
    with pytest.raises(SystemExit) as excinfo:
        build().run(budget, checkpointer=ckpt, interrupt=tripped)
    assert excinfo.value.code == 128 + signal.SIGTERM
    assert os.path.exists(ckpt.path)

    resumed = [r.as_dict() for r in build().run(
        budget, checkpointer=ckpt, interrupt=InterruptFlag())]
    assert resumed == reference


def test_interrupt_flushes_trace_and_checkpoint(tmp_path):
    """Satellite: a deferred SIGTERM flushes traces + the latest
    checkpoint before exiting nonzero."""
    trace_path = str(tmp_path / "trace.jsonl")
    tracer = Tracer(parse_trace_spec("all"), path=trace_path)
    system = System(build_workload("mcf"), SystemConfig(prefetcher="bfetch"),
                    tracer=tracer)
    ckpt = Checkpointer(str(tmp_path / "run.ckpt.json"), every=1000)
    tripped = InterruptFlag()
    tripped.signum = signal.SIGTERM
    with pytest.raises(SystemExit) as excinfo:
        system.run(20_000, checkpointer=ckpt, interrupt=tripped)
    assert excinfo.value.code == 143
    assert os.path.exists(ckpt.path)
    assert os.path.exists(trace_path)
    with open(trace_path) as handle:
        first = handle.readline()
    assert first.strip()  # buffered events actually hit the disk


def test_mismatched_checkpoint_restarts_clean(tmp_path):
    """A checkpoint from another workload/config is cleared, not trusted."""
    ckpt = Checkpointer(str(tmp_path / "run.ckpt.json"), every=1000)
    donor = _system("libquantum")
    donor.run(3_000, checkpointer=ckpt)
    # force a leftover checkpoint from the donor's identity
    ckpt.save(donor.snapshot(), 999)

    reference = _system("mcf").run(10_000).as_dict()
    result = _system("mcf").run(10_000, checkpointer=ckpt).as_dict()
    assert result == reference

    with pytest.raises(CheckpointError):
        _system("mcf").restore(donor.snapshot())


def test_version_1_checkpoint_is_discarded(tmp_path):
    """A version-1 checkpoint lists each cache set in insertion order,
    not recency order: loading deletes it, and the run restarts clean."""
    from repro.resilience.envelope import wrap_envelope

    budget = 10_000
    reference = _system("mcf").run(budget).as_dict()
    donor = _system("mcf")
    donor.run(3_000)
    path = str(tmp_path / "run.ckpt.json")

    def plant():
        payload = {"cycle": 999, "state": donor.snapshot()}
        with open(path, "w") as handle:
            json.dump(wrap_envelope(payload, 1), handle, sort_keys=True)

    plant()
    assert Checkpointer(path).load() is None
    assert not os.path.exists(path)
    plant()
    ckpt = Checkpointer(path, every=1_000)
    result = _system("mcf").run(budget, checkpointer=ckpt).as_dict()
    assert ckpt.loads == 0
    assert result == reference


def test_snapshot_is_json_safe():
    system = _system(prefetcher="bfetch")
    system.run(5_000)
    state = system.snapshot()
    round_tripped = json.loads(json.dumps(state))
    fresh = _system(prefetcher="bfetch")
    fresh.restore(round_tripped)
    assert fresh.snapshot() == state


def test_restore_into_a_system_that_already_ran():
    """A system that has already walked and trained, restored from a
    snapshot and run on, must equal the same snapshot restored into a
    fresh system: the B-Fetch engine binds its tables once, so every
    restore has to refill them rather than replace them."""
    donor = _system("libquantum")
    donor.run(6_000)
    state = json.loads(json.dumps(donor.snapshot()))

    warm = _system("libquantum")
    warm.run(3_000)
    assert warm.prefetcher.walks and warm.prefetcher.candidates
    warm.restore(state)
    fresh = _system("libquantum")
    fresh.restore(state)

    warm_result = warm.run(12_000).as_dict()
    fresh_result = fresh.run(12_000).as_dict()
    assert warm_result == fresh_result
    assert warm.stats.as_dict() == fresh.stats.as_dict()
    assert warm.snapshot() == fresh.snapshot()


# ----------------------------------------------------------------------
# chaos: real SIGKILL mid-run, then resume -- byte-identical results

_SINGLE_SCRIPT = """\
import json, sys
sys.path.insert(0, %(src)r)
from repro.sim.runner import ExperimentRunner
result = ExperimentRunner().run_single(%(benchmark)r, %(prefetcher)r,
                                       %(instructions)d)
print(json.dumps(result.as_dict(), sort_keys=True))
"""

_MIX_SCRIPT = """\
import json, sys
sys.path.insert(0, %(src)r)
from repro.sim.runner import ExperimentRunner
results = ExperimentRunner().run_mix(%(mix)r, %(prefetcher)r,
                                     %(instructions)d)
print(json.dumps([r.as_dict() for r in results], sort_keys=True))
"""

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _kill_then_resume(script, ckpt_dir, timeout=30.0):
    """Start *script*, SIGKILL it once a checkpoint exists, then rerun."""
    env = dict(os.environ, REPRO_CKPT_DIR=str(ckpt_dir),
               REPRO_CKPT_EVERY="1000")
    env.pop("REPRO_SCALE", None)
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    deadline = time.time() + timeout
    try:
        while time.time() < deadline:
            if any(name.endswith(".ckpt.json")
                   for name in os.listdir(str(ckpt_dir))):
                break
            if proc.poll() is not None:
                raise AssertionError(
                    "run finished before any checkpoint was written:\n%s"
                    % proc.stderr.read().decode()
                )
            time.sleep(0.01)
        else:
            raise AssertionError("no checkpoint appeared within timeout")
        proc.kill()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


@pytest.mark.parametrize("prefetcher", ["bfetch", "stride", "sms"])
def test_sigkill_resume_byte_identical_single(tmp_path, prefetcher):
    instructions = 60_000
    reference = ExperimentRunner().run_single(
        "mcf", prefetcher, instructions).as_dict()
    script = _SINGLE_SCRIPT % {
        "src": _SRC, "benchmark": "mcf", "prefetcher": prefetcher,
        "instructions": instructions,
    }
    resumed = _kill_then_resume(script, tmp_path)
    assert resumed == json.loads(json.dumps(reference, sort_keys=True))
    # completion cleared the checkpoint: nothing stale left behind
    assert not any(name.endswith(".ckpt.json")
                   for name in os.listdir(str(tmp_path)))


def test_sigkill_resume_byte_identical_mix(tmp_path):
    mix = ["mcf", "libquantum"]
    instructions = 25_000
    reference = [r.as_dict() for r in
                 ExperimentRunner().run_mix(mix, "bfetch", instructions)]
    script = _MIX_SCRIPT % {
        "src": _SRC, "mix": mix, "prefetcher": "bfetch",
        "instructions": instructions,
    }
    resumed = _kill_then_resume(script, tmp_path)
    assert resumed == json.loads(json.dumps(reference, sort_keys=True))


# ----------------------------------------------------------------------
# decoupled front end: FTQ/predecode/I-MSHR state rides the checkpoint

def _ftq_config(iprefetcher="fdip"):
    return SystemConfig(prefetcher="none", frontend="ftq",
                        iprefetcher=iprefetcher)


@pytest.mark.parametrize("iprefetcher", ["fdip", "combined"])
def test_interrupt_resume_byte_identical_frontend_single(tmp_path,
                                                         iprefetcher):
    budget = 15_000

    def build():
        return System(build_workload("nginx"), _ftq_config(iprefetcher))

    reference = build().run(budget).as_dict()
    ckpt = Checkpointer(str(tmp_path / "fe.ckpt.json"), every=1500)
    tripped = InterruptFlag()
    tripped.signum = signal.SIGINT
    with pytest.raises(KeyboardInterrupt):
        build().run(budget, checkpointer=ckpt, interrupt=tripped)
    assert os.path.exists(ckpt.path)

    resumed = build().run(budget, checkpointer=ckpt,
                          interrupt=InterruptFlag()).as_dict()
    assert resumed == reference


def test_interrupt_resume_byte_identical_frontend_cmp(tmp_path):
    mix = ["nginx", "postgres"]
    config = _ftq_config("fdip")
    budget = 6_000

    def build():
        return CMPSystem([build_workload(name) for name in mix], config)

    reference = [r.as_dict() for r in build().run(budget)]
    ckpt = Checkpointer(str(tmp_path / "femix.ckpt.json"), every=1500)
    tripped = InterruptFlag()
    tripped.signum = signal.SIGTERM
    with pytest.raises(SystemExit):
        build().run(budget, checkpointer=ckpt, interrupt=tripped)
    assert os.path.exists(ckpt.path)

    resumed = [r.as_dict() for r in build().run(
        budget, checkpointer=ckpt, interrupt=InterruptFlag())]
    assert resumed == reference


_FRONTEND_SCRIPT = """\
import json, sys
sys.path.insert(0, %(src)r)
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
config = SystemConfig(prefetcher="none", frontend="ftq",
                      iprefetcher=%(iprefetcher)r)
result = ExperimentRunner().run_single(%(benchmark)r, "none",
                                       %(instructions)d, config=config)
print(json.dumps(result.as_dict(), sort_keys=True))
"""


def test_sigkill_resume_byte_identical_frontend(tmp_path):
    """Chaos satellite: SIGKILL a front-end-enabled run mid-flight,
    resume from the checkpoint, and match the uninterrupted payload."""
    instructions = 40_000
    config = _ftq_config("fdip")
    reference = ExperimentRunner().run_single(
        "nginx", "none", instructions, config=config).as_dict()
    script = _FRONTEND_SCRIPT % {
        "src": _SRC, "benchmark": "nginx", "iprefetcher": "fdip",
        "instructions": instructions,
    }
    resumed = _kill_then_resume(script, tmp_path)
    assert resumed == json.loads(json.dumps(reference, sort_keys=True))

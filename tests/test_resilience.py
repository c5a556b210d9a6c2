"""Chaos suite: the fault-tolerant sweep engine under injected failure.

The invariant proven here is the one the paper's per-load filter applies
to bad prefetches -- suppress the bad, keep the good: under injected
worker crashes, hangs and cache corruption, ``run_many`` must still
complete and produce results *byte-identical* to a fault-free serial
run, and an interrupted sweep must resume from the cache without
recomputing completed entries.
"""

import json
import os

import pytest

import repro.sim.runner as runner_mod
from repro.resilience import (
    FailurePolicy,
    FaultPlan,
    InjectedCrash,
    SimulationError,
    backoff_delay,
    get_fault_plan,
    parse_faults,
)
from repro.resilience.retry import BACKOFF_BASE, BACKOFF_FACTOR, BACKOFF_MAX
from repro.sim import ExperimentRunner, RunRequest
from repro.sim.runner import _execute_single, _payload_sha

BENCHES = ("gamess", "libquantum", "mcf")
BUDGET = 3_000


def _requests(benches=BENCHES, prefetchers=("none", "stride")):
    return [
        RunRequest(bench, prefetcher, BUDGET)
        for bench in benches
        for prefetcher in prefetchers
    ]


def _clean_expected(monkeypatch):
    """Fault-free serial reference results for ``_requests()``."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reference = ExperimentRunner()
    return [r.as_dict() for r in reference.run_many(_requests(), jobs=1)]


def _fast_policy(task_timeout=None):
    """Retry policy with a budget deep enough for every chaos test."""
    return FailurePolicy(retries=4, task_timeout=task_timeout)


def cache_files(cache_dir):
    found = []
    for root, _dirs, files in os.walk(str(cache_dir)):
        found.extend(os.path.join(root, name) for name in files
                     if name.endswith(".json"))
    return found


# ----------------------------------------------------------------------
# fault grammar + plan determinism


def test_parse_faults_grammar():
    specs = parse_faults("crash:0.1:seed=7,hang:0.05:dur=1.5,"
                         "corrupt-cache:0.25")
    assert set(specs) == {"crash", "hang", "corrupt-cache"}
    assert specs["crash"].prob == 0.1 and specs["crash"].seed == 7
    assert specs["hang"].dur == 1.5
    assert specs["corrupt-cache"].seed == 0


@pytest.mark.parametrize("bad", [
    "crash",                      # missing probability
    "crash:lots",                 # non-numeric probability
    "crash:1.5",                  # out of range
    "meteor:0.5",                 # unknown kind
    "crash:0.5:dur",              # malformed option
    "crash:0.5:speed=9",          # unknown option
    "crash:0.5,crash:0.1",        # duplicate kind
    "host-kill:0.3",              # removed verbs are unknown kinds
    "host-partition:0.3",
    "cache-peer-corrupt:0.3",
])
def test_parse_faults_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_faults(bad)


def test_fault_plan_deterministic_and_attempt_gated():
    always = FaultPlan(parse_faults("crash:1.0,hang:1.0"))
    assert always.should_crash("task-a", attempt=0)
    assert not always.should_crash("task-a", attempt=1)  # first try only
    assert always.should_hang("task-a", attempt=0)
    never = FaultPlan(parse_faults("crash:0.0"))
    assert not never.should_crash("task-a", attempt=0)
    # probabilistic decisions are a pure function of (seed, kind, key)
    a = FaultPlan(parse_faults("crash:0.5:seed=3"))
    b = FaultPlan(parse_faults("crash:0.5:seed=3"))
    keys = ["task-%d" % i for i in range(64)]
    decisions = [a.should_crash(key) for key in keys]
    assert decisions == [b.should_crash(key) for key in keys]
    assert any(decisions) and not all(decisions)
    # a different seed gives a different (but still deterministic) draw
    c = FaultPlan(parse_faults("crash:0.5:seed=4"))
    assert decisions != [c.should_crash(key) for key in keys]


def test_corrupt_cache_fires_once_per_key():
    plan = FaultPlan(parse_faults("corrupt-cache:1.0"))
    assert plan.corrupt_payload("/cache/x.json") is not None
    assert plan.corrupt_payload("/cache/x.json") is None  # once per key
    assert plan.corrupt_payload("/cache/y.json") is not None


def test_get_fault_plan_tracks_environment(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert not get_fault_plan().active
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=99")
    plan = get_fault_plan()
    assert plan.active and plan.should_crash("anything")
    assert get_fault_plan() is plan  # memoised on the raw string
    monkeypatch.delenv("REPRO_FAULTS")
    assert not get_fault_plan().active


# ----------------------------------------------------------------------
# policy + deterministic backoff


def test_failure_policy_validates_fields():
    with pytest.raises(ValueError):
        FailurePolicy(retries=-1)
    with pytest.raises(ValueError):
        FailurePolicy(task_timeout=0)
    with pytest.raises(ValueError):
        FailurePolicy(on_error="panic")


def test_failure_policy_keeps_only_the_values_callers_set():
    """Backoff, rebuild cap and scheduler tick are constants, not fields."""
    assert list(FailurePolicy._fields) \
        == ["retries", "task_timeout", "on_error"]


def test_backoff_schedule_deterministic_and_bounded():
    schedule = [backoff_delay("task-key", attempt) for attempt in range(8)]
    # deterministic
    assert schedule == [backoff_delay("task-key", attempt)
                        for attempt in range(8)]
    # exponential growth up to the cap, jitter bounded at +50%
    for attempt, delay in enumerate(schedule):
        base = min(BACKOFF_BASE * BACKOFF_FACTOR ** attempt, BACKOFF_MAX)
        assert base <= delay <= base * 1.5
    # a different task de-synchronises (different jitter draw)
    assert schedule != [backoff_delay("other-task", attempt)
                        for attempt in range(8)]


# ----------------------------------------------------------------------
# chaos: injected faults converge to clean results


def test_injected_crash_pool_recovers(tmp_path, monkeypatch):
    expected = _clean_expected(monkeypatch)
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=11")
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    got = runner.run_many(_requests(), jobs=2, policy=_fast_policy())
    assert [r.as_dict() for r in got] == expected
    report = runner.last_report
    assert report.crashes >= 1
    assert report.pool_rebuilds >= 1
    assert report.retries >= 1
    assert not report.failures


def test_injected_hang_times_out_and_recovers(tmp_path, monkeypatch):
    expected = _clean_expected(monkeypatch)[:2]  # gamess none/stride
    monkeypatch.setenv("REPRO_FAULTS", "hang:1.0:dur=1.2:seed=12")
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    got = runner.run_many(
        _requests(benches=("gamess",)), jobs=2,
        policy=_fast_policy(task_timeout=0.3),
    )
    assert [r.as_dict() for r in got] == expected
    report = runner.last_report
    assert report.timeouts >= 2          # both first attempts hung
    assert report.pool_rebuilds >= 1     # every worker slot was abandoned
    assert not report.failures


def test_injected_crash_serial_inprocess(monkeypatch):
    expected = _clean_expected(monkeypatch)
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=13")
    runner = ExperimentRunner()
    got = runner.run_many(_requests(), jobs=1, policy=_fast_policy())
    assert [r.as_dict() for r in got] == expected
    report = runner.last_report
    assert report.errors >= len(_requests()) // 2  # one InjectedCrash each
    assert report.retries >= 1
    assert not report.failures


def test_chaos_mixed_faults_byte_identical(tmp_path, monkeypatch):
    """The acceptance invariant: >=10% crash + hang + corrupt-cache, on
    single runs and a mix (whose first attempt both hangs and crashes
    under this plan)."""
    requests = _requests() + [RunRequest(("libquantum", "mcf"), "none",
                                         BUDGET)]

    def payloads(results):
        return [[core.as_dict() for core in result]
                if isinstance(result, list) else result.as_dict()
                for result in results]

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    expected = payloads(ExperimentRunner().run_many(requests, jobs=1))
    monkeypatch.setenv(
        "REPRO_FAULTS",
        "crash:0.5:seed=7,hang:0.34:dur=1.0:seed=21,"
        "corrupt-cache:0.6:seed=3",
    )
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    got = runner.run_many(
        requests, jobs=2, policy=_fast_policy(task_timeout=0.4)
    )
    assert payloads(got) == expected
    assert runner.last_report.eventful
    assert not runner.last_report.failures
    # some cache entries were corrupted on write; a fresh runner detects
    # the corruption, recomputes, and still converges byte-identically
    fresh = ExperimentRunner(cache_dir=str(tmp_path))
    again = fresh.run_many(
        requests, jobs=2, policy=_fast_policy(task_timeout=0.4)
    )
    assert payloads(again) == expected
    # and by now every entry on disk verifies, so a third pass is all hits
    final = ExperimentRunner(cache_dir=str(tmp_path))
    third = final.run_many(requests, jobs=2, policy=_fast_policy())
    assert payloads(third) == expected
    assert final.last_report.hits == len(requests)
    assert final.last_report.misses == 0


def test_serial_degradation_after_pool_keeps_dying(tmp_path, monkeypatch):
    expected = _clean_expected(monkeypatch)
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=14")
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    got = runner.run_many(_requests(), jobs=2, policy=_fast_policy())
    assert [r.as_dict() for r in got] == expected
    report = runner.last_report
    # every round of the pool holds a first attempt, which crashes it,
    # until the rebuild that trips the cap
    assert report.pool_rebuilds == runner_mod.MAX_POOL_REBUILDS + 1
    assert report.degradations >= 1        # remaining batch ran in-process
    assert not report.failures


# ----------------------------------------------------------------------
# save-as-completed + resume


def test_save_as_completed_persists_before_raise(tmp_path, monkeypatch):
    """A late failure must not lose the results that already finished."""
    real = _execute_single

    def flaky(benchmark, *args, **kwargs):
        if benchmark == "mcf":
            raise RuntimeError("injected terminal failure")
        return real(benchmark, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_execute_single", flaky)
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    policy = FailurePolicy(retries=0)
    with pytest.raises(SimulationError) as excinfo:
        runner.run_many(
            [RunRequest("gamess", "none", BUDGET),
             RunRequest("libquantum", "none", BUDGET),
             RunRequest("mcf", "none", BUDGET)],
            jobs=1, policy=policy,
        )
    assert excinfo.value.request.benchmark == "mcf"
    # the two completed runs were persisted the moment they finished
    assert len(cache_files(tmp_path)) == 2
    assert runner.last_report.failures


def test_on_error_skip_returns_none_slot(tmp_path, monkeypatch):
    real = _execute_single

    def flaky(benchmark, *args, **kwargs):
        if benchmark == "mcf":
            raise RuntimeError("injected terminal failure")
        return real(benchmark, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_execute_single", flaky)
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    policy = FailurePolicy(retries=1, on_error="skip")
    results = runner.run_many(
        [RunRequest("gamess", "none", BUDGET),
         RunRequest("mcf", "none", BUDGET),
         RunRequest("libquantum", "none", BUDGET)],
        jobs=1, policy=policy,
    )
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    report = runner.last_report
    assert report.skipped == 1
    assert report.retries == 1           # one retry was attempted first
    assert len(report.failures) == 1
    assert report.failures[0].request.benchmark == "mcf"


def test_on_error_serial_runs_failed_task_inprocess(tmp_path, monkeypatch):
    """Pool-side failures fall back to one in-process execution."""
    real = _execute_single

    def flaky(benchmark, *args, **kwargs):
        if benchmark == "mcf" and kwargs.get("attempt", 0) == 0:
            raise RuntimeError("fails on the first attempt only")
        return real(benchmark, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_execute_single", flaky)
    expected = _clean_expected(monkeypatch)
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    policy = FailurePolicy(retries=0, on_error="serial")
    got = runner.run_many(_requests(), jobs=2, policy=policy)
    assert [r.as_dict() for r in got] == expected
    assert runner.last_report.degradations >= 1
    assert not runner.last_report.failures


def test_interrupted_sweep_resumes_from_cache(tmp_path, monkeypatch):
    """A killed-then-restarted sweep must not recompute finished entries."""
    all_requests = _requests()
    first_half, second_half = all_requests[:3], all_requests[3:]
    ExperimentRunner(cache_dir=str(tmp_path)).run_many(first_half, jobs=1)
    assert len(cache_files(tmp_path)) == 3

    real = _execute_single
    executed = []

    def counting(benchmark, prefetcher, *args, **kwargs):
        executed.append((benchmark, prefetcher))
        return real(benchmark, prefetcher, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_execute_single", counting)
    resumed = ExperimentRunner(cache_dir=str(tmp_path))
    results = resumed.run_many(all_requests, jobs=1)
    assert all(result is not None for result in results)
    # only the second half was simulated; the rest came from the cache
    assert sorted(executed) == sorted(
        (r.benchmark, r.prefetcher) for r in second_half
    )
    report = resumed.last_report
    assert report.hits == len(first_half)
    assert report.misses == len(second_half)


def test_keyboard_interrupt_propagates_serial(monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "_execute_single", interrupt)
    runner = ExperimentRunner()
    with pytest.raises(KeyboardInterrupt):
        runner.run_many([RunRequest("gamess", "none", BUDGET)], jobs=1)


def test_keyboard_interrupt_propagates_pool(tmp_path, monkeypatch):
    """Ctrl-C mid-batch shuts the pool down and re-raises."""
    def interrupt(self, path, data, memo_key=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(ExperimentRunner, "_save", interrupt)
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        runner.run_many(_requests(benches=("gamess", "mcf")), jobs=2)


# ----------------------------------------------------------------------
# cache integrity envelope


def test_cache_entries_carry_integrity_envelope(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    result = runner.run_single("gamess", "none", instructions=BUDGET)
    (path,) = cache_files(tmp_path)
    with open(path) as handle:
        entry = json.load(handle)
    assert set(entry) == {"v", "sha", "data"}
    assert entry["v"] == runner_mod.CACHE_VERSION
    assert entry["data"] == result.as_dict()
    assert entry["sha"] == _payload_sha(entry["data"])


def test_tampered_entry_detected_and_recomputed(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_single("gamess", "none", instructions=BUDGET)
    (path,) = cache_files(tmp_path)
    with open(path) as handle:
        entry = json.load(handle)
    entry["data"]["ipc"] = 999.0  # tamper without fixing the digest
    with open(path, "w") as handle:
        json.dump(entry, handle)
    fresh = ExperimentRunner(cache_dir=str(tmp_path))
    results = fresh.run_many([RunRequest("gamess", "none", BUDGET)], jobs=1)
    assert results[0].as_dict() == first.as_dict()  # not the wrong result
    assert fresh.last_report.cache_corruptions == 1


def test_stale_envelope_version_detected(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_single("gamess", "none", instructions=BUDGET)
    (path,) = cache_files(tmp_path)
    with open(path) as handle:
        entry = json.load(handle)
    entry["v"] = 1  # pretend a stale pre-v2 writer produced this file
    with open(path, "w") as handle:
        json.dump(entry, handle)
    fresh = ExperimentRunner(cache_dir=str(tmp_path))
    fresh.run_many([RunRequest("gamess", "none", BUDGET)], jobs=1)
    assert fresh.last_report.cache_corruptions == 1
    with open(path) as handle:  # rewritten as a valid current entry
        assert json.load(handle)["data"] == first.as_dict()


def test_bare_entry_is_corrupt_and_recomputed(tmp_path):
    """No writer produces an entry without an envelope: never trust one."""
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_single("gamess", "none", instructions=BUDGET)
    (path,) = cache_files(tmp_path)
    with open(path, "w") as handle:  # the bare payload, no envelope
        json.dump(first.as_dict(), handle)
    fresh = ExperimentRunner(cache_dir=str(tmp_path))
    results = fresh.run_many([RunRequest("gamess", "none", BUDGET)], jobs=1)
    assert results[0].as_dict() == first.as_dict()
    assert fresh.last_report.cache_corruptions == 1
    assert fresh.last_report.misses == 1
    with open(path) as handle:  # rewritten as a valid current entry
        assert set(json.load(handle)) == {"v", "sha", "data"}


# ----------------------------------------------------------------------
# in-process crash faults raise (not exit), keeping run_single safe


def test_inprocess_crash_fault_is_exception(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=15")
    plan = get_fault_plan()
    with pytest.raises(InjectedCrash):
        plan.inject_execution_faults("some-task", attempt=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failure_names_task_by_digest_and_run(monkeypatch, jobs):
    """Pool and in-process failures read alike, with no object repr."""
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=7")
    requests = [RunRequest("libquantum", "stride", 2000),
                RunRequest("mcf", "none", 2000)]
    runner = ExperimentRunner()
    with pytest.raises(SimulationError) as excinfo:
        runner.run_many(requests, jobs=jobs, policy=FailurePolicy(retries=0))
    message = str(excinfo.value)
    digest = runner.request_digest(requests[0])
    assert "task %s (libquantum/stride)" % digest[:12] in message
    assert "0x" not in message
    assert excinfo.value.request.benchmark == "libquantum"


def test_run_single_raises_with_request_whatever_on_error(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=18")
    for on_error in ("raise", "skip", "serial"):
        runner = ExperimentRunner(
            policy=FailurePolicy(retries=0, on_error=on_error))
        with pytest.raises(SimulationError) as excinfo:
            runner.run_single("gamess", "none", instructions=BUDGET)
        assert excinfo.value.request.benchmark == "gamess"
        assert excinfo.value.attempts == 1


def test_run_single_retries_through_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clean = ExperimentRunner().run_single("gamess", "none",
                                          instructions=BUDGET)
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=16")
    runner = ExperimentRunner(policy=_fast_policy())
    survived = runner.run_single("gamess", "none", instructions=BUDGET)
    assert survived.as_dict() == clean.as_dict()


# ----------------------------------------------------------------------
# CLI plumbing


def test_cli_resilience_flags_parse():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["compare", "gamess", "--retries", "3", "--task-timeout", "2.5",
         "--on-error", "serial"]
    )
    assert (args.retries, args.task_timeout, args.on_error) == \
        (3, 2.5, "serial")


def test_cli_compare_survives_chaos(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=17")
    assert main(["compare", "gamess", "-n", "4000",
                 "--prefetchers", "stride",
                 "--retries", "4", "-j", "2"]) == 0
    captured = capsys.readouterr()
    assert "speedup" in captured.out
    assert "[resilience]" in captured.err  # the BatchReport was surfaced

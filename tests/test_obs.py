"""Observability layer: stats registry, tracer, profiler, and the
stats-correctness satellite fixes (disjoint feedback counters, derived
ratios, block-geometry plumbing, byte-identity with tracing off)."""

import copy
import json
import os
import pickle

import pytest

from repro.memory.stats import PrefetchStats
from repro.obs import (
    Counter,
    Histogram,
    Profiler,
    StatsRegistry,
    TraceConfigError,
    Tracer,
)
from repro.obs.io import atomic_write_text
from repro.obs.trace import parse_trace_spec, validate_event, validate_jsonl
from repro.memory.hierarchy import HierarchyConfig
from repro.prefetchers import Prefetcher
from repro.sim.config import SystemConfig
from repro.sim.metrics import normalize, weighted_speedup
from repro.sim.system import RunResult, System
from repro.workloads.spec import build_workload


# ----------------------------------------------------------------------
# StatsRegistry


class TestRegistry:
    def test_counter_and_dump_sorted(self):
        reg = StatsRegistry()
        reg.counter("b.second", "desc b")
        counter = reg.counter("a.first", "desc a")
        counter.inc()
        counter.inc(4)
        dump = reg.dump()
        assert list(dump) == ["a.first", "b.second"]
        assert dump["a.first"] == 5

    def test_duplicate_name_rejected(self):
        reg = StatsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.counter("x")

    def test_histogram_overflow_bucket_and_mean(self):
        hist = Histogram("h", buckets=4)
        hist.sample(0)
        hist.sample(1, count=2)
        hist.sample(99)  # lands in the overflow (last) bucket
        assert hist.value[0] == 1
        assert hist.value[1] == 2
        assert hist.value[-1] == 1
        assert hist.total == 4

    def test_ratio_is_lazy_and_guarded(self):
        reg = StatsRegistry()
        numer = Counter("n")
        denom = Counter("d")
        ratio = reg.ratio("r", lambda: numer.value, lambda: denom.value)
        assert ratio.value == 0.0  # 0/0 -> defined as 0.0
        numer.inc(3)
        denom.inc(4)
        assert ratio.value == pytest.approx(0.75)

    def test_adopt_is_a_live_view_and_reset_zeroes_in_place(self):
        reg = StatsRegistry()
        stats = PrefetchStats()
        reg.adopt("pf.test", stats)
        stats.issued += 7
        assert reg.dump()["pf.test.issued"] == 7
        reg.reset()
        assert stats.issued == 0
        stats.issued += 2  # same object still adopted after reset
        assert reg.dump()["pf.test.issued"] == 2

    def test_as_dict_nests_on_dots(self):
        reg = StatsRegistry()
        reg.counter("core.rob.full_stalls")
        reg.counter("core.cycle")
        nested = reg.as_dict()
        assert nested["core"]["rob"]["full_stalls"] == 0
        assert nested["core"]["cycle"] == 0

    def test_format_filters_by_substring(self):
        reg = StatsRegistry()
        reg.counter("mem.l1d.misses", "demand misses")
        reg.counter("core.cycle")
        text = reg.format("l1d")
        assert "mem.l1d.misses" in text
        assert "core.cycle" not in text
        assert "# demand misses" in text


# ----------------------------------------------------------------------
# Tracer


class TestTraceSpec:
    def test_all_expands_to_every_category(self):
        from repro.obs.trace import CATEGORIES
        rates = parse_trace_spec("all")
        assert set(rates) == set(CATEGORIES)
        assert all(rate == 1.0 for rate in rates.values())

    def test_per_category_sampling_rates(self):
        rates = parse_trace_spec("bfetch,cache:0.01")
        assert rates["bfetch"] == 1.0
        assert rates["cache"] == pytest.approx(0.01)

    def test_unknown_category_and_bad_rate_raise(self):
        with pytest.raises(TraceConfigError):
            parse_trace_spec("nonsense")
        with pytest.raises(TraceConfigError):
            parse_trace_spec("cache:0")
        with pytest.raises(TraceConfigError):
            parse_trace_spec("cache:2.0")

    def test_empty_spec_means_off(self):
        assert parse_trace_spec(None) == {}
        assert parse_trace_spec("") == {}


class TestTracer:
    def test_channel_none_when_category_disabled(self):
        tracer = Tracer({"bfetch": 1.0})
        assert tracer.channel("bfetch") is not None
        assert tracer.channel("cache") is None

    def test_events_carry_category_event_and_cycle(self):
        tracer = Tracer({"bfetch": 1.0})
        tracer.channel("bfetch").emit("walk", 42, pc=0x1000, depth=3)
        [event] = tracer.events
        assert event["cat"] == "bfetch"
        assert event["ev"] == "walk"
        assert event["cycle"] == 42
        assert event["pc"] == 0x1000
        assert validate_event(event) == []

    def test_sampling_is_deterministic_error_diffusion(self):
        def emit_series(rate, n=1000):
            tracer = Tracer({"cache": rate})
            channel = tracer.channel("cache")
            for cycle in range(n):
                channel.emit("fill", cycle, addr=cycle * 64)
            return tracer

        a = emit_series(0.1)
        b = emit_series(0.1)
        assert a.to_jsonl() == b.to_jsonl()  # byte-identical
        # error diffusion keeps the count within float rounding of rate*n
        assert abs(len(a.events) - 100) <= 1

    def test_flush_writes_valid_jsonl_atomically(self, tmp_path):
        tracer = Tracer({"feedback": 1.0}, path=str(tmp_path / "t.jsonl"))
        tracer.channel("feedback").emit("outcome", 7, outcome="useful",
                                        addr=0x40)
        out = tracer.flush()
        text = open(out).read()
        assert validate_jsonl(text) == []
        assert json.loads(text.splitlines()[0])["outcome"] == "useful"
        assert not [n for n in os.listdir(str(tmp_path))
                    if n.startswith(".tmp-")]

    def test_append_writes_each_event_once(self, tmp_path):
        path = tmp_path / "sub" / "t.jsonl"
        path.parent.mkdir()
        path.write_text("stale\n")
        tracer = Tracer({"serve": 1.0}, path=str(path))
        channel = tracer.channel("serve")
        sizes = []
        for cycle in range(3):
            channel.emit("done", cycle, job="j%d" % cycle)
            assert tracer.append() == str(path)
            # the first call starts the file afresh; each later one adds
            # only the new event
            assert path.read_text() == tracer.to_jsonl()
            sizes.append(path.stat().st_size)
        assert sizes[2] - sizes[1] == sizes[1] - sizes[0] == sizes[0]
        tracer.append()  # nothing new: nothing written
        assert path.stat().st_size == sizes[-1]
        assert Tracer({"serve": 1.0}).append() is None

    def test_from_env_unset_returns_none(self):
        assert Tracer.from_env({}) is None
        assert Tracer.from_env({"REPRO_TRACE": ""}) is None

    def test_from_env_builds_configured_tracer(self):
        tracer = Tracer.from_env({"REPRO_TRACE": "bfetch",
                                  "REPRO_TRACE_FILE": "/tmp/x.jsonl"})
        assert tracer.channel("bfetch") is not None
        assert tracer.path == "/tmp/x.jsonl"

    def test_validate_jsonl_flags_problems(self):
        bad = json.dumps({"cat": "nope", "ev": "x", "cycle": -1}) + "\ngarbage\n"
        problems = validate_jsonl(bad)
        assert any("unknown category" in p for p in problems)
        assert any("cycle" in p for p in problems)
        assert any("unparseable" in p for p in problems)


# ----------------------------------------------------------------------
# Profiler


class TestProfiler:
    def test_sections_accumulate_time_calls_and_items(self):
        prof = Profiler()
        with prof.section("run", items=100):
            pass
        with prof.section("run", items=50):
            pass
        phase = prof.phases["run"]
        assert phase.calls == 2
        assert phase.items == 150
        assert phase.seconds >= 0.0
        assert prof.as_dict()["run"]["items"] == 150
        assert "run" in prof.summary()
        assert "run" in prof.render()


# ----------------------------------------------------------------------
# Disjoint feedback counters + derived ratios


class TestFeedbackDisjoint:
    def test_outcomes_partition_resolved(self):
        p = Prefetcher()
        for outcome in ("useful", "useful", "late", "useless"):
            p.feedback(None, outcome)
        s = p.stats
        assert (s.useful, s.late, s.useless) == (2, 1, 1)
        assert s.resolved == 4
        assert s.accuracy == pytest.approx(3 / 4)
        assert s.timeliness == pytest.approx(2 / 3)

    def test_system_registry_ratios_match_payload(self):
        system = System(build_workload("libquantum"),
                        SystemConfig(prefetcher="stride"))
        result = system.run(8000)
        dump = system.stats.dump()
        pf = result.data["prefetch"]
        demanded = pf["useful"] + pf["late"]
        resolved = demanded + pf["useless"]
        expected = demanded / resolved if resolved else 0.0
        assert dump["pf.stride.accuracy"] == pytest.approx(expected)
        assert dump["core.ipc"] == pytest.approx(result.ipc)
        assert dump["mem.l1d.misses"] == result.data["l1d"]["misses"]


# ----------------------------------------------------------------------
# Block geometry derived from the configured line size


class TestBlockGeometry:
    def test_prefetcher_block_shift_follows_line_size(self):
        p = Prefetcher(block_bytes=32)
        assert p.block_shift == 5
        p.push(0x20)
        p.push(0x3F)  # same 32B block -> deduped at push
        assert len(p.queue) == 1

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            Prefetcher(block_bytes=48)

    def test_system_runs_with_32_byte_lines(self):
        config = SystemConfig(
            prefetcher="bfetch",
            hierarchy=HierarchyConfig(block_bytes=32),
        )
        assert config.core.block_bytes == 32
        system = System(build_workload("libquantum"), config)
        assert system.prefetcher.block_shift == 5
        result = system.run(6000)
        assert result.instructions > 0
        assert result.cycles > 0

    def test_bfetch_delta_learning_uses_configured_shift(self):
        from repro.core.bfetch import BFetchPrefetcher
        pf = BFetchPrefetcher(block_bytes=128)
        assert pf.block_shift == 7
        assert pf.block_bytes == 128


# ----------------------------------------------------------------------
# Byte-identity: observability must not change simulation results


class TestByteIdentity:
    def test_run_result_identical_with_and_without_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        config = SystemConfig(prefetcher="bfetch")
        plain = System(build_workload("libquantum"), config)
        assert plain.tracer is None
        base = plain.run(6000).as_dict()

        traced_system = System(
            build_workload("libquantum"),
            SystemConfig(prefetcher="bfetch"),
            tracer=Tracer(parse_trace_spec("all")),
        )
        traced = traced_system.run(6000).as_dict()
        assert traced_system.tracer.events  # it really did trace
        assert json.dumps(base, sort_keys=True) == \
            json.dumps(traced, sort_keys=True)


# ----------------------------------------------------------------------
# Metrics hardening + RunResult dunder guard


class TestMetricsErrors:
    def test_weighted_speedup_names_the_offending_benchmark(self):
        with pytest.raises(ValueError, match="leslie3d"):
            weighted_speedup([1.0, 1.0], [1.2, 0.0],
                             benchmarks=["gamess", "leslie3d"])

    def test_weighted_speedup_mismatch_message(self):
        with pytest.raises(ValueError, match="mismatched"):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="benchmark names"):
            weighted_speedup([1.0], [1.0], benchmarks=["a", "b"])

    def test_normalize_names_the_quantity(self):
        with pytest.raises(ValueError, match="baseline IPC"):
            normalize(1.5, 0.0, label="baseline IPC")


class TestRunResultGuard:
    def test_deepcopy_and_pickle_round_trip(self):
        result = RunResult({"workload": "x", "ipc": 1.25})
        clone = copy.deepcopy(result)
        assert clone.as_dict() == result.as_dict()
        revived = pickle.loads(pickle.dumps(result))
        assert revived.ipc == 1.25

    def test_dunder_probe_raises_attribute_error(self):
        result = RunResult({"workload": "x", "__weird__": 1})
        # copy/pickle probe dunders through getattr; the guard must fail
        # fast instead of resolving them from the data dict (or, worse,
        # recursing on a pre-__init__ "data" probe during unpickling)
        with pytest.raises(AttributeError):
            result.__deepcopy__  # noqa: B018 - probing the guard
        with pytest.raises(AttributeError):
            result.nonexistent_key


# ----------------------------------------------------------------------
# batch profiling


class TestBatchProfile:
    def test_run_many_attaches_phase_profile(self, tmp_path):
        from repro.sim.runner import ExperimentRunner, RunRequest
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        runner.run_many([RunRequest("libquantum", "none", 4000)], jobs=1)
        profile = runner.last_report.profile
        assert profile is not None
        assert "probe" in profile.phases
        assert "execute" in profile.phases
        assert profile.phases["execute"].items == 4000
        assert runner.last_report.as_dict()["profile"]["probe"]["calls"] == 1
        # all-hits second batch: no execute phase
        runner.run_many([RunRequest("libquantum", "none", 4000)], jobs=1)
        assert "execute" not in runner.last_report.profile.phases
        assert runner.last_report.hits == 1


# ----------------------------------------------------------------------
# atomic_write_text


class TestAtomicWrite:
    def test_creates_parents_and_leaves_no_debris(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.json"
        atomic_write_text(str(target), "{}")
        assert target.read_text() == "{}"
        assert not [n for n in os.listdir(str(target.parent))
                    if n.startswith(".tmp-")]

"""Parallel batch API: determinism, cache-aware scheduling, key identity."""

import itertools

import pytest

from repro.sim import ExperimentRunner, RunRequest, SystemConfig
from repro.sim.runner import default_jobs

BENCHES = ("gamess", "libquantum", "mcf")
BUDGET = 4_000


def _requests(benches=BENCHES, prefetchers=("none", "stride")):
    return [
        RunRequest(bench, prefetcher, BUDGET)
        for bench in benches
        for prefetcher in prefetchers
    ]


def test_run_many_matches_serial_byte_identical(tmp_path):
    serial = ExperimentRunner()
    expected = [
        serial.run_single(r.benchmark, r.prefetcher, r.instructions)
        for r in _requests()
    ]
    parallel = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
    got = parallel.run_many(_requests(), jobs=4)
    assert [r.as_dict() for r in got] == [r.as_dict() for r in expected]


def test_run_many_without_cache_dir(tmp_path):
    runner = ExperimentRunner()  # no disk cache at all
    results = runner.run_many(_requests(benches=("gamess",)), jobs=2)
    assert [r.prefetcher for r in results] == ["none", "stride"]
    assert all(r.instructions == BUDGET for r in results)


def test_run_many_serial_path_equivalent(tmp_path):
    a = ExperimentRunner(cache_dir=str(tmp_path / "a"))
    b = ExperimentRunner(cache_dir=str(tmp_path / "b"))
    jobs1 = a.run_many(_requests(), jobs=1)
    jobs4 = b.run_many(_requests(), jobs=4)
    assert [r.as_dict() for r in jobs1] == [r.as_dict() for r in jobs4]


def test_run_many_respects_repro_jobs_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert default_jobs() == 2
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    results = runner.run_many(_requests(benches=("gamess",)))
    assert len(results) == 2
    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_repro_jobs_rejects_non_positive(monkeypatch):
    for bad in ("0", "-4"):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS must be a positive"):
            default_jobs()


def test_run_many_rejects_non_positive_jobs():
    runner = ExperimentRunner()
    with pytest.raises(ValueError, match="jobs must be a positive"):
        runner.run_many([RunRequest("gamess", "none", BUDGET)], jobs=0)


def test_run_many_deduplicates_identical_requests():
    runner = ExperimentRunner()
    request = RunRequest("gamess", "none", BUDGET)
    results = runner.run_many([request, request, request], jobs=1)
    dicts = [r.as_dict() for r in results]
    assert dicts[0] == dicts[1] == dicts[2]
    # each caller gets an isolated copy, not a shared alias
    results[0].data["ipc"] = -1.0
    assert results[1].ipc != -1.0


def test_run_many_served_from_warm_cache_without_pool(tmp_path, monkeypatch):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    first = runner.run_many(_requests(), jobs=1)
    # poison the execution path: any recompute would now blow up
    import repro.sim.runner as runner_mod

    def _boom(*args, **kwargs):
        raise AssertionError("cache-aware scheduling dispatched a hit")

    monkeypatch.setattr(runner_mod, "_execute_single", _boom)
    warm = ExperimentRunner(cache_dir=str(tmp_path))
    second = warm.run_many(_requests(), jobs=4)
    assert [r.as_dict() for r in second] == [r.as_dict() for r in first]


def test_sweep_shape_and_baseline_sharing(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    baselines, table = runner.sweep(
        ("gamess", "libquantum"), ("stride",), instructions=BUDGET, jobs=2
    )
    assert set(baselines) == {"gamess", "libquantum"}
    assert set(table["gamess"]) == {"stride"}
    for bench in baselines:
        assert baselines[bench].prefetcher == "none"
        assert table[bench]["stride"].workload == bench


# ----------------------------------------------------------------------
# cache-key identity


def test_config_key_round_trips():
    config = SystemConfig(prefetcher="bfetch", width=2, bp_scale=0.5)
    assert config.key() == config.key()
    rebuilt = SystemConfig(prefetcher="bfetch", width=2, bp_scale=0.5)
    assert rebuilt.key() == config.key()


def test_distinct_configs_never_collide():
    variants = [
        SystemConfig(),
        SystemConfig(width=2),
        SystemConfig(bp_scale=0.5),
        SystemConfig(prefetcher="stride"),
        SystemConfig(prefetcher="nextn"),
        SystemConfig(branch_predictor="perceptron"),
    ]
    keys = [v.key() for v in variants]
    for (i, a), (j, b) in itertools.combinations(enumerate(keys), 2):
        assert a != b, "configs %d and %d collide" % (i, j)


def test_distinct_bfetch_configs_never_collide():
    from repro.core.config import BFetchConfig

    variants = [
        SystemConfig(prefetcher="bfetch"),
        SystemConfig(prefetcher="bfetch",
                     bfetch=BFetchConfig(brtc_entries=128)),
        SystemConfig(prefetcher="bfetch",
                     bfetch=BFetchConfig(path_confidence_threshold=0.5)),
        SystemConfig(prefetcher="bfetch", bfetch=BFetchConfig(use_filter=False)),
        SystemConfig(prefetcher="bfetch",
                     bfetch=BFetchConfig(instruction_prefetch=True)),
    ]
    keys = [v.key() for v in variants]
    assert len(set(keys)) == len(keys)


def test_cache_key_includes_variant():
    runner = ExperimentRunner(cache_dir=None)
    base = runner._payload(("gamess", "none", 5000, SystemConfig(), 0))
    variant = runner._payload(("gamess", "none", 5000, SystemConfig(), 3))
    assert runner._memo_key(*base) != runner._memo_key(*variant)


def test_mix_batch_on_two_workers_matches_serial():
    """Mixes fan out over the pool like single runs, byte-identically;
    a mix's slot holds its per-core results."""
    requests = [RunRequest(("mcf", "libquantum"), prefetcher, BUDGET)
                for prefetcher in ("none", "bfetch")]
    requests.append(RunRequest("gamess", "none", BUDGET))

    def payloads(results):
        return [[core.as_dict() for core in result]
                if isinstance(result, list) else result.as_dict()
                for result in results]

    serial = ExperimentRunner().run_many(requests, jobs=1)
    parallel = ExperimentRunner().run_many(requests, jobs=2)
    assert payloads(parallel) == payloads(serial)
    assert [len(result) for result in serial[:2]] == [2, 2]


def test_probe_hashes_each_request_once(tmp_path):
    # the cache path and the memo key share one digest per request,
    # whether the probe hits the memo or the disk
    requests = [RunRequest("gamess", prefetcher, 2000)
                for prefetcher in ("none", "stride")]
    warm = ExperimentRunner(cache_dir=str(tmp_path))
    warm.run_batch(requests, jobs=1)
    for runner in (warm, ExperimentRunner(cache_dir=str(tmp_path))):
        kinds = []
        digest = runner._digest

        def counting(kind, payload, digest=digest, kinds=kinds):
            kinds.append(kind)
            return digest(kind, payload)

        runner._digest = counting
        _results, report = runner.run_batch(requests, jobs=1)
        assert report.hits == len(requests)
        assert kinds == ["single"] * len(requests)


# every sub-config field the key used to leave out, each with a
# non-default value: (sub-config, field, value)
_FORMERLY_UNKEYED = [
    ("hierarchy", "l1d_size", 32 * 1024),
    ("hierarchy", "l1d_assoc", 4),
    ("hierarchy", "llc_assoc", 8),
    ("hierarchy", "dram_latency", 400),
    ("hierarchy", "dram_cycles_per_transfer", 0),
    ("hierarchy", "block_bytes", 32),
    ("bfetch", "filter_tables", 2),
    ("bfetch", "filter_initial", 1),
    ("bfetch", "queue_capacity", 50),
]


def _config_with(sub_config, field, value):
    from repro.core.config import BFetchConfig
    from repro.memory.hierarchy import HierarchyConfig

    make = {"hierarchy": HierarchyConfig, "bfetch": BFetchConfig}[sub_config]
    return SystemConfig(prefetcher="bfetch",
                        **{sub_config: make(**{field: value})})


def test_every_sub_config_field_reaches_the_key():
    """A non-default value of any field that changes results gives a
    distinct key."""
    default = SystemConfig(prefetcher="bfetch").key()
    keys = {}
    for sub_config, field, value in _FORMERLY_UNKEYED:
        key = _config_with(sub_config, field, value).key()
        assert key != default, "%s.%s is not keyed" % (sub_config, field)
        keys[key] = "%s.%s" % (sub_config, field)
    assert len(keys) == len(_FORMERLY_UNKEYED)


def test_default_sub_configs_keep_their_key():
    """Explicit sub-configs at their defaults key like implicit ones, and
    the default machine, a Fig. 15 storage point and the front end keep
    the keys their cached results were written under."""
    from repro.core.config import BFetchConfig
    from repro.memory.hierarchy import HierarchyConfig

    default = SystemConfig(prefetcher="bfetch")
    explicit = SystemConfig(prefetcher="bfetch", hierarchy=HierarchyConfig(),
                            bfetch=BFetchConfig())
    assert explicit.key() == default.key() == (
        4, 192, 1.0, "tournament", "bfetch", 2097152, "lru", 8, 8, 4,
        2048, 256, 128, 0.75, True, True, True, "execute", 6, 3, False)
    sized = SystemConfig(prefetcher="bfetch", bfetch=BFetchConfig.sized(64))
    assert sized.key() == (
        4, 192, 1.0, "tournament", "bfetch", 2097152, "lru", 8, 8, 4,
        2048, 64, 32, 0.75, True, True, True, "execute", 6, 3, False)
    ftq = SystemConfig(prefetcher="none", frontend="ftq", iprefetcher="fdip")
    assert ftq.key() == (
        4, 192, 1.0, "tournament", "none", 2097152, "lru", 8, 8, 4,
        2048, 256, 128, 0.75, True, True, True, "execute", 6, 3, False,
        "ftq", "fdip", 4, 32, 2, 4, 1, 2, 2, 32)


def test_key_literals_are_the_constants():
    """The key holds literals where fields became constants; each equals
    its constant, so a changed constant cannot go on serving results
    cached under its old value."""
    from repro.core.perload_filter import FILTER_THRESHOLD
    from repro.cpu.ooo import ROB_ENTRIES
    from repro.frontend import frontend, iprefetch
    from repro.memory.hierarchy import IMSHR_ENTRIES
    from repro.prefetchers.nextn import NEXTN_DEGREE
    from repro.prefetchers.sms import REGION_BYTES
    from repro.prefetchers.stride import STRIDE_DEGREE

    assert (ROB_ENTRIES, STRIDE_DEGREE, NEXTN_DEGREE, REGION_BYTES,
            FILTER_THRESHOLD) == (192, 8, 4, 2048, 3)
    assert (IMSHR_ENTRIES, frontend.FTQ_ENTRIES, frontend.FILL_WIDTH,
            iprefetch.FDIP_DEGREE, iprefetch.FDIP_DISTANCE,
            iprefetch.NEXTLINE_DEGREE, frontend.IPREFETCH_DRAIN_RATE,
            iprefetch.IPREFETCH_QUEUE_CAPACITY) == (4, 32, 2, 4, 1, 2, 2, 32)


def test_runner_never_serves_another_machines_result():
    """One runner, two machines that differ only in DRAM latency: the
    second run must be computed, not answered from the first's entry."""
    from repro.memory.hierarchy import HierarchyConfig

    slow = SystemConfig(prefetcher="bfetch",
                        hierarchy=HierarchyConfig(dram_latency=400))
    runner = ExperimentRunner(cache_dir=None)
    first = runner.run_single("mcf", "bfetch", BUDGET)
    second = runner.run_single("mcf", "bfetch", BUDGET, config=slow)
    fresh = ExperimentRunner(cache_dir=None).run_single(
        "mcf", "bfetch", BUDGET, config=slow)
    assert second.as_dict() == fresh.as_dict()
    assert second.ipc != first.ipc

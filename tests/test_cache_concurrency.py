"""Concurrent-writer safety of the shared result cache.

The job server multiplexes many clients onto one cache directory, and
with ``--workers N`` its fleet is N worker processes writing to that
directory at once -- so two writers racing on the *same* cache key is a
supported situation, not a corner case.  These tests pin down the guarantees:

* two processes computing the same key concurrently both succeed and
  agree bit-for-bit; the surviving entry is a valid envelope;
* readers racing a rewriting writer never observe a partial entry
  (``atomic_write_text`` = tmp file + ``os.replace``);
* the corrupt-entry discard in ``ExperimentRunner._cached`` is guarded
  by a stat signature (:func:`repro.obs.io.remove_if_unchanged`): a
  concurrent writer that replaced the bad entry with a good one never
  loses its write to our stale corruption verdict.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.obs.io import atomic_write_text, file_signature, remove_if_unchanged
from repro.resilience.envelope import unwrap_envelope, wrap_envelope
from repro.sim import ExperimentRunner, RunRequest
from repro.sim.runner import CACHE_VERSION

BUDGET = 2000


def _compute_same_key(cache_dir, barrier, slot, out):
    """Worker: rendezvous at the barrier, then race on one cache key."""
    runner = ExperimentRunner(cache_dir=cache_dir)
    barrier.wait(timeout=60)
    result = runner.run_single("libquantum", "stride", BUDGET)
    out[slot] = result.as_dict()


class TestSameKeyRace(object):
    def test_concurrent_processes_same_key(self, tmp_path):
        """N processes racing on one key all succeed and agree."""
        cache_dir = str(tmp_path / "cache")
        n = 3
        ctx = multiprocessing.get_context()
        with multiprocessing.Manager() as manager:
            barrier = ctx.Barrier(n)
            out = manager.dict()
            procs = [
                ctx.Process(target=_compute_same_key,
                            args=(cache_dir, barrier, slot, out))
                for slot in range(n)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=120)
                assert proc.exitcode == 0
            results = [out[slot] for slot in range(n)]
        assert all(result == results[0] for result in results)
        # the surviving entry is a valid, verifiable envelope holding
        # exactly the data every racer returned
        runner = ExperimentRunner(cache_dir=cache_dir)
        digest = runner.request_digest(
            RunRequest("libquantum", "stride", BUDGET)
        )
        path = os.path.join(cache_dir, "single", digest[:2],
                            "single-%s.json" % digest[:16])
        assert os.path.exists(path)
        with open(path) as handle:
            envelope = json.load(handle)
        data = unwrap_envelope(envelope, CACHE_VERSION, path=path)
        assert data == results[0]
        # and a fresh reader gets a cache hit, not a recompute
        fresh = runner.run_single("libquantum", "stride", BUDGET)
        assert fresh.as_dict() == results[0]

    def test_reader_never_sees_partial_entry(self, tmp_path):
        """Hammer one path with atomic rewrites; every read verifies."""
        path = str(tmp_path / "entry.json")
        payloads = [
            {"cycles": i, "blob": "x" * (1000 + i)} for i in range(8)
        ]
        atomic_write_text(
            path, json.dumps(wrap_envelope(payloads[0], CACHE_VERSION))
        )
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                payload = payloads[i % len(payloads)]
                atomic_write_text(
                    path, json.dumps(wrap_envelope(payload, CACHE_VERSION))
                )
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                with open(path) as handle:
                    envelope = json.load(handle)  # must always parse
                data = unwrap_envelope(envelope, CACHE_VERSION, path=path)
                assert data in payloads
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestGuardedDiscard(object):
    def test_remove_if_unchanged_removes_same_file(self, tmp_path):
        path = str(tmp_path / "victim.json")
        atomic_write_text(path, "garbage")
        signature = file_signature(os.stat(path))
        assert remove_if_unchanged(path, signature) is True
        assert not os.path.exists(path)

    def test_remove_if_unchanged_spares_rewritten_file(self, tmp_path):
        """A stale signature must not delete a concurrently-rewritten
        entry."""
        path = str(tmp_path / "entry.json")
        atomic_write_text(path, "garbage")
        stale = file_signature(os.stat(path))
        # concurrent writer replaces the corrupt entry with a good one
        atomic_write_text(path, json.dumps(
            wrap_envelope({"cycles": 1}, CACHE_VERSION)
        ))
        assert remove_if_unchanged(path, stale) is False
        assert os.path.exists(path)
        with open(path) as handle:
            assert unwrap_envelope(json.load(handle), CACHE_VERSION,
                                   path=path) == {"cycles": 1}

    def test_remove_if_unchanged_none_signature(self, tmp_path):
        path = str(tmp_path / "entry.json")
        atomic_write_text(path, "data")
        assert remove_if_unchanged(path, None) is False
        assert os.path.exists(path)

    def test_remove_if_unchanged_missing_file(self, tmp_path):
        assert remove_if_unchanged(str(tmp_path / "gone.json"),
                                   (1, 2, 3)) is False

    def test_cached_discard_respects_concurrent_rewrite(self, tmp_path):
        """End-to-end: a corrupt probe races a valid rewrite; the valid
        entry survives and is served."""
        cache_dir = str(tmp_path / "cache")
        runner = ExperimentRunner(cache_dir=cache_dir)
        result = runner.run_single("libquantum", "none", BUDGET)
        digest = runner.request_digest(
            RunRequest("libquantum", "none", BUDGET)
        )
        path = os.path.join(cache_dir, "single", digest[:2],
                            "single-%s.json" % digest[:16])
        # corrupt the entry on disk
        atomic_write_text(path, "{not json")
        # a fresh runner (cold memo) must discard + recompute, and the
        # recomputed entry must match the original bit-for-bit
        probe = ExperimentRunner(cache_dir=cache_dir)
        results, report = probe.run_batch(
            [RunRequest("libquantum", "none", BUDGET)]
        )
        assert report.cache_corruptions == 1
        assert results[0].as_dict() == result.as_dict()
        with open(path) as handle:
            data = unwrap_envelope(json.load(handle), CACHE_VERSION,
                                   path=path)
        assert data == result.as_dict()


class TestRunBatchApi(object):
    """run_batch is the thread-safe core run_many now wraps."""

    def test_run_batch_returns_results_and_report(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        requests = [RunRequest("libquantum", "none", BUDGET),
                    RunRequest("libquantum", "stride", BUDGET)]
        results, report = runner.run_batch(requests)
        assert len(results) == 2
        assert report.misses == 2 and report.hits == 0
        again, report2 = runner.run_batch(requests)
        assert report2.hits == 2 and report2.misses == 0
        assert [r.as_dict() for r in again] == [
            r.as_dict() for r in results
        ]

    def test_run_batch_progress_callback(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        ticks = []
        requests = [RunRequest("libquantum", "none", BUDGET),
                    RunRequest("mcf", "none", BUDGET)]
        runner.run_batch(requests, progress=lambda d, t: ticks.append((d, t)))
        assert ticks[-1] == (2, 2)
        assert [t for _d, t in ticks] == [2] * len(ticks)
        assert [d for d, _t in ticks] == sorted(d for d, _t in ticks)
        # all-cached batch: one tick covering the whole probe pass
        ticks2 = []
        runner.run_batch(requests,
                         progress=lambda d, t: ticks2.append((d, t)))
        assert ticks2 == [(2, 2)]

    def test_progress_exception_aborts_batch(self, tmp_path):
        """A raising progress callback aborts at a task boundary --
        the cooperative-cancellation contract the job server relies
        on."""

        class Stop(Exception):
            pass

        def progress(done, total):
            if done >= 1:  # abort after the first completed run
                raise Stop()

        requests = [RunRequest("libquantum", "none", BUDGET),
                    RunRequest("mcf", "none", BUDGET)]
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(Stop):
            runner.run_batch(requests, jobs=1, progress=progress)
        # completed work before the abort stays cached: on resubmission
        # the first run resolves from cache and only the rest compute
        results, report = runner.run_batch(requests, jobs=1)
        assert all(result is not None for result in results)
        assert report.hits == 1 and report.misses == 1

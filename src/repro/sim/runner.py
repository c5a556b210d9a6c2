"""Experiment runner: JSON result cache + fault-tolerant parallel batches.

Every table/figure reproduction is a composition of four primitives:

* :meth:`ExperimentRunner.run_single` -- one benchmark, one prefetcher;
* :meth:`ExperimentRunner.run_many` -- a *batch* of independent single
  runs, fanned out over a process pool with cache-aware scheduling;
* :meth:`ExperimentRunner.run_mix` -- one multiprogrammed mix on the CMP;
* :meth:`ExperimentRunner.foa_map` -- solo-run FOA values feeding the
  Chandra mix selection.

Results are memoised on disk keyed by (cache version, workload, budget,
full config identity) and in a per-process memory memo, so sweeps that
share a baseline -- every figure shares the no-prefetch runs -- never
recompute *or re-parse* it.  The disk layout shards entries into
``<cache_dir>/<kind>/<digest prefix>/`` directories; every write is
atomic (temp file + ``os.replace``) and wrapped in an integrity envelope
``{"v": CACHE_VERSION, "sha": <payload digest>, "data": ...}`` verified
on read, so a truncated, tampered, hash-collided or bare (envelope-less)
entry is detected as :class:`~repro.resilience.CacheCorruption` and
recomputed instead of being returned as a wrong result.

The batch engine is *fault tolerant* (see :mod:`repro.resilience` and
DESIGN.md section 5): each miss is persisted to the cache the moment it
finishes (the cache is a checkpoint -- a crashed or interrupted sweep
resumes where it stopped), failed/hung jobs are retried with
deterministic exponential backoff, a broken process pool is rebuilt, and
a pool that keeps dying degrades to the calling thread.  One scheduler
(:meth:`ExperimentRunner._run_tasks`) does all of it for every run --
a process pool, ``jobs=1`` and :meth:`ExperimentRunner.run_single` differ
only in the executor it submits to -- governed by a
:class:`~repro.resilience.FailurePolicy` and accounted in a per-batch
:class:`~repro.resilience.BatchReport` (``runner.last_report``).

Environment knobs:

* ``REPRO_SCALE`` scales all instruction budgets (e.g. ``0.25`` for quick
  smoke runs, ``4`` for higher-fidelity numbers; must be positive);
* ``REPRO_JOBS`` sets the default worker count for :meth:`run_many`
  (defaults to ``os.cpu_count()``; ``1`` forces serial execution);
* ``REPRO_FAULTS`` activates the deterministic fault-injection harness
  (chaos testing; see :mod:`repro.resilience.faults`);
* ``REPRO_CKPT_DIR`` / ``REPRO_CKPT_EVERY`` enable periodic simulation
  checkpoints: an interrupted (SIGINT/SIGTERM/SIGKILL) run resumes from
  the last checkpoint with byte-identical results (see
  :mod:`repro.checkpoint`);
* ``REPRO_CHECK`` turns on the runtime invariant sanitizer
  (``cheap``/``full``; see :mod:`repro.sanitize`).

Observability: every batch attaches a :class:`~repro.obs.Profiler` to its
:class:`~repro.resilience.BatchReport` (``report.profile``) splitting the
wall clock into a cache-``probe`` phase and an ``execute`` phase with a
simulated-instructions-per-second rate, so ``[resilience]`` summaries show
where a sweep's time went.  Atomic cache writes go through
:func:`repro.obs.io.atomic_write_text` (shared with the trace writer).
"""

import hashlib
import heapq
import itertools
import json
import os
import time
import traceback
from collections import deque, namedtuple
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future
from concurrent.futures import wait as _futures_wait

from repro.resilience.errors import (
    BatchReport,
    CacheCorruption,
    SimulationError,
    TaskTimeout,
    WorkerCrash,
)
from repro.resilience.policy import FailurePolicy
from repro.resilience.retry import backoff_delay
from repro.obs.profile import Profiler
from repro.obs.io import atomic_write_text, file_signature, remove_if_unchanged
from repro.checkpoint.manager import (
    from_env as _checkpointer_from_env,
    gc_stale_tmp,
    signal_guard,
)
from repro.resilience.envelope import (
    payload_sha as _payload_sha,
    unwrap_envelope,
    wrap_envelope,
)
from repro.sim.cmp import CMPSystem
from repro.sim.config import SystemConfig
from repro.sim.metrics import weighted_speedup
from repro.sim.system import RunResult, System
from repro.workloads.mixes import foa_from_result
from repro.workloads.spec import build_workload, check_variant

# v2: sharded cache layout (<kind>/<digest prefix>/ subdirectories) with
# integrity envelopes ({"v", "sha", "data"}) on every entry
# v3: disjoint prefetch outcome counters (useful no longer double-counts
# late, see DESIGN.md section 6) change cached payload values, so v2
# entries must not be served
CACHE_VERSION = 3

# default per-run instruction budgets (pre-REPRO_SCALE)
DEFAULT_SINGLE_BUDGET = 200_000
DEFAULT_MIX_BUDGET = 60_000

# digest characters used for the shard subdirectory fan-out
_SHARD_CHARS = 2

#: pool rebuilds tolerated per batch; one more and the rest of the batch
#: runs on the calling thread
MAX_POOL_REBUILDS = 2

#: scheduler tick, seconds: the granularity of timeout detection and of
#: the wait for a due retry
POLL_INTERVAL = 0.05

# (raw REPRO_SCALE string, parsed float) -- parsing the environment on
# every call showed up in sweep profiles; the raw-string comparison keeps
# monkeypatched environments working.
_scale_cache = (None, 1.0)


def scaled(budget):
    """Apply the REPRO_SCALE environment knob to an instruction budget.

    The parse is memoised on the raw string value; a non-numeric or
    non-positive value raises a clear :class:`ValueError` instead of a
    bare float() error or a silently-clamped budget.
    """
    global _scale_cache
    raw = os.environ.get("REPRO_SCALE")
    cached_raw, scale = _scale_cache
    if raw != cached_raw:
        if raw is None:
            scale = 1.0
        else:
            try:
                scale = float(raw)
            except ValueError:
                raise ValueError(
                    "REPRO_SCALE must be a number (e.g. 0.25 or 4), "
                    "got %r" % (raw,)
                )
            if scale <= 0:
                raise ValueError(
                    "REPRO_SCALE must be positive (e.g. 0.25 or 4), "
                    "got %r" % (raw,)
                )
        _scale_cache = (raw, scale)
    return max(1000, int(budget * scale))


def _check_instructions(instructions):
    """Return *instructions* if it is a positive ``int`` (not a bool).

    Checked before the cache probe and the retry loop, so a bad budget
    neither caches a bogus result nor burns the retry budget.
    """
    if isinstance(instructions, bool) or not isinstance(instructions, int) \
            or instructions <= 0:
        raise ValueError(
            "instructions must be a positive integer, got %r"
            % (instructions,))
    return instructions


def default_jobs():
    """Worker count for parallel batches: ``REPRO_JOBS`` or cpu count.

    ``REPRO_JOBS`` must be a positive integer; non-positive values are
    rejected rather than silently clamped (``REPRO_JOBS=1`` is the
    explicit way to force serial execution).
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw:
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                "REPRO_JOBS must be an integer, got %r" % (raw,)
            )
        if jobs <= 0:
            raise ValueError(
                "REPRO_JOBS must be a positive integer "
                "(1 forces serial execution), got %r" % (raw,)
            )
        return jobs
    return os.cpu_count() or 1


class RunRequest(
    namedtuple(
        "RunRequest",
        ("benchmark", "prefetcher", "instructions", "config", "variant"),
    )
):
    """One independent single-core job for :meth:`ExperimentRunner.run_many`.

    Unspecified fields take the same defaults as
    :meth:`~ExperimentRunner.run_single`.
    """

    __slots__ = ()

    def __new__(cls, benchmark, prefetcher="none", instructions=None,
                config=None, variant=0):
        return super().__new__(
            cls, benchmark, prefetcher, instructions, config, variant
        )


def active_fault_plan():
    """The ``REPRO_FAULTS`` fault plan, or None when no fault is armed.

    The fault-plan parser is imported only when the variable is set, so a
    run without chaos testing never loads it.
    """
    if not os.environ.get("REPRO_FAULTS"):
        return None
    from repro.resilience.faults import get_fault_plan
    plan = get_fault_plan()
    return plan if plan.active else None


def _sanitizer_from_env():
    """The ``REPRO_CHECK`` sanitizer, or None with checking off; the
    sanitizer is imported only when the variable is set."""
    if not os.environ.get("REPRO_CHECK"):
        return None
    from repro.sanitize.checks import Sanitizer
    return Sanitizer.from_env()


def _process_pool(jobs):
    """A pool of *jobs* worker processes.  Only a batch with ``jobs > 1``
    builds one, so only it imports :mod:`multiprocessing`."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=jobs)


def _run_armed(system, instructions, run_key, corrupt_at):
    """Run a built :class:`~repro.sim.System` or
    :class:`~repro.sim.CMPSystem` with what the environment arms: the
    ``REPRO_CKPT_DIR`` checkpoint ``<run_key>.ckpt.json``, the
    ``REPRO_CHECK`` sanitizer and the ``corrupt-state`` cycle; with any
    of them armed, under a SIGINT/SIGTERM guard."""
    sanitizer = _sanitizer_from_env()
    checkpointer = _checkpointer_from_env(run_key)
    if checkpointer is None and sanitizer is None and corrupt_at is None:
        return system.run(instructions)
    with signal_guard() as interrupt:
        return system.run(
            instructions, checkpointer=checkpointer, sanitizer=sanitizer,
            interrupt=interrupt, corrupt_at=corrupt_at,
        )


def _execute_single(benchmark, prefetcher, instructions, config, variant,
                    attempt=0, fault_key=None):
    """Worker body: build and run one system; returns the result dict.

    Module-level so it pickles for the process pool; simulation is fully
    deterministic (seeded workload construction, no wall-clock inputs),
    which is what makes parallel output byte-identical to serial.

    *attempt*/*fault_key* feed the deterministic fault-injection harness
    (``REPRO_FAULTS``); they never influence the simulation itself.  A
    ``corrupt-state`` fault deliberately damages the microarchitectural
    state mid-run to exercise the sanitizer.  The checkpoint is keyed on
    *fault_key* (see :func:`_run_armed`).
    """
    if fault_key is None:
        fault_key = repr((benchmark, prefetcher, instructions, variant))
    plan = active_fault_plan()
    corrupt_at = None
    if plan is not None:
        plan.inject_execution_faults(fault_key, attempt)
        corrupt_at = plan.corrupt_state_cycle(fault_key, attempt)
    system = System(build_workload(benchmark, variant), config)
    run_key = "single-%s" % hashlib.sha1(
        str(fault_key).encode()).hexdigest()[:16]
    return _run_armed(system, instructions, run_key, corrupt_at).as_dict()


class _InlineExecutor(object):
    """The calling thread as a one-slot executor.

    :meth:`submit` runs the job before it returns and hands back a
    finished :class:`~concurrent.futures.Future`, so ``jobs=1`` batches,
    a batch whose pool kept dying and
    :meth:`ExperimentRunner.run_single` all go through the process pool's
    scheduler.  A job running here cannot be interrupted: a
    ``task_timeout`` never fires on it, and ``KeyboardInterrupt``
    propagates out of :meth:`submit` itself.
    """

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        """Nothing runs in the background, so there is nothing to stop."""


class _Task(object):
    """One unique cache miss moving through the batch engine."""

    __slots__ = ("memo_key", "job", "path", "indices", "key", "attempts")

    def __init__(self, memo_key, job, path, indices):
        self.memo_key = memo_key
        self.job = job                  # resolved RunRequest field tuple
        self.path = path                # cache destination (or None)
        self.indices = indices          # result slots this job fills
        self.key = memo_key[1]          # digest: fault/jitter identity
        self.attempts = 0

    @property
    def request(self):
        return RunRequest(*self.job)

    @property
    def label(self):
        """How failure messages name the task: digest prefix and run."""
        return "task %s (%s/%s)" % (self.key[:12], self.job[0], self.job[1])


class _ProgressTracker(object):
    """Counts filled result slots and forwards them to a callback.

    The callback signature is ``fn(done, total)`` where *done* is the
    cumulative number of result slots resolved so far (cache hits,
    completed computes, and skipped failures all count -- duplicates of
    one compute resolve together) and *total* is the batch size.  An
    exception raised by the callback deliberately aborts the batch:
    :mod:`repro.serve` uses this to cancel a running job at the next
    task boundary, losing nothing already persisted to the cache.
    """

    __slots__ = ("fn", "done", "total")

    def __init__(self, fn, total):
        self.fn = fn
        self.done = 0
        self.total = total

    def advance(self, slots):
        self.done += slots
        self.fn(self.done, self.total)


class ExperimentRunner:
    """Runs simulations with on-disk + in-memory memoisation.

    :param cache_dir: directory for cached results; None disables the disk
        cache (the in-memory memo stays active for the runner's lifetime).
    :param jobs: default worker count for :meth:`run_many`; None defers to
        ``REPRO_JOBS`` / cpu count at call time.
    :param policy: default :class:`~repro.resilience.FailurePolicy` for
        :meth:`run_single`/:meth:`run_many`; None means
        ``FailurePolicy()``.

    After each :meth:`run_many` call, :attr:`last_report` holds the
    :class:`~repro.resilience.BatchReport` for the batch.
    """

    def __init__(self, cache_dir=None, jobs=None, policy=None):
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.policy = policy
        self.last_report = None
        self._memo = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            # a crashed writer can leave ".tmp-*" droppings behind from
            # interrupted atomic_write_text calls; sweep them on open
            gc_stale_tmp(cache_dir)

    # ------------------------------------------------------------------
    # cache plumbing

    def _digest(self, kind, payload):
        return hashlib.sha1(
            json.dumps([CACHE_VERSION, kind, payload], sort_keys=True).encode()
        ).hexdigest()

    def _memo_key(self, kind, payload):
        """In-memory memo key ``(kind, digest)``; digest-based so it
        works without a cache_dir too."""
        return (kind, self._digest(kind, payload))

    def _cache_path(self, memo_key):
        """Sharded cache location for a memo key (None when caching is
        off); it reuses the key's digest, so a probe hashes once.

        Layout: ``<cache_dir>/<kind>/<digest[:2]>/<kind>-<digest>.json``.
        Sharding bounds directory size during wide sweeps and gives
        concurrent writers (different shards) less directory contention.
        """
        if not self.cache_dir:
            return None
        kind, digest = memo_key
        return os.path.join(
            self.cache_dir,
            kind,
            digest[:_SHARD_CHARS],
            "%s-%s.json" % (kind, digest[:16]),
        )

    def request_digest(self, request):
        """Stable cache digest identifying one single-run request.

        Two requests with the same digest are guaranteed to share a
        cache entry (and therefore to coalesce inside one batch); the
        job server uses this to deduplicate identical submissions
        across *different* batches too.
        """
        job = self._resolve_request(request)
        benchmark, prefetcher, instructions, config, variant = job
        payload = self._single_payload(benchmark, instructions, config,
                                       variant)
        return self._digest("single", payload)

    def memo_holds(self, digests):
        """True when every :meth:`request_digest` in *digests* is in the
        in-memory memo, so a batch of those requests reads no file and
        runs nothing.

        It hashes nothing and builds no config.  Memo entries are never
        removed, so a True answer still holds when the batch probes.
        """
        memo = self._memo
        return all(("single", digest) in memo for digest in digests)

    def _load_entry(self, path):
        """Read and verify one cache entry; returns the inner payload.

        :raises FileNotFoundError: no entry at *path*.
        :raises CacheCorruption: unparseable JSON, a bare payload without
            the ``{"v", "sha", "data"}`` envelope, an envelope with the
            wrong version, or a payload that fails digest verification
            (e.g. a hash-prefix collision or manual tampering).
        """
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise
        except (ValueError, OSError) as exc:
            raise CacheCorruption(
                "unreadable cache entry %s: %s" % (path, exc), path=path
            )
        return unwrap_envelope(data, CACHE_VERSION, path=path)

    def _cached(self, path, memo_key=None, report=None):
        """Return the cached payload for *path*, or None.

        Probes the in-memory memo first (repeated baseline lookups stop
        re-reading and re-parsing JSON).  A corrupt, tampered or
        unreadable disk entry is discarded -- the run is recomputed
        rather than crashing the sweep -- and counted on *report* when
        one is supplied.  The discard is *guarded*: the entry's stat
        signature is captured before the read and the unlink only
        happens if the file is still that same file
        (:func:`~repro.obs.io.remove_if_unchanged`), so a concurrent
        writer that has just replaced the entry with a fresh valid one
        never loses its write to our stale corruption verdict.
        """
        if memo_key is not None:
            hit = self._memo.get(memo_key)
            if hit is not None:
                return hit
        if not path:
            return None
        try:
            signature = file_signature(os.stat(path))
        except OSError:
            signature = None
        try:
            data = self._load_entry(path)
        except FileNotFoundError:
            return None
        except CacheCorruption:
            if report is not None:
                report.cache_corruptions += 1
            remove_if_unchanged(path, signature)
            return None
        if memo_key is not None:
            self._memo[memo_key] = data
        return data

    def _save(self, path, data, memo_key=None):
        """Persist *data* in an integrity envelope, atomically.

        The envelope (``{"v", "sha", "data"}``) lets :meth:`_load_entry`
        verify the payload on read; the temp-file + ``os.replace`` dance
        (:func:`repro.obs.io.atomic_write_text`, shared with the trace
        writer) is safe under concurrent writers, so readers never
        observe a partial entry.  (The ``corrupt-cache`` fault of
        ``REPRO_FAULTS`` injects garbage here to exercise the
        verification path.)
        """
        if memo_key is not None:
            self._memo[memo_key] = data
        if not path:
            return
        text = json.dumps(wrap_envelope(data, CACHE_VERSION))
        plan = active_fault_plan()
        if plan is not None:
            garbage = plan.corrupt_payload(path)
            if garbage is not None:
                text = garbage
        atomic_write_text(path, text)

    # ------------------------------------------------------------------
    # cache maintenance

    def cache_stats(self, kind=None):
        """Per-kind entry counts and byte totals of the on-disk cache.

        Returns ``{kind: {"entries": n, "bytes": b}}`` over every kind
        directory under ``cache_dir`` (``single``, ``mix``), skipping
        in-flight ``.tmp-`` files.  Empty when caching is off.  *kind*
        restricts the report to one kind directory.
        """
        stats = {}
        if not self.cache_dir or not os.path.isdir(self.cache_dir):
            return stats
        for entry in sorted(os.listdir(self.cache_dir)):
            if kind is not None and entry != kind:
                continue
            root = os.path.join(self.cache_dir, entry)
            if not os.path.isdir(root):
                continue
            entries = 0
            total = 0
            for dirpath, _dirnames, filenames in os.walk(root):
                for name in filenames:
                    if name.startswith(".tmp-"):
                        continue
                    try:
                        total += os.path.getsize(
                            os.path.join(dirpath, name))
                        entries += 1
                    except OSError:
                        continue
            stats[entry] = {"entries": entries, "bytes": total}
        return stats

    def cache_gc(self, older_than_seconds, kind=None):
        """Evict cache entries not modified in *older_than_seconds*.

        Safe against concurrent writers: each candidate's identity
        (inode, size, mtime) is captured before the age test and the
        unlink goes through
        :func:`repro.obs.io.remove_if_unchanged`, so an entry refreshed
        between the stat and the unlink is left alone.  Empty shard
        directories are pruned opportunistically.  *kind* restricts the
        sweep to one kind directory (e.g. evict ``mix`` entries while
        keeping ``single`` results).  Returns ``{"removed": n,
        "bytes": b}``.
        """
        removed = 0
        freed = 0
        if not self.cache_dir or not os.path.isdir(self.cache_dir):
            return {"removed": removed, "bytes": freed}
        root = self.cache_dir if kind is None \
            else os.path.join(self.cache_dir, kind)
        if not os.path.isdir(root):
            return {"removed": removed, "bytes": freed}
        cutoff = time.time() - max(0, older_than_seconds)
        for dirpath, dirnames, filenames in os.walk(root, topdown=False):
            for name in filenames:
                if name.startswith(".tmp-"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                if stat.st_mtime >= cutoff:
                    continue
                if remove_if_unchanged(path, file_signature(stat)):
                    removed += 1
                    freed += stat.st_size
            if dirpath not in (self.cache_dir, root) and not dirnames:
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass
        return {"removed": removed, "bytes": freed}

    # ------------------------------------------------------------------
    # single-run primitives

    def _resolve_policy(self, policy=None):
        if policy is not None:
            return policy
        if self.policy is not None:
            return self.policy
        return FailurePolicy()

    def _resolve_request(self, request):
        """Normalise a :class:`RunRequest`/tuple into concrete job args."""
        if not isinstance(request, RunRequest):
            request = RunRequest(*request)
        benchmark, prefetcher, instructions, config, variant = request
        if instructions is None:
            instructions = scaled(DEFAULT_SINGLE_BUDGET)
        _check_instructions(instructions)
        check_variant(variant)
        config = config or SystemConfig(prefetcher=prefetcher)
        if config.prefetcher != prefetcher:
            raise ValueError("config.prefetcher disagrees with prefetcher arg")
        return benchmark, prefetcher, instructions, config, variant

    def _single_payload(self, benchmark, instructions, config, variant):
        payload = [benchmark, instructions, list(config.key())]
        if variant:
            payload.append(variant)
        return payload

    def run_single(self, benchmark, prefetcher="none", instructions=None,
                   config=None, variant=0, policy=None):
        """Run one benchmark solo; returns a :class:`~repro.sim.RunResult`.

        *variant* selects a re-seeded instance of the workload (see
        :func:`~repro.workloads.build_workload`).  This is a one-request
        :meth:`run_batch` on the calling thread: a failing run is
        retried per the :class:`~repro.resilience.FailurePolicy` (no
        per-task timeout -- an in-process run cannot be interrupted) and
        raises a structured :class:`~repro.resilience.SimulationError`
        once the retry budget is exhausted, whatever the policy's
        ``on_error``.
        """
        policy = FailurePolicy(
            **dict(self._resolve_policy(policy)._asdict(), on_error="raise"))
        results, _report = self.run_batch(
            [RunRequest(benchmark, prefetcher, instructions, config,
                        variant)],
            jobs=1, policy=policy,
        )
        return results[0]

    # ------------------------------------------------------------------
    # parallel batch API

    def run_many(self, requests, jobs=None, policy=None, progress=None):
        """Run a batch of independent single-core jobs, in parallel.

        Thin wrapper over :meth:`run_batch` that keeps the historical
        interface: returns only the result list and stores the batch's
        :class:`~repro.resilience.BatchReport` on :attr:`last_report`.
        Callers running batches concurrently from several threads (the
        job server's worker tier) should use :meth:`run_batch` directly
        -- ``last_report`` is a single attribute and concurrent batches
        overwrite it.
        """
        results, _ = self.run_batch(
            requests, jobs=jobs, policy=policy, progress=progress,
            report_sink=lambda report: setattr(self, "last_report", report),
        )
        return results

    def run_batch(self, requests, jobs=None, policy=None, progress=None,
                  report_sink=None):
        """Run a batch of independent single-core jobs, in parallel.

        :param requests: iterable of :class:`RunRequest` (or tuples with
            the same field order).
        :param jobs: worker processes; defaults to the runner's ``jobs``,
            then ``REPRO_JOBS``, then ``os.cpu_count()``.
        :param policy: :class:`~repro.resilience.FailurePolicy` override
            for this batch.
        :param progress: optional ``fn(done, total)`` callback invoked
            (from the calling thread) whenever result slots resolve --
            once after the cache-probe pass with the hit count, then
            after every completed or skipped compute.  An exception
            raised by the callback aborts the batch at that task
            boundary (everything already completed stays cached); the
            job server uses this for cooperative cancellation.
        :param report_sink: optional callable receiving the batch's
            :class:`~repro.resilience.BatchReport` as soon as it is
            created (before any work runs).  The report is mutated in
            place, so the caller keeps a view of the partial counters --
            including the recorded failure -- even when the batch raises
            (:meth:`run_many` uses this to keep ``last_report`` accurate
            on error paths).
        :returns: ``(results, report)`` where *results* is a list of
            :class:`~repro.sim.RunResult` in *request order* --
            scheduling is cache-aware (hits are served from the
            memo/disk without touching the pool; duplicate requests are
            simulated once) but the output ordering is deterministic and
            byte-identical to running each request serially.  Under
            ``on_error="skip"``, a slot whose job ultimately failed holds
            ``None``.  *report* is the batch's
            :class:`~repro.resilience.BatchReport`.

        Fault tolerance: every miss is persisted to the cache the moment
        it finishes, so a later failure or an interrupt loses at most the
        in-flight jobs and re-running the batch resumes from the cache.
        Failed or hung jobs are retried with deterministic backoff; a
        broken pool is rebuilt up to :data:`MAX_POOL_REBUILDS` times and
        then the batch degrades to the calling thread.
        ``KeyboardInterrupt`` shuts the pool down (cancelling queued
        futures) and re-raises.

        This method is safe to call concurrently from multiple threads
        of one process: each call owns its report, profiler, pool and
        scheduling state, and the shared memo/disk cache is written
        atomically (last identical write wins).
        """
        resolved = [self._resolve_request(request) for request in requests]
        policy = self._resolve_policy(policy)
        report = BatchReport(total=len(resolved))
        report.profile = profiler = Profiler()
        if report_sink is not None:
            report_sink(report)
        tracker = (_ProgressTracker(progress, len(resolved))
                   if progress is not None else None)
        results = [None] * len(resolved)

        # cache probe pass: serve hits, group misses by identity
        miss_groups = {}  # memo_key -> _Task
        with profiler.section("probe", items=len(resolved)):
            for index, job in enumerate(resolved):
                benchmark, prefetcher, instructions, config, variant = job
                payload = self._single_payload(benchmark, instructions,
                                               config, variant)
                memo_key = self._memo_key("single", payload)
                path = self._cache_path(memo_key)
                cached = self._cached(path, memo_key, report=report)
                if cached is not None:
                    results[index] = RunResult(dict(cached))
                    report.hits += 1
                    continue
                task = miss_groups.get(memo_key)
                if task is None:
                    miss_groups[memo_key] = _Task(memo_key, job, path,
                                                  [index])
                else:
                    task.indices.append(index)

        report.misses = len(miss_groups)
        if tracker is not None:
            tracker.advance(report.hits)
        if not miss_groups:
            return results, report

        if jobs is None:
            jobs = self.jobs
        if jobs is None:
            jobs = default_jobs()
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(
                "jobs must be a positive integer (1 forces serial "
                "execution), got %r" % (jobs,)
            )
        jobs = min(jobs, len(miss_groups))

        tasks = list(miss_groups.values())
        # execute phase: rate = simulated instructions per wall-clock
        # second across all misses (each duplicate group simulates once)
        simulated = sum(task.job[2] for task in tasks)
        with profiler.section("execute", items=simulated):
            self._run_tasks(tasks, results, report, policy, jobs, tracker)
        return results, report

    # -- batch internals ------------------------------------------------

    def _complete(self, task, data, results, report, tracker=None):
        """Persist one finished miss immediately (save-as-completed)."""
        self._save(task.path, data, task.memo_key)
        for index in task.indices:
            results[index] = RunResult(dict(data))
        if tracker is not None:
            tracker.advance(len(task.indices))

    def _finalize_failure(self, task, error, results, report, policy,
                          allow_serial=True, tracker=None):
        """A task exhausted its retry budget: apply ``policy.on_error``."""
        error.request = task.request
        error.attempts = task.attempts
        if policy.on_error == "serial" and allow_serial:
            # last resort: run the job in-process, bypassing the pool
            report.degradations += 1
            try:
                data = _execute_single(*task.job, attempt=task.attempts,
                                       fault_key=task.key)
            except Exception as exc:
                final = SimulationError(
                    "%s failed in-process after pool failures: %s"
                    % (task.label, exc),
                    request=task.request,
                    attempts=task.attempts + 1,
                    cause_traceback=traceback.format_exc(),
                )
                report.record_failure(final)
                raise final from exc
            self._complete(task, data, results, report, tracker)
            return
        if policy.on_error == "skip":
            report.skipped += 1
            report.record_failure(error)
            if tracker is not None:
                tracker.advance(len(task.indices))
            return
        report.record_failure(error)
        raise error

    def _run_tasks(self, tasks, results, report, policy, jobs, tracker=None):
        """The one scheduler: retries, timeouts, rebuilds, degradation.

        Structure: a ready ``queue``, a ``retry_heap`` of
        ``(not_before, seq, task)`` backoff entries, and a ``pending``
        map of in-flight futures.  Each loop tick tops the executor up to
        its effective capacity, waits briefly for completions, persists
        every finished job immediately, scans for per-task timeouts, and
        rebuilds the pool when it breaks (worker crash) or when every
        worker slot is blocked by an abandoned hung job.

        The executor is a :class:`ProcessPoolExecutor` of *jobs* workers,
        or the calling thread (:class:`_InlineExecutor`) when ``jobs ==
        1`` and once the pool has been rebuilt more than
        :data:`MAX_POOL_REBUILDS` times; on the calling thread a job is
        never timed out and ``on_error="serial"`` has no further fallback,
        so it raises.  Either way every failure is retried, counted and
        named the same way (:attr:`_Task.label`).
        """
        queue = deque(tasks)
        retry_heap = []               # (ready_time, seq, task)
        seq = itertools.count()
        pending = {}                  # future -> (task, start_time)
        abandoned = 0                 # hung workers we walked away from
        rebuilds = 0
        pool = _InlineExecutor() if jobs == 1 else _process_pool(jobs)

        def fail(task, error, now):
            """Retry with backoff, or finalise per the failure policy."""
            task.attempts += 1
            if task.attempts <= policy.retries:
                report.retries += 1
                delay = backoff_delay(task.key, task.attempts - 1)
                heapq.heappush(retry_heap, (now + delay, next(seq), task))
            else:
                self._finalize_failure(task, error, results, report, policy,
                                       allow_serial=jobs > 1,
                                       tracker=tracker)

        try:
            while queue or retry_heap or pending:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    queue.append(heapq.heappop(retry_heap)[2])

                broken = False
                capacity = max(1, jobs - abandoned)
                while queue and len(pending) < capacity:
                    task = queue.popleft()
                    try:
                        future = pool.submit(
                            _execute_single, *task.job,
                            attempt=task.attempts, fault_key=task.key,
                        )
                    except RuntimeError:
                        # a broken or shut-down pool refuses new work
                        queue.appendleft(task)
                        broken = True
                        break
                    pending[future] = (task, time.monotonic())

                if pending and not broken:
                    done, _ = _futures_wait(
                        pending, timeout=POLL_INTERVAL,
                        return_when=FIRST_COMPLETED,
                    )
                    now = time.monotonic()
                    # in submission order, so a batch's failures are
                    # handled (and raised) deterministically
                    for future in [f for f in pending if f in done]:
                        task, _started = pending.pop(future)
                        try:
                            data = future.result()
                        except BrokenExecutor as exc:
                            # the pool's worker process died
                            broken = True
                            report.crashes += 1
                            fail(task, WorkerCrash(
                                "%s: worker process died: %s"
                                % (task.label, exc),
                                request=task.request,
                                attempts=task.attempts + 1,
                            ), now)
                        except Exception as exc:
                            report.errors += 1
                            fail(task, SimulationError(
                                "%s raised %s: %s"
                                % (task.label, type(exc).__name__, exc),
                                request=task.request,
                                attempts=task.attempts + 1,
                                cause_traceback="".join(
                                    traceback.format_exception(
                                        type(exc), exc, exc.__traceback__
                                    )
                                ),
                            ), now)
                        else:
                            self._complete(task, data, results, report,
                                           tracker)
                    if policy.task_timeout is not None:
                        overdue = [
                            future
                            for future, (_task, started) in pending.items()
                            if now - started > policy.task_timeout
                        ]
                        for future in overdue:
                            task, _started = pending.pop(future)
                            if not future.cancel():
                                # already running: the worker is hung and
                                # cannot be interrupted; abandon it
                                abandoned += 1
                            report.timeouts += 1
                            fail(task, TaskTimeout(
                                "%s exceeded the %.3gs task timeout"
                                % (task.label, policy.task_timeout),
                                request=task.request,
                                attempts=task.attempts + 1,
                            ), now)
                elif not pending and retry_heap and not broken:
                    # nothing in flight: sleep until the next retry is due
                    time.sleep(min(POLL_INTERVAL,
                                   max(0.0, retry_heap[0][0] - now)))

                if broken or (abandoned and abandoned >= jobs):
                    # tear the pool down; requeue surviving in-flight
                    # tasks without charging them an attempt
                    pool.shutdown(wait=False, cancel_futures=True)
                    queue.extend(task for task, _started in pending.values())
                    pending.clear()
                    abandoned = 0
                    rebuilds += 1
                    report.pool_rebuilds += 1
                    if rebuilds > MAX_POOL_REBUILDS:
                        # the pool keeps dying: finish on this thread
                        report.degradations += len(queue) + len(retry_heap)
                        pool, jobs = _InlineExecutor(), 1
                    else:
                        pool = _process_pool(jobs)
        finally:
            # normal exit, a raised failure, or KeyboardInterrupt: always
            # cancel queued futures and release the pool without waiting
            # on abandoned hung workers, then let the exception re-raise
            pool.shutdown(wait=False, cancel_futures=True)

    def sweep(self, benchmarks, prefetchers, instructions=None, config_for=None,
              base_config=None, jobs=None, policy=None):
        """Cross-product sweep with the shared no-prefetch baseline.

        Runs ``benchmarks x (prefetchers + baseline)`` through
        :meth:`run_many` and returns ``(baselines, table)`` where
        *baselines* maps benchmark -> baseline :class:`RunResult` and
        *table* maps benchmark -> {prefetcher: RunResult}.

        :param config_for: optional ``fn(prefetcher) -> SystemConfig``.
        :param base_config: optional baseline config (must keep
            ``prefetcher="none"``).
        :param policy: :class:`~repro.resilience.FailurePolicy` override.
        """
        requests = []
        for bench in benchmarks:
            requests.append(
                RunRequest(bench, "none", instructions, base_config)
            )
            for prefetcher in prefetchers:
                config = config_for(prefetcher) if config_for else None
                requests.append(
                    RunRequest(bench, prefetcher, instructions, config)
                )
        results = iter(self.run_many(requests, jobs=jobs, policy=policy))
        baselines = {}
        table = {}
        for bench in benchmarks:
            baselines[bench] = next(results)
            table[bench] = {
                prefetcher: next(results) for prefetcher in prefetchers
            }
        return baselines, table

    # ------------------------------------------------------------------
    # mixes

    def run_mix(self, mix, prefetcher="none", instructions=None, config=None):
        """Run a multiprogrammed mix; returns per-core RunResults."""
        if not isinstance(mix, (list, tuple)) or not mix \
                or not all(isinstance(name, str) for name in mix):
            raise ValueError(
                "mix must be a non-empty list or tuple of benchmark "
                "names, got %r" % (mix,))
        if instructions is None:
            instructions = scaled(DEFAULT_MIX_BUDGET)
        _check_instructions(instructions)
        config = config or SystemConfig(prefetcher=prefetcher)
        payload = [list(mix), instructions, list(config.key())]
        memo_key = self._memo_key("mix", payload)
        path = self._cache_path(memo_key)
        cached = self._cached(path, memo_key)
        if cached is not None:
            return [RunResult(dict(entry)) for entry in cached]
        plan = active_fault_plan()
        corrupt_at = (plan.corrupt_state_cycle(memo_key[1])
                      if plan is not None else None)
        cmp_system = CMPSystem([build_workload(name) for name in mix], config)
        results = _run_armed(cmp_system, instructions,
                             "mix-%s" % memo_key[1][:16], corrupt_at)
        self._save(path, [result.as_dict() for result in results], memo_key)
        return results

    # ------------------------------------------------------------------
    # derived metrics

    def speedup(self, benchmark, prefetcher, instructions=None, config=None,
                base_config=None):
        """IPC ratio of *prefetcher* over the no-prefetch baseline."""
        base = self.run_single(benchmark, "none", instructions, base_config)
        run = self.run_single(benchmark, prefetcher, instructions, config)
        return run.ipc / base.ipc

    def weighted_speedup_normalized(self, mix, prefetcher,
                                    instructions=None,
                                    single_instructions=None,
                                    config=None, base_config=None):
        """Paper Figs. 9/10 metric: weighted speedup of the mix under
        *prefetcher*, normalised to the same mix without prefetching."""
        singles = [
            result.ipc
            for result in self.run_many(
                [RunRequest(name, "none", single_instructions)
                 for name in mix]
            )
        ]
        base = self.run_mix(mix, "none", instructions, base_config)
        run = self.run_mix(mix, prefetcher, instructions, config)
        ws_base = weighted_speedup([r.ipc for r in base], singles,
                                   benchmarks=mix)
        ws_run = weighted_speedup([r.ipc for r in run], singles,
                                  benchmarks=mix)
        return ws_run / ws_base

    def foa_map(self, benchmarks, instructions=None):
        """Solo-run FOA (LLC accesses / cycle) for mix selection."""
        benchmarks = list(benchmarks)
        results = self.run_many(
            [RunRequest(name, "none", instructions) for name in benchmarks]
        )
        return {
            name: foa_from_result(result)
            for name, result in zip(benchmarks, results)
        }

"""The asyncio job server: simulation-as-a-service.

One :class:`JobServer` turns the repository's batch substrate into a
network service.  Life of a submission::

    client frame {"type": "submit", ...}
        -> validate against the shared catalog (repro.sim.catalog)
        -> coalesce: identical live submission?  attach, don't recompute
        -> admit: bounded priority queue; past the high-water mark the
           reply is a typed "busy" error (backpressure, HTTP-429 style)
        -> dispatch: one job per supervisor member at a time
           (ExperimentRunner.run_batch: process fan-out, retries,
           timeouts, pool rebuilds, cache-as-checkpoint)
        -> progress/heartbeat events stream to subscribed clients
        -> terminal state (done / failed / cancelled) + metrics + trace

Execution: one :class:`~repro.serve.fleet.WorkerSupervisor` over
members of one kind.  By default they are ``max_concurrent`` in-process
:class:`~repro.serve.workers.ThreadWorker` threads (the "tier"); with
``workers >= 1`` (``repro serve --workers N``) they are supervised
worker subprocesses (the "fleet") with heartbeat liveness, automatic
respawn and worker-loss requeue.  Both kinds run
the same job body, so the server has one path for dispatch, requeue,
deadlines, cancellation and failures.
Client-supplied ``deadline_ms`` propagates submit -> queue -> member
-> every task boundary (expired jobs are shed with a typed
``deadline-exceeded`` error) and a
per-benchmark circuit breaker (:mod:`repro.serve.breaker`) rejects
persistently-failing workloads with a busy-class ``circuit-open``.

Endpoints (request ``type`` values): ``submit``, ``status``, ``result``
(optionally blocking until terminal), ``cancel``, ``stream``,
``catalog``, ``statz``, ``jobs``, ``fleet``, ``ping``.  Every failure
is a typed
``error`` frame (see :mod:`repro.serve.protocol`); nothing a client
sends -- malformed frames, oversized payloads, mid-stream disconnects,
cancels of finished jobs -- can wedge the server.

Observability: server-level metrics live in a
:class:`~repro.serve.metrics.ServeMetrics` registry served at the
``statz`` endpoint; job lifecycle events additionally flow through a
``serve``-category :class:`~repro.obs.Tracer` channel into a JSONL
file when ``trace_path`` is set (same schema and atomic writer as the
simulator's traces).

Shutdown: :meth:`JobServer.drain` (wired to SIGTERM/SIGINT by the CLI)
stops admitting, lets queued + running jobs finish within a grace
period, then requests cooperative cancellation -- every completed task
is already persisted in the result cache, so interrupted sweeps resume
on resubmission.  Stats and traces are flushed before the loop exits.
"""

import asyncio
import hashlib
import json
import time

from repro.obs import Tracer
from repro.obs.io import atomic_write_text
from repro.resilience import ON_ERROR_MODES
from repro.serve import protocol
from repro.serve.breaker import BreakerBoard
from repro.serve.fleet import WorkerSupervisor
from repro.serve.jobs import JobTable
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import ProtocolError, error_message
from repro.serve.queue import AdmissionQueue, QueueFull
from repro.serve.supervisor import WorkerProcess
from repro.serve.workers import deadline_error, failure_error, thread_members
from repro.sim.catalog import catalog as build_catalog
from repro.sim.runner import ExperimentRunner, RunRequest

#: event names that end a stream subscription
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: request kinds accepted by ``submit``
SUBMIT_KINDS = ("single", "sweep")

DEFAULT_HIGH_WATER = 64
DEFAULT_MAX_CONCURRENT = 2
DEFAULT_MAX_REQUESTS_PER_JOB = 256
DEFAULT_MAX_INSTRUCTIONS = 10_000_000
DEFAULT_HEARTBEAT_SECONDS = 5.0
DEFAULT_DRAIN_GRACE = 30.0
DEFAULT_BEAT_INTERVAL = 1.0
_MAX_RETRY_OVERRIDE = 10
_PRIORITY_RANGE = (-100, 100)
_DEADLINE_MS_RANGE = (1, 86_400_000)


def _bad(message, **extra):
    error = ProtocolError(message, code="bad-request")
    error.extra = extra
    return error


def _check_int(value, name, low, high):
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad("%s must be an integer, got %r" % (name, value))
    if not low <= value <= high:
        raise _bad("%s must be in [%d, %d], got %d"
                   % (name, low, high, value))
    return value


class JobServer(object):
    """Asyncio TCP job server over length-prefixed JSON frames.

    :param host:/:param port: bind address (``port=0`` picks a free one,
        reported by :attr:`address` after :meth:`start`).
    :param cache_dir: result-cache directory shared by every job (also
        the dedup/coalescing identity and the crash checkpoint).
    :param runner: pre-built :class:`ExperimentRunner` (tests); when
        None one is built over *cache_dir*.
    :param high_water: admission-queue bound (backpressure threshold).
    :param max_concurrent: jobs executing simultaneously on the
        in-process tier (one thread member each).
    :param batch_jobs: process-pool width per job batch (1 = in-thread).
    :param policy: default :class:`~repro.resilience.FailurePolicy`.
    :param max_requests_per_job: sweep size cap per submission.
    :param max_instructions: per-run instruction budget cap.
    :param heartbeat_interval: seconds between heartbeat events for
        running jobs (0 disables); a negative value is a ``ValueError``.
    :param retain_jobs: terminal jobs kept for late result fetches.
    :param stats_path: JSON stats dump written on drain.
    :param trace_path: JSONL job-lifecycle trace written via the obs
        tracer ("serve" category).
    :param drain_grace: seconds :meth:`drain` waits before requesting
        cooperative cancellation of still-running jobs.
    :param workers: fleet size; ``0`` keeps the in-process tier and a
        negative value is a ``ValueError``.  With a fleet,
        ``max_concurrent`` is ignored (one job per worker process).
    :param beat_interval: fleet worker heartbeat period, seconds.
    :param max_missed: missed beats before a worker is declared dead.
    :param breaker: pre-configured
        :class:`~repro.serve.breaker.BreakerBoard` (tests); a default
        board is built when None.
    """

    def __init__(self, host="127.0.0.1", port=0, cache_dir=None,
                 runner=None, high_water=DEFAULT_HIGH_WATER,
                 max_concurrent=DEFAULT_MAX_CONCURRENT, batch_jobs=1,
                 policy=None,
                 max_requests_per_job=DEFAULT_MAX_REQUESTS_PER_JOB,
                 max_instructions=DEFAULT_MAX_INSTRUCTIONS,
                 heartbeat_interval=DEFAULT_HEARTBEAT_SECONDS,
                 retain_jobs=256, stats_path=None, trace_path=None,
                 drain_grace=DEFAULT_DRAIN_GRACE,
                 max_frame_bytes=protocol.MAX_FRAME_BYTES,
                 workers=0, beat_interval=DEFAULT_BEAT_INTERVAL,
                 max_missed=4, breaker=None):
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 0:
            raise ValueError("workers must be a non-negative integer, "
                             "got %r" % (workers,))
        if isinstance(heartbeat_interval, bool) \
                or not isinstance(heartbeat_interval, (int, float)) \
                or not heartbeat_interval >= 0:
            # a negative interval would make the heartbeat loop spin
            raise ValueError("heartbeat_interval must be a non-negative "
                             "number, got %r" % (heartbeat_interval,))
        self.host = host
        self.port = port
        self.max_requests_per_job = max_requests_per_job
        self.max_instructions = max_instructions
        self.heartbeat_interval = heartbeat_interval
        self.stats_path = stats_path
        self.trace_path = trace_path
        self.drain_grace = drain_grace
        self.max_frame_bytes = max_frame_bytes
        self._tmp_cache = None
        if workers >= 1 and cache_dir is None and runner is None:
            # fleet workers are separate processes: they need a real
            # shared on-disk cache (it is also the requeue checkpoint)
            import tempfile

            cache_dir = self._tmp_cache = tempfile.mkdtemp(
                prefix="repro-fleet-cache-"
            )
        self.runner = runner if runner is not None else ExperimentRunner(
            cache_dir=cache_dir
        )
        self.table = JobTable(retain=retain_jobs)
        self.queue = AdmissionQueue(high_water=high_water,
                                    on_shed=self._shed_expired)
        self.metrics = ServeMetrics(queue=self.queue, table=self.table)
        if workers >= 1:
            # a pre-built runner: share its disk cache when it has one
            fleet_cache = cache_dir if cache_dir is not None \
                else getattr(self.runner, "cache_dir", None)
            self.mode = "fleet"
            members = [
                WorkerProcess(index, cache_dir=fleet_cache,
                              beat_interval=beat_interval,
                              max_missed=max_missed, batch_jobs=batch_jobs)
                for index in range(workers)
            ]
        else:
            self.mode = "tier"
            members = thread_members(self.runner, max_concurrent,
                                     batch_jobs)
        self.supervisor = WorkerSupervisor(members, policy=policy,
                                           metrics=self.metrics)
        self.metrics.attach_fleet(self.supervisor)
        self.breakers = breaker if breaker is not None else BreakerBoard()
        self.breakers.on_transition = self._breaker_transition
        self.catalog = build_catalog()
        self._benchmarks = {
            entry["name"] for entry in self.catalog["benchmarks"]
        }
        self._prefetchers = set(self.catalog["prefetchers"])
        self.tracer = (Tracer({"serve": 1.0}, path=trace_path)
                       if trace_path else None)
        self._serve_channel = (self.tracer.channel("serve")
                               if self.tracer else None)
        self._trace_seq = 0
        self.draining = False
        self.loop = None
        self._server = None
        self._slots = None
        self._dispatcher = None
        self._heartbeat = None
        self._exec_tasks = set()
        self._closed = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self):
        """Bind, start the dispatcher and heartbeat; returns *self*."""
        self.loop = asyncio.get_running_loop()
        await self.supervisor.start()
        self._slots = asyncio.Semaphore(self.supervisor.max_concurrent)
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._dispatcher = self.loop.create_task(self._dispatch_loop())
        if self.heartbeat_interval:
            self._heartbeat = self.loop.create_task(self._heartbeat_loop())
        return self

    @property
    def address(self):
        return (self.host, self.port)

    async def wait_closed(self):
        await self._closed.wait()

    async def drain(self, grace=None):
        """Graceful shutdown: finish (or checkpoint-cancel) and exit.

        1. stop admitting (submits get ``shutting-down`` errors);
        2. let the dispatcher finish every already-queued job;
        3. after *grace* seconds, flip the cancel flag on still-running
           jobs -- they stop at the next task boundary with all completed
           work persisted in the result cache;
        4. flush stats + trace, close the listener, wake
           :meth:`wait_closed`.
        """
        if self.draining:
            await self._closed.wait()
            return
        self.draining = True
        grace = self.drain_grace if grace is None else grace
        self.queue.close()
        # phase 1: give queued + running jobs *grace* seconds to finish
        # normally (the dispatcher exits once the queue runs dry)
        await asyncio.wait([self._dispatcher], timeout=grace)
        if not self._dispatcher.done():
            # phase 2: grace expired -- drop what is still queued and ask
            # running jobs to stop at their next task boundary (their
            # completed work is already checkpointed in the result cache)
            for job in self.table.active_jobs():
                job.cancel_requested = True
                if job.state == "queued":
                    self.queue.discard(job)
                    job.mark_terminal("cancelled")
                    self._publish(job, "cancelled", done=0,
                                  total=job.done_total, drained=True)
                    self.table.finish(job)
                    self.metrics.record_job(job)
            await asyncio.wait([self._dispatcher], timeout=max(grace, 5.0))
        pending = [task for task in self._exec_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=max(grace, 5.0))
        for task in [self._dispatcher] + list(self._exec_tasks):
            if not task.done():
                task.cancel()  # a truly hung simulation; do not wait on it
        if self._heartbeat is not None:
            self._heartbeat.cancel()
        self._server.close()
        await self._server.wait_closed()
        await self.supervisor.shutdown()
        self.flush()
        if self._tmp_cache is not None:
            import shutil

            shutil.rmtree(self._tmp_cache, ignore_errors=True)
        self._closed.set()

    def flush(self):
        """Write the stats dump and the lifecycle trace (atomic)."""
        if self.stats_path:
            atomic_write_text(
                self.stats_path,
                json.dumps(self.metrics.dump(), indent=2, sort_keys=True)
                + "\n",
            )
        if self.tracer is not None:
            self.tracer.flush()

    # ------------------------------------------------------------------
    # events

    def _trace(self, ev, job, **fields):
        if self._serve_channel is None:
            return
        self._trace_seq += 1
        self._serve_channel.emit(ev, self._trace_seq, job=job.id, **fields)

    def _publish(self, job, ev, **fields):
        """Fan one lifecycle event out to subscribers (and the trace)."""
        event = {"type": "event", "job_id": job.id, "ev": ev,
                 "seq": next(job.events_seq), "state": job.state}
        event.update(fields)
        for queue in list(job.subscribers):
            queue.put_nowait(event)
        self._trace(ev, job, **{
            key: value for key, value in fields.items()
            if isinstance(value, (int, float, str, bool)) or value is None
        })
        return event

    def _on_progress(self, job, done, total):
        """Per-slot progress, always delivered on the event loop."""
        job.done_count = done
        self._publish(job, "progress", done=done, total=total)

    async def _heartbeat_loop(self):
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.monotonic()
            for job in self.table.active_jobs():
                if job.state != "running" or job.started is None:
                    continue
                self._publish(
                    job, "heartbeat", done=job.done_count,
                    total=job.done_total,
                    elapsed=round(now - job.started, 3),
                )

    # ------------------------------------------------------------------
    # dispatch + execution

    async def _dispatch_loop(self):
        while True:
            await self._slots.acquire()
            job = await self.queue.pop()
            if job is None:
                self._slots.release()
                return
            # claim synchronously (no await between pop and here), so a
            # cancel arriving next tick sees "running" and goes the
            # cooperative route instead of double-discounting the queue
            job.state = "running"
            job.started = time.monotonic()
            task = self.loop.create_task(self._execute(job))
            self._exec_tasks.add(task)
            task.add_done_callback(self._exec_tasks.discard)

    async def _execute(self, job):
        self._publish(job, "started", runs=job.done_total)
        try:
            try:
                outcome, detail = await self.supervisor.run_job(
                    job, self._on_progress
                )
            except Exception as exc:  # noqa: BLE001 - server must survive
                outcome, detail = "error", failure_error(exc)
            if outcome == "done":
                job.result, job.report = detail
                job.done_count = job.done_total
                job.mark_terminal("done")
                self._publish(
                    job, "done", runs=job.done_total,
                    cache_hits=job.report.get("hits", 0),
                    computed=job.report.get("misses", 0),
                    latency=round(job.latency, 6),
                )
            elif outcome == "cancelled":
                job.mark_terminal("cancelled")
                self._publish(job, "cancelled", done=job.done_count,
                              total=job.done_total)
            else:
                job.error = detail
                job.mark_terminal("failed")
                if detail.get("code") == "deadline-exceeded":
                    self.metrics.bump("fleet.sheds")
                self._publish(job, "failed", error=job.error)
        finally:
            self.table.finish(job)
            self.metrics.record_job(job)
            self._record_breaker(job)
            if self.tracer is not None:
                self.tracer.flush()
            self._slots.release()

    # ------------------------------------------------------------------
    # load shedding + circuit breaking

    def _shed_expired(self, job):
        """Queue callback: a popped job's deadline already expired.

        The job never reaches a worker; waiting clients get a typed
        ``deadline-exceeded`` failure immediately.
        """
        job.error = deadline_error("while queued")
        job.mark_terminal("failed")
        self.metrics.bump("fleet.sheds")
        self._publish(job, "failed", error=job.error)
        self.table.finish(job)
        self.metrics.record_job(job)

    def _breaker_transition(self, benchmark, old, new):
        counter = {"open": "fleet.breaker.opened",
                   "half-open": "fleet.breaker.half_open",
                   "closed": "fleet.breaker.closed"}[new]
        self.metrics.bump(counter)
        if self._serve_channel is not None:
            self._trace_seq += 1
            self._serve_channel.emit(
                "breaker", self._trace_seq, job="-", benchmark=benchmark,
                old=old, new=new,
            )

    def _record_breaker(self, job):
        """Fold one terminal job into its benchmarks' breakers.

        Only *verdicts* count: cancellations and deadline sheds say
        nothing about the benchmark's health and are skipped.  A sweep
        outcome is attributed to every benchmark it touched.
        """
        if job.state == "done":
            success = True
        elif job.state == "failed":
            code = (job.error or {}).get("code")
            if code == "deadline-exceeded":
                return
            success = False
        else:
            return  # cancelled
        for benchmark in job.spec.get("benchmarks") or []:
            self.breakers.record(benchmark, success)

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_conn(self, reader, writer):
        self.metrics.bump("connections.opened")
        try:
            while True:
                try:
                    message = await protocol.read_frame(
                        reader, self.max_frame_bytes
                    )
                except ProtocolError as exc:
                    self.metrics.bump("protocol_errors")
                    if exc.code == "truncated":
                        break  # peer is gone; nothing to reply to
                    await self._safe_send(writer, exc.as_frame())
                    if exc.code == "too-large":
                        break  # cannot resync without the oversized body
                    continue  # framing intact (bad-json/bad-frame)
                if message is None:
                    break  # clean EOF
                if not await self._serve_one(message, reader, writer):
                    break
        except (ConnectionError, OSError):
            pass  # peer vanished; the server marches on
        finally:
            self.metrics.bump("connections.closed")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, message, reader, writer):
        """Dispatch one message; returns False to close the connection."""
        self.metrics.bump("requests.total")
        kind = message["type"]
        try:
            if kind == "stream":
                return await self._on_stream(message, writer)
            handler = getattr(self, "_on_%s" % kind.replace("-", "_"), None)
            if handler is None:
                raise ProtocolError("unknown request type %r" % kind,
                                    code="unknown-type")
            reply = await handler(message)
        except ProtocolError as exc:
            self.metrics.bump("requests.errors")
            frame = exc.as_frame()
            frame.update(getattr(exc, "extra", None) or {})
            return await self._safe_send(writer, frame)
        except Exception as exc:  # noqa: BLE001 - typed internal error
            self.metrics.bump("requests.errors")
            return await self._safe_send(writer, error_message(
                "internal", "%s: %s" % (type(exc).__name__, exc)
            ))
        return await self._safe_send(writer, reply)

    async def _safe_send(self, writer, message):
        try:
            await protocol.write_frame(writer, message)
            return True
        except ProtocolError as exc:
            # the *reply* failed to encode (e.g. absurdly large result)
            try:
                await protocol.write_frame(writer, exc.as_frame())
                return True
            except (ProtocolError, ConnectionError, OSError):
                return False
        except (ConnectionError, OSError, RuntimeError):
            return False

    # ------------------------------------------------------------------
    # request handlers

    def _require_job(self, message):
        job_id = message.get("job_id")
        if not isinstance(job_id, str):
            raise _bad('missing string "job_id" field')
        job = self.table.get(job_id)
        if job is None:
            raise ProtocolError("unknown job id %r" % job_id,
                                code="unknown-job")
        return job

    async def _on_ping(self, message):
        return {"type": "pong", "draining": self.draining,
                "queue_depth": len(self.queue)}

    async def _on_catalog(self, message):
        return {"type": "catalog", "catalog": self.catalog}

    async def _on_statz(self, message):
        return {"type": "statz", "stats": self.metrics.dump()}

    async def _on_jobs(self, message):
        limit = message.get("limit", 50)
        if limit is not None:
            limit = _check_int(limit, "limit", 1, 10_000)
        return {"type": "jobs", "jobs": self.table.snapshots(limit=limit),
                "queued": self.queue.snapshot()}

    async def _on_status(self, message):
        job = self._require_job(message)
        reply = {"type": "status"}
        reply.update(job.snapshot())
        return reply

    async def _on_result(self, message):
        job = self._require_job(message)
        if message.get("wait", True) and not job.terminal:
            await job.done_event().wait()
        reply = {"type": "result", "job_id": job.id, "state": job.state,
                 "done": job.done_count, "runs": job.done_total}
        if job.state == "done":
            reply["result"] = job.result
            reply["batch"] = job.report
        elif job.error is not None:
            reply["error"] = job.error
        return reply

    async def _on_cancel(self, message):
        job = self._require_job(message)
        if job.terminal:
            raise ProtocolError(
                "job %s is already %s" % (job.id, job.state),
                code="not-cancellable",
            )
        if job.state == "queued":
            job.cancel_requested = True
            self.queue.discard(job)
            job.mark_terminal("cancelled")
            self._publish(job, "cancelled", done=0, total=job.done_total)
            self.table.finish(job)
            self.metrics.record_job(job)
            return {"type": "cancelled", "job_id": job.id,
                    "state": "cancelled"}
        # running: cooperative -- the worker aborts at the next task
        # boundary; completed tasks stay checkpointed in the cache
        job.cancel_requested = True
        self._publish(job, "cancelling", done=job.done_count,
                      total=job.done_total)
        return {"type": "cancelling", "job_id": job.id, "state": job.state}

    async def _on_fleet(self, message):
        """Fleet observability: one row per member + breaker states."""
        return {
            "type": "fleet",
            "mode": self.mode,
            "workers": self.supervisor.snapshot(),
            "breakers": self.breakers.snapshot(),
        }

    async def _on_submit(self, message):
        self.metrics.bump("jobs.submitted")
        try:
            kind, spec, requests = self._validate_submit(message)
        except ProtocolError as exc:
            self.metrics.bump("jobs.rejected_circuit"
                              if exc.code == "circuit-open"
                              else "jobs.rejected_invalid")
            raise
        key = self._job_key(kind, spec, requests)
        existing = self.table.find_active(key)
        if existing is not None:
            existing.clients += 1
            self.metrics.bump("jobs.coalesced")
            # coalesced submissions still count as demand: the gap
            # between runs.requested and runs.computed is the dedup win
            self.metrics.bump("runs.requested", len(requests))
            self._trace("coalesced", existing, clients=existing.clients)
            return {"type": "submitted", "job_id": existing.id,
                    "coalesced": True, "state": existing.state,
                    "runs": existing.done_total}
        job = self.table.new_job(key, kind, spec, requests,
                                 priority=spec["priority"],
                                 deadline_ms=spec["deadline_ms"])
        try:
            self.queue.push(job)
        except QueueFull as exc:
            # roll the job back out of the table: it never existed
            self.table.forget(job)
            self.metrics.bump("jobs.rejected_busy")
            raise ProtocolError(str(exc), code="busy")
        self.metrics.bump("jobs.accepted")
        self.metrics.bump("runs.requested", len(requests))
        self._publish(job, "queued", runs=len(requests),
                      priority=job.priority)
        return {"type": "submitted", "job_id": job.id, "coalesced": False,
                "state": job.state, "runs": len(requests),
                "queue_depth": len(self.queue)}

    # ------------------------------------------------------------------
    # submission validation + identity

    def _validate_submit(self, message):
        if self.draining:
            raise ProtocolError("server is draining; resubmit elsewhere",
                                code="shutting-down")
        kind = message.get("kind", "single")
        if kind not in SUBMIT_KINDS:
            raise _bad("kind must be one of %s, got %r"
                       % ("/".join(SUBMIT_KINDS), kind))
        instructions = message.get("instructions")
        if instructions is not None:
            instructions = _check_int(instructions, "instructions", 1000,
                                      self.max_instructions)
        variant = message.get("variant", 0)
        variant = _check_int(variant, "variant", 0, 1 << 16)
        priority = message.get("priority", 0)
        priority = _check_int(priority, "priority", *_PRIORITY_RANGE)
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = _check_int(deadline_ms, "deadline_ms",
                                     *_DEADLINE_MS_RANGE)
        policy = {}
        if message.get("retries") is not None:
            policy["retries"] = _check_int(message["retries"], "retries",
                                           0, _MAX_RETRY_OVERRIDE)
        if message.get("on_error") is not None:
            mode = message["on_error"]
            if mode not in ON_ERROR_MODES:
                raise _bad("on_error must be one of %s, got %r"
                           % ("/".join(ON_ERROR_MODES), mode))
            policy["on_error"] = mode
        if message.get("task_timeout") is not None:
            timeout = message["task_timeout"]
            if (isinstance(timeout, bool)
                    or not isinstance(timeout, (int, float))
                    or not 0 < timeout <= 3600):
                raise _bad("task_timeout must be in (0, 3600] seconds, "
                           "got %r" % (timeout,))
            policy["task_timeout"] = float(timeout)
        if kind == "single":
            benchmarks = [self._check_benchmark(message.get("benchmark"))]
            prefetchers = [self._check_prefetcher(
                message.get("prefetcher", "none")
            )]
        else:
            benchmarks = self._check_names(
                message.get("benchmarks"), "benchmarks",
                self._check_benchmark,
            )
            prefetchers = self._check_names(
                message.get("prefetchers"), "prefetchers",
                self._check_prefetcher,
            )
        for bench in benchmarks:
            if not self.breakers.allow(bench):
                raise ProtocolError(
                    "circuit breaker for benchmark %r is open; the "
                    "workload is failing persistently -- back off and "
                    "retry after the cooldown" % (bench,),
                    code="circuit-open",
                )
        requests = [
            RunRequest(bench, prefetcher, instructions, None, variant)
            for bench in benchmarks
            for prefetcher in prefetchers
        ]
        if len(requests) > self.max_requests_per_job:
            raise _bad(
                "submission expands to %d runs, above the per-job cap "
                "of %d" % (len(requests), self.max_requests_per_job)
            )
        spec = {
            "kind": kind,
            "benchmarks": benchmarks,
            "prefetchers": prefetchers,
            "instructions": instructions,
            "variant": variant,
            "priority": priority,
            "deadline_ms": deadline_ms,
            "policy": policy,
        }
        return kind, spec, requests

    def _check_benchmark(self, name):
        if name not in self._benchmarks:
            raise _bad(
                "unknown benchmark %r (see the catalog endpoint)"
                % (name,),
                known=sorted(self._benchmarks),
            )
        return name

    def _check_prefetcher(self, name):
        if name not in self._prefetchers:
            raise _bad(
                "unknown prefetcher %r (see the catalog endpoint)"
                % (name,),
                known=sorted(self._prefetchers),
            )
        return name

    @staticmethod
    def _check_names(values, field, check):
        if (not isinstance(values, list) or not values
                or not all(isinstance(v, str) for v in values)):
            raise _bad('"%s" must be a non-empty list of names' % field)
        return [check(value) for value in values]

    def _job_key(self, kind, spec, requests):
        """Coalescing identity: cache digests + kind + failure policy.

        Reusing :meth:`ExperimentRunner.request_digest` means two
        submissions coalesce exactly when they would share cache
        entries; the policy is folded in so a ``retries=0`` probe never
        piggybacks on (or poisons) a defaulted submission.
        """
        digests = [self.runner.request_digest(r) for r in requests]
        # deadline is part of identity: a deadlined submission must not
        # coalesce onto (or accept riders from) an un-deadlined one --
        # they would shed together.  The result cache still dedups the
        # underlying compute.
        identity = [kind, digests, sorted(spec["policy"].items()),
                    spec["deadline_ms"]]
        return hashlib.sha1(
            json.dumps(identity, sort_keys=True).encode()
        ).hexdigest()

    # ------------------------------------------------------------------
    # streaming

    async def _on_stream(self, message, writer):
        """Dedicate the connection to *job*'s event feed until terminal."""
        try:
            job = self._require_job(message)
        except ProtocolError as exc:
            self.metrics.bump("requests.errors")
            return await self._safe_send(writer, exc.as_frame())
        start = {"type": "stream-start", "job_id": job.id,
                 "state": job.state, "done": job.done_count,
                 "runs": job.done_total}
        if not await self._safe_send(writer, start):
            return False
        if job.terminal:
            # replay just the terminal outcome; nothing further will come
            event = {"type": "event", "job_id": job.id, "ev": job.state,
                     "seq": next(job.events_seq), "state": job.state,
                     "replay": True}
            if job.error is not None:
                event["error"] = job.error
            return await self._safe_send(writer, event)
        queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                if not await self._safe_send(writer, event):
                    return False  # mid-stream disconnect: unsubscribe
                if event.get("ev") in TERMINAL_EVENTS:
                    return True
        finally:
            try:
                job.subscribers.remove(queue)
            except ValueError:
                pass


class ServerThread(object):
    """A :class:`JobServer` on a background thread with its own loop.

    The blocking-world adapter used by the tests, the fleet chaos
    drill, and anyone embedding the server in a synchronous program::

        with ServerThread(cache_dir="cache") as srv:
            client = ServeClient(*srv.address)
            ...

    ``start()`` blocks until the listener is bound (so :attr:`address`
    carries the real port); ``stop()`` runs a graceful :meth:`drain` on
    the server's loop and joins the thread.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self.server = None
        self.address = None
        self._loop = None
        self._thread = None
        self._ready = None
        self._startup_error = None

    def start(self, timeout=30.0):
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("job server failed to start within %.1fs"
                               % timeout)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self):
        async def main():
            try:
                server = JobServer(**self._kwargs)
                await server.start()
            except Exception as exc:  # surface to the starting thread
                self._startup_error = exc
                self._ready.set()
                return
            self.server = server
            self.address = server.address
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await server.wait_closed()

        asyncio.run(main())

    def stop(self, grace=None, timeout=60.0):
        if self.server is None or self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(grace), self._loop
        )
        future.result(timeout)
        self._thread.join(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

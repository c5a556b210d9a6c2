"""The one job body, and the in-process thread member.

Every job the server runs goes through :func:`execute_job`: one
:meth:`~repro.sim.ExperimentRunner.run_batch` call wrapped in the checks
that make it a *job* -- the deadline re-check at every task boundary,
the progress fan-out, and the translation of the outcome into one
terminal frame (``result`` or ``job-error``).  Both kinds of
:class:`~repro.serve.fleet.WorkerSupervisor` member call it:

* :class:`ThreadWorker` runs it against the server's own runner, so
  the in-memory memo and the disk cache are shared by every job: on the
  event loop when every run of the job is already in the memo, on a
  thread of the tier's pool otherwise;
* a fleet worker subprocess (:mod:`repro.serve.supervisor`) runs it
  against its own runner over the same cache directory, and passes the
  ``boundary`` chaos hook -- the ``worker-*`` fault verbs therefore fire
  only there, never in the server process.

The batch engine does the heavy lifting (per-task retries with
deterministic backoff and save-as-completed checkpointing into the
shared result cache), running a job's runs one after another on the
member that holds the job -- parallelism comes from the number of
members, so each run is supervised once; a thread member adds only the
asyncio bridging:

* a job whose runs are all in the memo (``runner.memo_holds``, over the
  digests computed at submit) probes no file and runs nothing, so it
  runs on the loop: the thread hop would be most of its cost;
* any other job (a disk hit, a miss, a sweep with any miss) goes to the
  pool, and the event loop awaits ``run_in_executor`` so the server
  keeps serving status/stream/statz traffic while simulations run;
* progress ticks from a pool thread are trampolined back onto the loop
  (``call_soon_threadsafe``) to fan out per-job progress events;
* the same tick implements **cooperative cancellation**: when a job's
  ``cancel_requested`` flag is up, the next tick raises
  :class:`JobCancelled` inside the batch, aborting at a task boundary.
  Everything already computed is persisted (the cache is the
  checkpoint), so a cancelled-then-resubmitted job resumes instead of
  restarting.

A simulation failure (``REPRO_FAULTS`` or a real bug) never reaches the
server loop as anything but a ``job-error`` frame whose ``error`` dict
is built here, once, by :func:`failure_error` -- the same bytes whichever
kind of member ran the job.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.resilience.errors import SimulationError


class JobCancelled(Exception):
    """Raised inside a batch to abort a cancelled job at a task boundary."""


class _DeadlineHit(Exception):
    """Raised inside a batch when the job's deadline passes."""


def deadline_error(when):
    """The ``error`` dict of a job shed because its deadline expired."""
    return {"code": "deadline-exceeded", "error_type": "DeadlineExceeded",
            "message": "deadline expired %s" % when}


def failure_error(exc):
    """The ``error`` dict of a job that ended in exception *exc*.

    ``request`` names the failing run as ``[benchmark, prefetcher,
    instructions, variant]`` (null when no single run is to blame).
    """
    if not isinstance(exc, SimulationError):
        return {"code": "internal", "error_type": type(exc).__name__,
                "message": str(exc)}
    request = exc.request
    if request is not None:
        benchmark, prefetcher, instructions, _config, variant = request
        request = [benchmark, prefetcher, instructions, variant]
    return {"code": "simulation-error", "error_type": type(exc).__name__,
            "message": str(exc), "attempts": exc.attempts,
            "request": request}


def execute_job(runner, job_id, requests, policy, deadline_at, on_progress,
                boundary=None):
    """Run one job's batch on the calling thread; returns its terminal frame.

    :param deadline_at: absolute :func:`time.monotonic` deadline, or
        None; re-checked before the batch and at every task boundary.
    :param on_progress: ``fn(done, total)`` after every resolved slot;
        an exception it raises (:class:`JobCancelled`) aborts the batch
        and propagates.
    :param boundary: optional ``fn(stage)`` chaos hook called with
        ``"start"`` and then ``"t<done>"`` at every task boundary,
        before the deadline check.
    :returns: ``{"type": "result", "job_id", "payload", "report"}`` or
        ``{"type": "job-error", "job_id", "error"}``.
    """
    if deadline_at is not None and time.monotonic() > deadline_at:
        return {"type": "job-error", "job_id": job_id,
                "error": deadline_error("before execution")}
    if boundary is not None:
        boundary("start")

    def progress(done, total):
        # the chaos hook goes first so an injected kill/hang never
        # reports work it is about to lose
        if boundary is not None:
            boundary("t%d" % done)
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise _DeadlineHit(job_id)
        on_progress(done, total)

    try:
        results, report = runner.run_batch(
            requests, jobs=1, policy=policy, progress=progress,
        )
    except _DeadlineHit:
        error = deadline_error("at a task boundary (completed work is "
                               "checkpointed)")
    except JobCancelled:
        raise
    except Exception as exc:  # noqa: BLE001 - a job reports, never crashes
        error = failure_error(exc)
    else:
        payload = [None if result is None else result.as_dict()
                   for result in results]
        return {"type": "result", "job_id": job_id, "payload": payload,
                "report": report.as_dict()}
    return {"type": "job-error", "job_id": job_id, "error": error}


def frame_outcome(frame):
    """``(outcome, detail)`` of a terminal frame from :func:`execute_job`."""
    if frame["type"] == "result":
        return "done", (frame["payload"], frame["report"])
    return "error", frame["error"]


def thread_members(runner, count, metrics):
    """*count* :class:`ThreadWorker` members sharing one thread pool."""
    if count < 1:
        raise ValueError("max_concurrent must be >= 1, got %r" % (count,))
    pool = ThreadPoolExecutor(max_workers=count,
                              thread_name_prefix="serve-worker")
    return [ThreadWorker(index, runner, pool, metrics)
            for index in range(count)]


class ThreadWorker(object):
    """Supervisor member running :func:`execute_job` in the server process.

    :param runner: the server's :class:`~repro.sim.ExperimentRunner`
        (its disk cache and in-memory memo deduplicate across jobs).
    :param pool: the thread pool shared by every thread member.
    :param metrics: the server's
        :class:`~repro.serve.metrics.ServeMetrics`; a job run on the
        loop counts in ``serve.jobs.on_loop``.
    """

    pid = None  # runs inside the server process

    def __init__(self, worker_id, runner, pool, metrics):
        self.id = worker_id
        self.runner = runner
        self._pool = pool
        self._metrics = metrics
        self.state = "starting"
        self.current_job = None
        self.respawns = 0
        self.jobs_done = 0

    async def spawn(self):
        """Arm the slot; the pool starts its thread on first use."""
        self.state = "idle"
        return self

    @property
    def alive(self):
        return self.state not in ("dead", "stopped")

    def kill(self):
        """Mark the slot dead; a thread cannot be killed, so a running
        batch finishes on its own."""
        self.state = "dead"

    async def reap(self, timeout=None):
        """Nothing to wait for: a hung simulation thread is left behind."""

    async def request_shutdown(self):
        """Stop the shared pool taking work; idle threads exit."""
        self._pool.shutdown(wait=False)

    async def execute(self, job, attempt, policy, on_progress=None):
        """Run *job*; returns ``(outcome, detail)``.

        A job whose every run is in the runner's memo runs on the loop,
        any other on a pool thread.  Outcomes are ``("done", (payload,
        report))``, ``("error", error)`` and ``("cancelled", None)``; a
        thread member is never ``"lost"``.  *attempt* is unused: the
        lethal chaos verbs it gates never fire in the server process.
        """
        loop = asyncio.get_running_loop()
        on_loop = self.runner.memo_holds(job.digests)

        def progress(done, total):
            if job.cancel_requested:
                raise JobCancelled(job.id)
            if on_progress is None:
                return
            if on_loop:
                on_progress(job, done, total)
            else:
                loop.call_soon_threadsafe(on_progress, job, done, total)

        args = (self.runner, job.id, job.requests, policy, job.deadline,
                progress)
        self.state = "busy"
        self.current_job = job.id
        try:
            if on_loop:
                self._metrics.bump("jobs.on_loop")
                frame = execute_job(*args)
            else:
                frame = await loop.run_in_executor(self._pool, execute_job,
                                                   *args)
        except JobCancelled:
            return "cancelled", None
        finally:
            self.current_job = None
            if self.state == "busy":
                self.state = "idle"
        return frame_outcome(frame)

    def snapshot(self):
        """One row of the ``fleet`` endpoint / ``repro jobs --workers``."""
        return {
            "worker": self.id,
            "pid": self.pid,
            "state": self.state,
            "job": self.current_job,
            "beats_missed": 0,
            "respawns": self.respawns,
            "jobs_done": self.jobs_done,
        }

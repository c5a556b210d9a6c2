"""The one supervisor: dispatch, loss recovery and requeue over members.

A :class:`WorkerSupervisor` is the server's only executor.  It schedules
jobs onto a list of *members* of either kind:

* :class:`~repro.serve.workers.ThreadWorker` -- the in-process tier
  (the default): the job runs on a server thread against the server's
  own runner;
* :class:`~repro.serve.supervisor.WorkerProcess` -- the fleet
  (``--workers N``): the job runs in a supervised worker subprocess.

Both kinds run the same job body
(:func:`~repro.serve.workers.execute_job`) and answer the same member
contract -- ``execute(job, attempt, policy, on_progress) -> (outcome,
detail)``, ``spawn``, ``reap``, ``kill``, ``request_shutdown``,
``alive``, ``snapshot`` -- so dispatch, deadlines, cancellation and
failures take one path whichever kind runs the job.  What the fleet
adds on top:

* **isolation** -- a worker crash, hang, or injected fault never
  touches the server process; the blast radius of ``worker-kill:0.3``
  is one job attempt, not the service;
* **liveness** -- every worker heartbeats; ``max_missed`` silent
  intervals and the worker is killed and replaced
  (:mod:`repro.serve.health`);
* **recovery** -- a job in flight on a dead worker is *requeued* onto
  the next free member with ``attempt + 1``.  Because every completed
  task is persisted in the shared result cache (cache-as-checkpoint)
  and the lethal chaos verbs fire only on ``attempt == 0``, the
  re-execution resumes from the kill point and converges
  byte-identically to the serial reference -- the acceptance bar the
  chaos tests assert;
* **bounded respawn** -- replacement workers come up under the
  deterministic exponential backoff of :mod:`repro.resilience.retry`
  (keyed by member slot), so a crash-looping fleet cannot hot-spin.

Deadlines terminate here too: a job whose ``deadline_ms`` expired while
queued or between requeues is shed with a ``deadline-exceeded`` error
instead of burning a member on an answer nobody is waiting for; a
running job is re-checked at every task boundary by the job body.
"""

import asyncio
import time

from repro.resilience.errors import SimulationError
from repro.resilience.policy import FailurePolicy
from repro.resilience.retry import backoff_delay
from repro.serve.supervisor import WorkerLost
from repro.serve.workers import deadline_error, failure_error

#: requeues tolerated per job before it is failed outright (defensive:
#: lethal faults fire only on attempt 0, so >1 losses means real,
#: persistent trouble -- a poisoned host, an OOM-killer sweep)
MAX_REQUEUES = 4


class WorkerSupervisor(object):
    """Schedules jobs onto members, one job per member at a time.

    :param members: thread or process members (see the module doc).
    :param policy: default :class:`FailurePolicy`; None means
        ``FailurePolicy()``.  Per-job overrides layer on top.
    :param metrics: :class:`~repro.serve.metrics.ServeMetrics` for the
        ``fleet.*`` counters (respawns / requeues); optional.
    """

    def __init__(self, members, policy=None, metrics=None):
        if not members:
            raise ValueError("a supervisor needs at least one member")
        self.members = list(members)
        self.policy = policy
        self.metrics = metrics
        self._idle = None     # asyncio.Queue of members

    @property
    def max_concurrent(self):
        """Concurrency the server should admit (one job per member)."""
        return len(self.members)

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        self._idle = asyncio.Queue()
        await asyncio.gather(*(member.spawn() for member in self.members))
        for member in self.members:
            self._idle.put_nowait(member)
        return self

    async def shutdown(self, timeout=10.0):
        """Drain the members: graceful shutdown requests, then the hammer.

        Must terminate promptly even when workers are already dead or
        frozen -- every member gets a best-effort shutdown request, then
        a bounded reap that kills whatever is still running.
        """
        await asyncio.gather(*(member.request_shutdown()
                               for member in self.members))
        deadline = time.monotonic() + timeout
        for member in self.members:
            await member.reap(max(0.1, deadline - time.monotonic()))
            member.state = "stopped"

    # -- policy --------------------------------------------------------

    def job_policy(self, job):
        """Effective :class:`FailurePolicy` for *job* (default + overrides)."""
        base = self.policy if self.policy is not None else FailurePolicy()
        overrides = job.spec.get("policy") or {}
        if overrides:
            base = FailurePolicy(**dict(base._asdict(), **overrides))
        return base

    # -- scheduling ----------------------------------------------------

    def _bump(self, name, n=1):
        if self.metrics is not None:
            self.metrics.bump(name, n)

    async def _acquire(self):
        """Next live member, respawning dead slots under backoff."""
        while True:
            member = await self._idle.get()
            if member.alive:
                return member
            await self._respawn(member)
            if member.alive:
                return member
            # spawn failed: push to the back and keep trying others
            self._idle.put_nowait(member)
            await asyncio.sleep(0.05)

    async def _respawn(self, member):
        """Replace a dead member (deterministic backoff)."""
        await member.reap()
        await asyncio.sleep(backoff_delay("worker-%d" % member.id,
                                          min(member.respawns, 6)))
        member.respawns += 1
        self._bump("fleet.respawns")
        try:
            await member.spawn()
        except WorkerLost:
            member.state = "dead"

    def _release(self, member):
        self._idle.put_nowait(member)

    def has_idle_member(self):
        """True when a member waits in the idle queue, so :meth:`run_job`
        need not wait for a busy one (a free server slot does not say
        so: the dispatcher holds one while it waits for a queued job)."""
        return not self._idle.empty()

    async def run_job(self, job, on_progress=None):
        """Execute *job* on the next free member.

        Returns ``("done", (payload, report))``, ``("error", error)``
        (*error* is the job's wire ``error`` dict) or ``("cancelled",
        None)``.  *on_progress(job, done, total)* runs on the event loop.
        A member lost mid-job requeues it onto the next free member.
        """
        policy = self.job_policy(job)
        attempt = 0
        while True:
            if job.deadline_expired:
                return "error", deadline_error(
                    "before the job could finish (completed work is "
                    "checkpointed in the cache)")
            member = await self._acquire()
            if job.cancel_requested:
                self._release(member)
                return "cancelled", None
            try:
                outcome, detail = await member.execute(job, attempt,
                                                       policy, on_progress)
            finally:
                # a member killed to interrupt a job (or lost with it)
                # respawns lazily on the next acquire
                self._release(member)
            if outcome == "done":
                member.jobs_done += 1
            if outcome != "lost":
                return outcome, detail
            self._bump("fleet.requeues")
            attempt += 1
            if attempt > MAX_REQUEUES:
                return "error", failure_error(SimulationError(
                    "job %s lost %d workers (last: %s); giving up"
                    % (job.id, attempt, detail),
                    attempts=attempt,
                ))

    # -- observability -------------------------------------------------

    def snapshot(self):
        """Per-member rows for the ``fleet`` endpoint."""
        return [member.snapshot() for member in self.members]

    def live_count(self):
        return sum(1 for member in self.members if member.alive)

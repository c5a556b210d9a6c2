"""Job records and the deduplicating job table.

A :class:`Job` is one admitted unit of work: a validated list of
:class:`~repro.sim.RunRequest` tuples (a "single" submission carries
one, a "sweep" carries many) plus lifecycle state, timing, progress,
the eventual result or structured error, and the list of live event
subscriptions.

The :class:`JobTable` is the server's source of truth.  It owns two
indexes:

* ``id -> Job`` for status/result/cancel/stream lookups;
* ``key -> Job`` for **request coalescing**: a job's *key* is derived
  from the cache digests of its requests
  (:meth:`~repro.sim.ExperimentRunner.request_digest`), so a submission
  identical to one already queued or running attaches to the existing
  job instead of computing again.  Terminal jobs leave the key index
  (a re-submission after completion is admitted normally and served
  from the result cache in one probe pass).

Terminal jobs are retained (bounded by ``retain``) so clients can fetch
results after the fact; the oldest terminal jobs are pruned first.
"""

import itertools
import time
from collections import OrderedDict

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


class Job(object):
    """One admitted submission moving through the server."""

    __slots__ = (
        "id", "key", "kind", "spec", "requests", "priority", "state",
        "created", "started", "finished", "result", "error", "done_count",
        "done_total", "clients", "cancel_requested", "report",
        "subscribers", "_done_event", "events_seq", "deadline",
        "digests",
    )

    def __init__(self, job_id, key, kind, spec, requests, priority=0,
                 deadline_ms=None, digests=()):
        self.id = job_id
        self.key = key
        self.kind = kind
        self.spec = spec
        self.requests = requests
        # the requests' cache digests, computed once at submit
        self.digests = digests
        self.priority = priority
        self.state = "queued"
        self.created = time.monotonic()
        # absolute monotonic deadline; None = no deadline.  Checked
        # lazily at pop/dispatch/requeue boundaries (never by a timer).
        self.deadline = (self.created + deadline_ms / 1000.0
                         if deadline_ms is not None else None)
        self.started = None
        self.finished = None
        self.result = None
        self.error = None
        self.done_count = 0
        self.done_total = len(requests)
        self.clients = 1           # submissions coalesced onto this job
        self.cancel_requested = False
        self.report = None         # BatchReport dict once executed
        self.subscribers = []      # asyncio.Queue per streaming client
        self._done_event = None    # created lazily on the loop
        self.events_seq = itertools.count()

    # -- lifecycle -----------------------------------------------------

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    @property
    def deadline_expired(self):
        """True when a deadline is set and has passed (monotonic)."""
        return self.deadline is not None and time.monotonic() > self.deadline

    @property
    def latency(self):
        """Submit-to-finish wall seconds (None until terminal)."""
        if self.finished is None:
            return None
        return self.finished - self.created

    def done_event(self, loop=None):
        """The job's completion event (created lazily on first wait)."""
        if self._done_event is None:
            import asyncio

            self._done_event = asyncio.Event()
            if self.terminal:
                self._done_event.set()
        return self._done_event

    def mark_terminal(self, state):
        self.state = state
        self.finished = time.monotonic()
        if self._done_event is not None:
            self._done_event.set()

    # -- wire views ----------------------------------------------------

    def snapshot(self):
        """Status summary for ``status`` / ``jobs`` replies."""
        now = time.monotonic()
        snap = {
            "job_id": self.id,
            "state": self.state,
            "kind": self.kind,
            "priority": self.priority,
            "runs": self.done_total,
            "done": self.done_count,
            "clients": self.clients,
            "cancel_requested": self.cancel_requested,
            "age_seconds": round(now - self.created, 6),
        }
        if self.deadline is not None:
            snap["deadline_remaining"] = round(self.deadline - now, 6)
        if self.started is not None:
            reference = self.finished if self.finished is not None else now
            snap["run_seconds"] = round(reference - self.started, 6)
        if self.latency is not None:
            snap["latency_seconds"] = round(self.latency, 6)
        if self.error is not None:
            snap["error"] = self.error
        if self.report is not None:
            snap["batch"] = {
                key: self.report[key]
                for key in ("hits", "misses", "retries", "crashes",
                            "timeouts", "skipped")
                if key in self.report
            }
        return snap


class JobTable(object):
    """Id and coalescing-key indexes over every known job.

    :param retain: terminal jobs kept for late ``result`` fetches;
        older ones are evicted in finish order.
    """

    def __init__(self, retain=256):
        self.retain = retain
        self._jobs = OrderedDict()   # id -> Job (insertion order)
        self._active = {}            # key -> queued/running Job
        self._terminal = OrderedDict()  # id -> Job (finish order)
        self._seq = itertools.count(1)

    def __len__(self):
        return len(self._jobs)

    def new_job(self, key, kind, spec, requests, priority=0,
                deadline_ms=None, digests=()):
        """Create, index and return a fresh queued job."""
        job_id = "j%06d" % next(self._seq)
        job = Job(job_id, key, kind, spec, requests, priority,
                  deadline_ms=deadline_ms, digests=digests)
        self._jobs[job_id] = job
        self._active[key] = job
        return job

    def get(self, job_id):
        return self._jobs.get(job_id)

    def find_active(self, key):
        """The queued/running job for *key*, or None (coalescing probe)."""
        job = self._active.get(key)
        if job is not None and job.terminal:
            # defensive: finish() should have removed it already
            self._active.pop(key, None)
            return None
        return job

    def forget(self, job):
        """Remove a job that was never admitted (queue-full rollback)."""
        if self._active.get(job.key) is job:
            del self._active[job.key]
        self._jobs.pop(job.id, None)

    def active_jobs(self):
        """List of queued/running jobs (stable snapshot)."""
        return list(self._active.values())

    def finish(self, job):
        """Move *job* out of the active index and prune old terminals."""
        current = self._active.get(job.key)
        if current is job:
            del self._active[job.key]
        self._terminal[job.id] = job
        while len(self._terminal) > self.retain:
            old_id, _old = self._terminal.popitem(last=False)
            self._jobs.pop(old_id, None)

    def active_count(self):
        return len(self._active)

    def snapshots(self, limit=None, newest_first=True):
        """Job summaries for the ``jobs`` listing."""
        jobs = list(self._jobs.values())
        if newest_first:
            jobs.reverse()
        if limit is not None:
            jobs = jobs[:limit]
        return [job.snapshot() for job in jobs]

"""Fleet worker subprocess: protocol, child entry point, parent handle.

A fleet worker is a separate OS process (``python -m
repro.serve.worker_main``) speaking the repository's length-prefixed
JSON framing (:mod:`repro.serve.protocol`) over its stdin/stdout pipes.
Worker loss is therefore a *first-class, observable* event -- the pipe
breaks or the heartbeats stop -- instead of a wedged thread, and the
supervisor can kill/respawn workers without poisoning the server
process.  The child runs the same job body as an in-process member
(:func:`repro.serve.workers.execute_job`); only the transport differs.

Wire protocol (parent -> worker)::

    {"type": "job", "job": {"id", "key", "attempt", "deadline",
                            "requests": [[bench, pf, instr, null, var]..],
                            "policy": {FailurePolicy fields}}}
    {"type": "shutdown"}

Worker -> parent::

    {"type": "ready", "worker": id, "pid": N}      once, after boot
    {"type": "beat"}                               every beat_interval s
    {"type": "progress", "job_id", "done", "total"}
    {"type": "result", "job_id", "payload", "report"}
    {"type": "job-error", "job_id", "error": {"code", "error_type",
                                              "message", ...}}

Heartbeats come from a dedicated daemon thread so a busy simulation
keeps beating; a genuinely frozen worker (injected ``worker-hang`` or a
real livelock) stops beating and the supervisor's missed-beat detector
(:mod:`repro.serve.health`) declares it dead.

Determinism: the fleet chaos verbs (``worker-kill`` / ``worker-hang`` /
``worker-slow``) are consulted *here*, at job/task boundaries, keyed by
``(job key, boundary)`` through the same SHA-1 threshold as every other
``REPRO_FAULTS`` verb -- the same chaos spec always kills the same
workers at the same points.  Lethal verbs fire only on a job's first
assignment (``attempt == 0``), so a requeued job converges; because
every completed task is already persisted in the shared result cache,
the re-execution *resumes* from the kill point rather than restarting.

The child redirects ``sys.stdout`` to stderr before running any
simulation code: the stdout pipe carries frames only, and a stray
``print`` inside the simulator can never desynchronise the framing.
"""

import argparse
import os
import sys
import threading
import time

from repro.serve import protocol
from repro.serve.health import (
    DEFAULT_BEAT_INTERVAL,
    DEFAULT_MAX_MISSED,
    WorkerHealth,
)
from repro.serve.protocol import ProtocolError
from repro.serve.workers import execute_job, failure_error, frame_outcome

#: seconds a worker-hang fault freezes the child (the supervisor kills
#: it long before: max_missed * beat_interval)
HANG_FREEZE_SECONDS = 600.0

#: how long the parent waits for a fresh worker's ``ready`` frame
SPAWN_TIMEOUT = 30.0

#: seconds between the parent's liveness checks while a job runs
POLL_INTERVAL = 0.05


# ----------------------------------------------------------------------
# child side


class _BeatThread(object):
    """Daemon thread emitting beat frames; suspendable for worker-hang."""

    def __init__(self, send, interval):
        self.send = send
        self.interval = interval
        self._suspended = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-beat", daemon=True
        )

    def start(self):
        self._thread.start()

    def suspend(self):
        """Stop beating (the injected-hang path): the worker goes dark."""
        self._suspended.set()

    def _run(self):
        while True:
            time.sleep(self.interval)
            if self._suspended.is_set():
                continue
            try:
                self.send({"type": "beat"})
            except (BrokenPipeError, OSError, ValueError):
                os._exit(0)  # parent is gone; nothing left to serve


class _Worker(object):
    """Child-process state: runner, framing, fault boundaries."""

    def __init__(self, worker_id, cache_dir, beat_interval):
        from repro.sim.config import import_on_demand_modules
        from repro.sim.runner import ExperimentRunner

        # every model a job can name compiles before the ready frame
        import_on_demand_modules()
        self.worker_id = worker_id
        self.runner = ExperimentRunner(cache_dir=cache_dir)
        # stdout carries frames only; anything the simulator prints goes
        # to stderr (grab the binary pipe before redirecting)
        self._out = sys.stdout.buffer
        sys.stdout = sys.stderr
        self._in = sys.stdin.buffer
        self._send_lock = threading.Lock()
        self.beats = _BeatThread(self.send, beat_interval)

    def send(self, message):
        with self._send_lock:
            protocol.write_frame_blocking(self._out, message)

    # -- fault boundaries ----------------------------------------------

    def _fault_point(self, job_key, attempt, stage):
        """Consult the chaos plan at one deterministic boundary.

        *stage* is ``"start"`` or ``"t<done>"`` -- per completed task --
        so ``worker-kill`` lands mid-batch with the finished prefix
        already checkpointed in the cache.
        """
        from repro.sim.runner import active_fault_plan

        plan = active_fault_plan()
        if plan is None:
            return
        from repro.resilience.faults import CRASH_EXIT_CODE

        key = "%s|%s" % (job_key, stage)
        slow = plan.worker_slow_seconds(key)
        if slow > 0:
            time.sleep(slow)
        if plan.should_worker_hang(key, attempt):
            self.beats.suspend()
            time.sleep(HANG_FREEZE_SECONDS)
        if plan.should_worker_kill(key, attempt):
            self._out.flush()
            os._exit(CRASH_EXIT_CODE)

    # -- job execution -------------------------------------------------

    def run_job(self, frame):
        from repro.resilience.policy import FailurePolicy
        from repro.sim.runner import RunRequest

        job = frame["job"]
        job_id = job["id"]
        remaining = job.get("deadline")
        deadline_at = (time.monotonic() + remaining
                       if remaining is not None else None)
        try:
            requests = [RunRequest(*fields) for fields in job["requests"]]
            policy = FailurePolicy(**(job.get("policy") or {}))
        except (TypeError, ValueError) as exc:
            error = failure_error(exc)
            error["message"] = "bad job frame: %s" % exc
            self.send({"type": "job-error", "job_id": job_id,
                       "error": error})
            return
        attempt = int(job.get("attempt", 0))

        def boundary(stage):
            self._fault_point(job["key"], attempt, stage)

        def progress(done, total):
            self.send({"type": "progress", "job_id": job_id,
                       "done": done, "total": total})

        self.send(execute_job(self.runner, job_id, requests, policy,
                              deadline_at, progress, boundary))

    def serve_forever(self):
        self.beats.start()
        self.send({"type": "ready", "worker": self.worker_id,
                   "pid": os.getpid()})
        while True:
            try:
                frame = protocol.read_frame_blocking(self._in)
            except ProtocolError:
                return 1  # parent-side framing bug or torn pipe
            if frame is None or frame.get("type") == "shutdown":
                return 0
            if frame.get("type") == "job":
                self.run_job(frame)
            # unknown frame types are ignored (forward compatibility)


def worker_main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.serve.supervisor", description="fleet worker process"
    )
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--beat-interval", type=float,
                        default=DEFAULT_BEAT_INTERVAL)
    args = parser.parse_args(argv)
    worker = _Worker(args.worker_id, args.cache_dir, args.beat_interval)
    return worker.serve_forever()


# ----------------------------------------------------------------------
# parent side


class WorkerLost(Exception):
    """The worker died (or went silent) while holding a job."""


class WorkerProcess(object):
    """Parent-side handle on one fleet worker subprocess.

    Owns the subprocess, a dedicated reader task draining its stdout
    (beats fold straight into :class:`WorkerHealth`; every other frame
    lands on an internal queue), and the health record.  The reader
    task is the *only* consumer of the pipe, so a slow ``execute`` poll
    can never tear a frame in half.
    """

    def __init__(self, worker_id, cache_dir=None,
                 beat_interval=DEFAULT_BEAT_INTERVAL,
                 max_missed=DEFAULT_MAX_MISSED):
        self.id = worker_id
        self.cache_dir = cache_dir
        self.beat_interval = beat_interval
        self.max_missed = max_missed
        self.health = WorkerHealth(beat_interval, max_missed)
        self.state = "starting"
        self.pid = None
        self.current_job = None
        self.respawns = 0        # times this slot was respawned
        self.jobs_done = 0
        self._proc = None
        self._frames = None      # asyncio.Queue of non-beat frames
        self._reader = None

    # -- lifecycle -----------------------------------------------------

    async def spawn(self):
        """Start (or restart) the subprocess; wait for its ready frame."""
        import asyncio

        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        argv = [sys.executable, "-m", "repro.serve.worker_main",
                "--worker-id", str(self.id),
                "--beat-interval", str(self.beat_interval)]
        if self.cache_dir:
            argv += ["--cache-dir", self.cache_dir]
        self.state = "starting"
        self._proc = await asyncio.create_subprocess_exec(
            *argv, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, env=env,
        )
        self.pid = self._proc.pid
        self._frames = asyncio.Queue()
        self._reader = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        try:
            frame = await asyncio.wait_for(self._frames.get(),
                                           SPAWN_TIMEOUT)
        except asyncio.TimeoutError:
            self.kill()
            raise WorkerLost("worker %d never sent ready" % self.id)
        if frame is None or frame.get("type") != "ready":
            self.kill()
            raise WorkerLost("worker %d sent %r instead of ready"
                             % (self.id, frame))
        self.health.reset()
        self.state = "idle"
        return self

    async def _read_loop(self):
        while True:
            try:
                frame = await protocol.read_frame(self._proc.stdout)
            except (ProtocolError, ConnectionError, OSError):
                frame = None
            if frame is None:
                await self._frames.put(None)  # EOF sentinel: worker gone
                return
            if frame.get("type") == "beat":
                self.health.beat()
                continue
            await self._frames.put(frame)

    @property
    def alive(self):
        return (self._proc is not None
                and self._proc.returncode is None
                and self.state not in ("dead", "stopped"))

    def kill(self):
        """Hard-kill the subprocess (idempotent)."""
        if self._proc is not None and self._proc.returncode is None:
            try:
                self._proc.kill()
            except ProcessLookupError:
                pass
        self.state = "dead"

    async def reap(self, timeout=10.0):
        """Await subprocess exit -- hard-killing it once *timeout*
        seconds pass -- and then the reader task."""
        import asyncio

        if self._proc is not None:
            for _ in range(2):
                try:
                    await asyncio.wait_for(self._proc.wait(), timeout)
                    break
                except asyncio.TimeoutError:
                    self.kill()
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    async def send(self, message):
        """Write one frame to the worker; raises :class:`WorkerLost`."""
        try:
            self._proc.stdin.write(protocol.encode_frame(message))
            await self._proc.stdin.drain()
        except (ConnectionError, OSError, RuntimeError, ProtocolError):
            raise WorkerLost("worker %d pipe is gone" % self.id)

    async def request_shutdown(self):
        """Best-effort graceful shutdown frame (drain path)."""
        try:
            await self.send({"type": "shutdown"})
        except WorkerLost:
            pass

    # -- job execution -------------------------------------------------

    async def execute(self, job, attempt, policy, on_progress=None):
        """Run *job* on this worker; returns ``(outcome, detail)``.

        *policy* is the job's effective
        :class:`~repro.resilience.FailurePolicy`; it crosses the pipe as
        a plain dict.

        Outcomes:

        * ``("done", (payload, report))``  -- completed normally;
        * ``("error", error)``             -- the job failed or was shed;
          *error* is the ``error`` dict of the worker's job-error frame;
        * ``("cancelled", None)``          -- the job's cancel flag went
          up mid-run; the worker is killed (its loop cannot be
          interrupted) and the slot respawned by the supervisor;
        * ``("lost", reason)``             -- the worker died or went
          heartbeat-silent; the caller requeues the job.
        """
        import asyncio

        remaining = None
        if job.deadline is not None:
            remaining = max(0.0, job.deadline - time.monotonic())
        self.state = "busy"
        self.current_job = job.id
        self.health.reset()
        try:
            await self.send({"type": "job", "job": {
                "id": job.id, "key": job.key, "attempt": attempt,
                "deadline": remaining,
                "requests": [list(request) for request in job.requests],
                "policy": policy._asdict(),
            }})
        except WorkerLost:
            self.kill()
            return "lost", "send failed"
        try:
            while True:
                try:
                    frame = await asyncio.wait_for(self._frames.get(),
                                                   POLL_INTERVAL)
                except asyncio.TimeoutError:
                    if job.cancel_requested:
                        # the child's batch loop cannot be interrupted
                        # remotely; completed tasks are checkpointed, so
                        # killing the worker loses nothing
                        self.kill()
                        return "cancelled", None
                    if self._proc.returncode is not None:
                        self.state = "dead"
                        return "lost", ("exit code %s"
                                        % self._proc.returncode)
                    if self.health.dead():
                        self.kill()
                        return "lost", ("no heartbeat for %d intervals"
                                        % self.health.max_missed)
                    continue
                if frame is None:
                    self.state = "dead"
                    return "lost", "pipe EOF"
                kind = frame.get("type")
                if kind == "progress" and frame.get("job_id") == job.id:
                    if on_progress is not None:
                        on_progress(job, frame.get("done", 0),
                                    frame.get("total", job.done_total))
                elif kind in ("result", "job-error") \
                        and frame.get("job_id") == job.id:
                    return frame_outcome(frame)
                # stale frames from a previous assignment are dropped
        finally:
            self.current_job = None
            if self.state == "busy":
                self.state = "idle"

    def snapshot(self):
        """One row of the ``fleet`` endpoint / ``repro jobs --workers``."""
        return {
            "worker": self.id,
            "pid": self.pid,
            "state": self.state,
            "job": self.current_job,
            "beats_missed": self.health.missed(),
            "respawns": self.respawns,
            "jobs_done": self.jobs_done,
        }


if __name__ == "__main__":
    sys.exit(worker_main())

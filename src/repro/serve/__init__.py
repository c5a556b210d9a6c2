"""Simulation-as-a-service: async job server + stdlib client.

The serve layer turns the repository's batch engine
(:class:`~repro.sim.ExperimentRunner`) into a long-lived network
service:

* :class:`JobServer` -- asyncio TCP server speaking a length-prefixed
  JSON frame protocol; validates submissions against the shared
  catalog, coalesces identical in-flight requests, admits through a
  bounded priority queue with backpressure, executes on one
  :class:`WorkerSupervisor` and streams per-job lifecycle events.
* :class:`ServeClient` -- pure-stdlib blocking client used by scripts,
  tests and the ``repro submit`` / ``repro jobs`` CLI.
* :class:`ServerThread` -- run a server on a background thread with
  its own event loop (tests, benchmarks, notebooks).
* :class:`WorkerSupervisor` -- the server's only executor: dispatch,
  deadlines, cancellation, respawn under deterministic backoff and
  worker-loss requeue over a list of members, either in-process
  :class:`ThreadWorker` threads (the default tier) or supervised
  :class:`WorkerProcess` subprocesses with heartbeat liveness (the
  fleet, ``--workers N``; ``docs/fleet.md``).  Both kinds run one job
  body, :func:`~repro.serve.workers.execute_job`.
* :class:`BreakerBoard` -- per-benchmark circuit breakers shedding
  persistently-failing workloads with typed ``circuit-open`` errors.

See ``docs/serving.md`` and ``docs/fleet.md`` for worked examples.
"""

from repro._lazy import lazy_exports

#: the job server's default TCP port, kept here so the CLI parser reads
#: it without importing a serve submodule
DEFAULT_PORT = 7861

__all__ = [
    "AdmissionQueue",
    "BUSY_CLASS_CODES",
    "BreakerBoard",
    "CircuitBreaker",
    "ERROR_CODES",
    "FrameDecoder",
    "Job",
    "JobCancelled",
    "JobServer",
    "JobTable",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "QueueFull",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "ServerThread",
    "ThreadWorker",
    "WorkerHealth",
    "WorkerLost",
    "WorkerProcess",
    "WorkerSupervisor",
    "decode_payload",
    "encode_frame",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "breaker": ("BreakerBoard", "CircuitBreaker"),
    "client": ("ServeClient", "ServeError"),
    "fleet": ("WorkerSupervisor",),
    "health": ("WorkerHealth",),
    "jobs": ("Job", "JobTable"),
    "metrics": ("ServeMetrics",),
    "protocol": (
        "BUSY_CLASS_CODES",
        "ERROR_CODES",
        "FrameDecoder",
        "MAX_FRAME_BYTES",
        "ProtocolError",
        "decode_payload",
        "encode_frame",
    ),
    "queue": ("AdmissionQueue", "QueueFull"),
    "server": ("JobServer", "ServerThread"),
    "supervisor": ("WorkerLost", "WorkerProcess"),
    "workers": ("JobCancelled", "ThreadWorker"),
})

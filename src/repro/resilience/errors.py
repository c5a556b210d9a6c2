"""Structured error taxonomy + per-batch accounting for the sweep engine.

Every failure the engine can observe is represented by a subclass of
:class:`SimulationError` carrying the originating
:class:`~repro.sim.runner.RunRequest` (when known), the number of
attempts made, and the traceback text of the underlying cause, so a
failed sweep reports *which* job died and *why* instead of a bare
``BrokenProcessPool``.

:class:`BatchReport` aggregates what happened during one
:meth:`~repro.sim.ExperimentRunner.run_many` call -- cache hits, misses,
retries, timeouts, worker crashes, pool rebuilds, serial degradations,
cache-corruption repairs and terminal failures -- and renders a compact
one-line summary for the CLI.
"""


class SimulationError(RuntimeError):
    """A simulation job failed (after any configured retries).

    :param message: human-readable description.
    :param request: the originating job (a
        :class:`~repro.sim.runner.RunRequest` or the resolved job tuple).
    :param attempts: how many times the job was attempted.
    :param cause_traceback: formatted traceback text of the underlying
        exception, when one exists.
    """

    def __init__(self, message, request=None, attempts=0,
                 cause_traceback=None):
        super().__init__(message)
        self.request = request
        self.attempts = attempts
        self.cause_traceback = cause_traceback

    def describe(self):
        """Multi-line description including the captured traceback."""
        lines = ["%s: %s" % (type(self).__name__, self)]
        if self.request is not None:
            benchmark, prefetcher, instructions, _config, variant = \
                self.request
            lines.append("  request: %s/%s, %s instructions, variant %s"
                         % (benchmark, prefetcher, instructions, variant))
        if self.attempts:
            lines.append("  attempts: %d" % self.attempts)
        if self.cause_traceback:
            lines.append("  cause:")
            lines.extend("    " + line
                         for line in self.cause_traceback.splitlines())
        return "\n".join(lines)


class WorkerCrash(SimulationError):
    """A pool worker died (e.g. OOM-killed, ``os._exit``) mid-job.

    The surrounding :class:`~concurrent.futures.ProcessPoolExecutor`
    becomes unusable when this happens; the engine rebuilds it and
    retries the in-flight jobs.
    """


class TaskTimeout(SimulationError):
    """A job exceeded the per-task timeout (``FailurePolicy.task_timeout``).

    The hung worker cannot be interrupted from the parent; the engine
    abandons the future, retries the job, and rebuilds the pool once
    every worker slot is blocked by an abandoned job.
    """


class CacheCorruption(SimulationError):
    """A cache entry failed integrity verification on read.

    Raised (internally) when an entry's envelope version or payload
    digest does not match, or the JSON cannot be parsed at all.  The
    engine treats it as a miss: the entry is discarded and recomputed.

    :param path: the offending cache file.
    """

    def __init__(self, message, path=None, **kwargs):
        super().__init__(message, **kwargs)
        self.path = path


class BatchReport(object):
    """What happened during one ``run_many`` batch.

    Counter semantics:

    * ``total``            requests in the batch (after resolution);
    * ``hits``             served from the memo/disk cache;
    * ``misses``           unique jobs that had to be simulated;
    * ``retries``          re-executions scheduled after a failure;
    * ``timeouts``         :class:`TaskTimeout` observations;
    * ``crashes``          :class:`WorkerCrash` observations;
    * ``errors``           in-task exceptions (bad code paths, injected
      faults raised in-process);
    * ``pool_rebuilds``    times the process pool was torn down and
      rebuilt;
    * ``degradations``     jobs that fell back to in-process serial
      execution (per-task ``on_error="serial"`` fallbacks and whole-batch
      degradation once ``MAX_POOL_REBUILDS`` is exceeded);
    * ``cache_corruptions`` corrupt entries detected and discarded;
    * ``skipped``          jobs abandoned under ``on_error="skip"``;
    * ``failures``         terminal :class:`SimulationError` instances
      (one per skipped/raised job).
    """

    __slots__ = ("total", "hits", "misses", "retries", "timeouts",
                 "crashes", "errors", "pool_rebuilds", "degradations",
                 "cache_corruptions", "skipped", "failures", "profile")

    def __init__(self, total=0):
        self.total = total
        self.hits = 0
        self.misses = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.errors = 0
        self.pool_rebuilds = 0
        self.degradations = 0
        self.cache_corruptions = 0
        self.skipped = 0
        self.failures = []
        # optional repro.obs.Profiler attached by the sweep engine: wall
        # clock per batch phase (cache probe vs. execution)
        self.profile = None

    @property
    def eventful(self):
        """True when anything beyond plain hits/misses happened."""
        return bool(self.retries or self.timeouts or self.crashes
                    or self.errors or self.pool_rebuilds
                    or self.degradations or self.cache_corruptions
                    or self.skipped or self.failures)

    def record_failure(self, error):
        self.failures.append(error)

    def as_dict(self):
        return {
            "total": self.total,
            "hits": self.hits,
            "misses": self.misses,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "pool_rebuilds": self.pool_rebuilds,
            "degradations": self.degradations,
            "cache_corruptions": self.cache_corruptions,
            "skipped": self.skipped,
            "failures": [str(failure) for failure in self.failures],
            "profile": (self.profile.as_dict()
                        if self.profile is not None else None),
        }

    def summary(self):
        """One-line account, e.g. for the CLI's stderr."""
        parts = ["%d requests" % self.total,
                 "%d hits" % self.hits,
                 "%d misses" % self.misses]
        for label, value in (("retries", self.retries),
                             ("timeouts", self.timeouts),
                             ("crashes", self.crashes),
                             ("errors", self.errors),
                             ("pool rebuilds", self.pool_rebuilds),
                             ("serial degradations", self.degradations),
                             ("corrupt cache entries",
                              self.cache_corruptions),
                             ("skipped", self.skipped)):
            if value:
                parts.append("%d %s" % (value, label))
        if self.profile is not None and self.profile.phases:
            parts.append(self.profile.summary())
        return "batch: " + ", ".join(parts)

    def __repr__(self):
        return "BatchReport(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__
        )

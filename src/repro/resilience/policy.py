"""Failure policy: how the sweep engine reacts when jobs misbehave.

A :class:`FailurePolicy` is a frozen bundle of the three values callers
set -- the CLI's ``--retries``/``--task-timeout``/``--on-error`` flags
and the job server's per-submission protocol fields -- consumed by
:meth:`~repro.sim.ExperimentRunner.run_batch`:

* how many times to retry a failed/timed-out/crashed job (the delay
  between attempts is the fixed schedule of
  :func:`repro.resilience.retry.backoff_delay`);
* the per-task wall-clock timeout after which a job is declared hung;
* what to do with a job that exhausts its retries (``on_error``):
  ``raise`` a structured :class:`~repro.resilience.SimulationError`,
  ``skip`` it (the batch returns ``None`` in its slot), or run it
  ``serial`` in-process as a last resort.

Everything else the engine does on failure -- the backoff schedule, the
pool rebuilds tolerated before a batch degrades to the calling thread,
the scheduler tick -- is a module constant, not a knob.
"""

from dataclasses import dataclass

ON_ERROR_MODES = ("raise", "skip", "serial")


@dataclass(frozen=True)
class FailurePolicy:
    """Retries, per-task timeout and terminal behaviour of a batch.

    :param retries: additional attempts after the first failure
        (``0`` disables retrying).
    :param task_timeout: per-task wall-clock seconds before a running job
        is declared hung and retried; ``None`` disables the timeout.
        Only enforced on the process-pool path -- an in-process job
        cannot be interrupted.
    :param on_error: terminal behaviour once retries are exhausted.
    """

    retries: int = 2
    task_timeout: float = None
    on_error: str = "raise"

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0, got %r" % (self.retries,))
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None, got %r"
                             % (self.task_timeout,))
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError("on_error must be one of %s, got %r"
                             % ("/".join(ON_ERROR_MODES), self.on_error))

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

from collections import namedtuple

ON_ERROR_MODES = ("raise", "skip", "serial")


class FailurePolicy(
    namedtuple("FailurePolicy", ("retries", "task_timeout", "on_error"))
):
    """Retries, per-task timeout and terminal behaviour of a batch.

    :param retries: additional attempts after the first failure
        (``0`` disables retrying).
    :param task_timeout: per-task wall-clock seconds before a running job
        is declared hung and retried; ``None`` disables the timeout.
        Only enforced on the process-pool path -- an in-process job
        cannot be interrupted.
    :param on_error: terminal behaviour once retries are exhausted.

    An override goes through the constructor, which validates it, not
    through ``_replace``, which skips ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, retries=2, task_timeout=None, on_error="raise"):
        if retries < 0:
            raise ValueError("retries must be >= 0, got %r" % (retries,))
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None, got %r"
                             % (task_timeout,))
        if on_error not in ON_ERROR_MODES:
            raise ValueError("on_error must be one of %s, got %r"
                             % ("/".join(ON_ERROR_MODES), on_error))
        return super().__new__(cls, retries, task_timeout, on_error)

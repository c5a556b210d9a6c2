"""Fault tolerance for the experiment engine.

The sweep engine (:meth:`repro.sim.ExperimentRunner.run_many`) must
survive worker failure the way a branch-predictor-directed frontend
survives misprediction: recover and keep streaming.  This package holds
the pieces:

* :mod:`~repro.resilience.policy`  -- :class:`FailurePolicy`, the three
  values a caller sets (retries, per-task timeout, ``on_error``);
* :mod:`~repro.resilience.retry`   -- the one deterministic exponential
  backoff schedule;
* :mod:`~repro.resilience.errors`  -- structured error taxonomy and the
  per-batch :class:`BatchReport`;
* :mod:`~repro.resilience.faults`  -- the ``REPRO_FAULTS`` deterministic
  fault-injection harness used by the chaos tests.
"""

from repro._lazy import lazy_exports

__all__ = [
    "payload_sha",
    "read_envelope_text",
    "unwrap_envelope",
    "wrap_envelope",
    "BatchReport",
    "CacheCorruption",
    "SimulationError",
    "TaskTimeout",
    "WorkerCrash",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "get_fault_plan",
    "parse_faults",
    "ON_ERROR_MODES",
    "FailurePolicy",
    "backoff_delay",
    "jitter_fraction",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "envelope": (
        "payload_sha",
        "read_envelope_text",
        "unwrap_envelope",
        "wrap_envelope",
    ),
    "errors": (
        "BatchReport",
        "CacheCorruption",
        "SimulationError",
        "TaskTimeout",
        "WorkerCrash",
    ),
    "faults": (
        "FaultPlan",
        "FaultSpec",
        "InjectedCrash",
        "get_fault_plan",
        "parse_faults",
    ),
    "policy": ("ON_ERROR_MODES", "FailurePolicy"),
    "retry": ("backoff_delay", "jitter_fraction"),
})

"""Struct-of-arrays batch timing kernel (ROADMAP item 1).

The scalar engines -- the core's cycle loop (lockstep,
``OutOfOrderCore._cycle_loop`` behind ``run``/``run_until``) and
:func:`repro.trace.engine.run_replay` (fused replay) -- remain the
*reference implementations*.  This package adds an optimised batch
kernel that steps many independent runs (sweep cells, or CMP cores) in
lockstep slices over preallocated ``array('q')`` state columns keyed by
an integer lane id:

* :mod:`repro.batch.feed`   -- per-trace SoA precomputes (fetch-block
  change flags, branch-prefix counts) layered over the PR 6 view;
* :mod:`repro.batch.state`  -- the per-lane hot-state columns;
* :mod:`repro.batch.turbo`  -- the generic (pre-passed outcomes) slice
  stepper with inlined L1 hit fast paths;
* :mod:`repro.batch.bfturbo`-- the B-Fetch slice stepper with the
  lookahead walk inlined as direct table arithmetic;
* :mod:`repro.batch.kernel` -- lane management, slicing, checkpointing;
* :mod:`repro.batch.cmp`    -- the event-heap-exact CMP batch runner;
* :mod:`repro.batch.fuzz`   -- the seeded scalar-vs-batch differential
  fuzzer (also a CLI: ``python -m repro.batch.fuzz``).

The acceptance bar is *byte-identity*: every stats payload a batch lane
produces must equal the scalar reference's, byte for byte --
``tests/test_batch_kernel.py`` and the CI ``batch-diff`` job enforce it
for all nine prefetchers, both predictors, single-core and CMP.

``REPRO_BATCH`` selects the routing in
:class:`repro.sim.runner.ExperimentRunner`:

* ``off`` (default) -- scalar engines only;
* ``auto`` -- eligible serial batches go through the kernel, anything
  ineligible silently falls back to the scalar path;
* ``on``   -- like ``auto`` but a kernel failure propagates instead of
  falling back (CI uses this to keep the batch path honest).
"""

import os

from repro.batch.kernel import BatchIneligible, BatchKernel, batchable

# observability: how many runs went through the kernel vs fell back
batch_counters = {
    "lanes": 0,      # lanes completed by the batch kernel
    "fallback": 0,   # eligible-mode runs that fell back to scalar
    "cmp": 0,        # CMP mixes completed by the batch runner
}

# why runs fell back, keyed by the batchable()/BatchIneligible reason
# string -- "decoupled front end is enabled" is the named reason the
# front-end eligibility tests assert on
fallback_reasons = {}


def reset_batch_counters():
    for key in batch_counters:
        batch_counters[key] = 0
    fallback_reasons.clear()


def record_fallback(reason):
    """Count one scalar fallback under its named *reason*."""
    batch_counters["fallback"] += 1
    fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1


def batch_mode():
    """Parse ``REPRO_BATCH`` -> ``off`` | ``auto`` | ``on``.

    Unset, empty and ``0`` mean ``off``; anything else unknown raises.
    """
    raw = os.environ.get("REPRO_BATCH", "").strip().lower()
    if raw in ("", "off", "0"):
        return "off"
    if raw in ("auto", "on"):
        return raw
    raise ValueError(
        "REPRO_BATCH must be one of off/auto/on, got %r" % (raw,)
    )


__all__ = [
    "BatchIneligible",
    "BatchKernel",
    "batchable",
    "batch_counters",
    "batch_mode",
    "fallback_reasons",
    "record_fallback",
    "reset_batch_counters",
]

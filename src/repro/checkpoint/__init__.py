"""Checkpoint/restore for individual simulations.

PR 2 made *sweeps* crash-safe at task granularity (the result cache is
the checkpoint, but only at run boundaries); this package makes the
*inside* of a run crash-safe.  Every stateful component exposes
``snapshot()``/``restore(state)`` returning/accepting JSON-safe
structures; :meth:`repro.sim.System.snapshot` and
:meth:`repro.sim.CMPSystem.snapshot` compose them; a
:class:`Checkpointer` persists the composed snapshot every N cycles in
the same versioned integrity envelope as the result cache.  Because the
simulator is fully deterministic, a restore is *byte-identical* replay:
killing a run with ``kill -9`` and resuming produces exactly the same
:class:`~repro.sim.RunResult` payload as the uninterrupted run.

Pieces:

* :mod:`~repro.checkpoint.manager` -- :class:`Checkpointer` (save /
  load / clear / due), ``REPRO_CKPT_DIR``/``REPRO_CKPT_EVERY``
  plumbing, ``.tmp-*`` garbage collection and the SIGINT/SIGTERM
  :class:`signal_guard`;
* :mod:`~repro.checkpoint.state` -- JSON codecs for the awkward bits
  (prefetch-meta tuples and the ``IFETCH_META`` identity sentinel,
  order-preserving dict pair lists, ``random.Random`` streams).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_EVERY",
    "CheckpointError",
    "Checkpointer",
    "InterruptFlag",
    "from_env",
    "gc_stale_tmp",
    "signal_guard",
    "decode_meta",
    "encode_meta",
    "int_dict",
    "pairs",
    "rng_from_json",
    "rng_to_json",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "manager": (
        "CHECKPOINT_VERSION",
        "DEFAULT_EVERY",
        "CheckpointError",
        "Checkpointer",
        "InterruptFlag",
        "from_env",
        "gc_stale_tmp",
        "signal_guard",
    ),
    "state": (
        "decode_meta",
        "encode_meta",
        "int_dict",
        "pairs",
        "rng_from_json",
        "rng_to_json",
    ),
})

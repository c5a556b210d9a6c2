"""Checkpoint/restore for individual simulations.

PR 2 made *sweeps* crash-safe at task granularity (the result cache is
the checkpoint, but only at run boundaries); this package makes the
*inside* of a run crash-safe.  Every stateful component declares its
state once, as a ``STATE`` tuple of attribute names;
:mod:`~repro.checkpoint.state` snapshots a declared object as
JSON-stable data and restores it in place;
:meth:`repro.sim.System.snapshot` and
:meth:`repro.sim.CMPSystem.snapshot` apply it to a whole assembly; a
:class:`Checkpointer` persists the snapshot every N cycles in the same
versioned integrity envelope as the result cache.  Because the
simulator is fully deterministic, a restore is *byte-identical* replay:
killing a run with ``kill -9`` and resuming produces exactly the same
:class:`~repro.sim.RunResult` payload as the uninterrupted run.

Pieces:

* :mod:`~repro.checkpoint.manager` -- :class:`Checkpointer` (save /
  load / clear / due), ``REPRO_CKPT_DIR``/``REPRO_CKPT_EVERY``
  plumbing, ``.tmp-*`` garbage collection and the SIGINT/SIGTERM
  :class:`signal_guard`;
* :mod:`~repro.checkpoint.state` -- the one state codec
  (``snapshot(obj)``/``restore(obj, state)``), imported only when a
  checkpoint is saved or loaded.
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
})

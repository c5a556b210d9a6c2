"""Checkpoint persistence, stale-temp garbage collection and signal guard.

A :class:`Checkpointer` owns one on-disk checkpoint file for one run.
Checkpoints use the same versioned integrity envelope as the result
cache (:mod:`repro.resilience.envelope`) and the same atomic writer
(:func:`repro.obs.io.atomic_write_text`), so a SIGKILL mid-write leaves
either the previous complete checkpoint or a ``.tmp-*`` dropping --
never a torn file -- and a corrupt/stale checkpoint is *discarded* (the
run restarts from cycle 0) rather than trusted.

Environment knobs (inherited by pool workers, which is what makes
``run_many`` resume mid-run):

* ``REPRO_CKPT_DIR``   -- directory for per-run checkpoint files; unset
  disables in-run checkpointing entirely (the zero-overhead default);
* ``REPRO_CKPT_EVERY`` -- checkpoint interval in cycles (default
  :data:`DEFAULT_EVERY`); must be a positive integer.
"""

import json
import os
import signal
import threading
import time

from repro._validate import require_ints
from repro.obs.io import atomic_write_text
from repro.resilience.envelope import read_envelope_text, wrap_envelope
from repro.resilience.errors import CacheCorruption

#: on-disk checkpoint format version (bump on incompatible layout change)
CHECKPOINT_VERSION = 2

#: default checkpoint interval in cycles when REPRO_CKPT_EVERY is unset
DEFAULT_EVERY = 50_000

#: age (seconds) past which an orphaned ``.tmp-*`` file is garbage
STALE_TMP_SECONDS = 3600.0


class CheckpointError(RuntimeError):
    """A checkpoint cannot be used (config mismatch, bad interval...)."""


def gc_stale_tmp(directory, max_age_seconds=STALE_TMP_SECONDS):
    """Remove orphaned ``.tmp-*`` files under *directory* (recursively).

    :func:`~repro.obs.io.atomic_write_text` cleans up after itself on
    exceptions, but a SIGKILL (or power loss) between ``mkstemp`` and
    ``os.replace`` strands the temp file.  Called whenever a cache or
    checkpoint directory is opened, so crashed runs don't accumulate
    junk.  Files younger than *max_age_seconds* are left alone -- they
    may belong to a concurrent live writer.

    :returns: number of files removed.
    """
    removed = 0
    cutoff = time.time() - max_age_seconds
    try:
        walker = os.walk(directory)
    except OSError:
        return removed
    for root, _dirs, files in walker:
        for name in files:
            if not name.startswith(".tmp-"):
                continue
            path = os.path.join(root, name)
            try:
                if os.path.getmtime(path) <= cutoff:
                    os.unlink(path)
                    removed += 1
            except OSError:
                continue  # raced with the writer's replace/cleanup
    return removed


class Checkpointer:
    """Owns one checkpoint file; saves/loads enveloped snapshots.

    :param path: checkpoint file location (``.ckpt.json`` by convention).
    :param every: checkpoint interval in simulated cycles (> 0).

    The stored payload is ``{"cycle": <cycle>, "state": <snapshot>}``
    wrapped in a versioned integrity envelope.
    """

    def __init__(self, path, every=DEFAULT_EVERY):
        require_ints("Checkpointer", (("every", every),),
                     error=CheckpointError)
        self.path = path
        self.every = every
        self.saves = 0
        self.loads = 0
        self.last_cycle = None
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        gc_stale_tmp(directory)

    def due(self, cycle):
        """True when *cycle* is at least ``every`` past the last save."""
        anchor = self.last_cycle if self.last_cycle is not None else 0
        return cycle - anchor >= self.every

    def save(self, state, cycle):
        """Persist *state* (a JSON-safe snapshot) atomically."""
        payload = {"cycle": cycle, "state": state}
        text = json.dumps(wrap_envelope(payload, CHECKPOINT_VERSION),
                          sort_keys=True)
        atomic_write_text(self.path, text)
        self.saves += 1
        self.last_cycle = cycle

    def load(self):
        """Return ``(state, cycle)`` from disk, or ``None``.

        A missing file means "no checkpoint" (fresh run); a corrupt or
        version-mismatched file is deleted and likewise treated as
        absent -- a checkpoint must never be *approximately* trusted.
        """
        try:
            with open(self.path) as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            payload = read_envelope_text(text, CHECKPOINT_VERSION,
                                         path=self.path)
        except CacheCorruption:
            self.clear()
            return None
        if not isinstance(payload, dict) or "state" not in payload:
            self.clear()
            return None
        self.loads += 1
        cycle = payload.get("cycle", 0)
        self.last_cycle = cycle
        return payload["state"], cycle

    def clear(self):
        """Delete the checkpoint file (after a successful run)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


def from_env(run_key, env=None):
    """Build a :class:`Checkpointer` from ``REPRO_CKPT_DIR``/``_EVERY``.

    :param run_key: filesystem-safe identity for this run (e.g. the
        cache digest); distinct runs get distinct checkpoint files.
    :returns: a :class:`Checkpointer`, or ``None`` when
        ``REPRO_CKPT_DIR`` is unset (checkpointing disabled).
    :raises CheckpointError: a malformed ``REPRO_CKPT_EVERY``.
    """
    environ = env if env is not None else os.environ
    directory = environ.get("REPRO_CKPT_DIR")
    if not directory:
        return None
    raw = environ.get("REPRO_CKPT_EVERY")
    every = DEFAULT_EVERY
    if raw:
        try:
            every = int(raw)
        except ValueError:
            raise CheckpointError(
                "REPRO_CKPT_EVERY must be a positive integer number of "
                "cycles, got %r" % (raw,)
            )
    path = os.path.join(directory, "%s.ckpt.json" % (run_key,))
    return Checkpointer(path, every=every)


class InterruptFlag:
    """Latches the first SIGINT/SIGTERM seen inside a signal guard."""

    __slots__ = ("signum",)

    def __init__(self):
        self.signum = None

    def __bool__(self):
        return self.signum is not None

    def raise_pending(self):
        """Re-raise the deferred signal (after state has been saved).

        SIGINT becomes :class:`KeyboardInterrupt` (matching Python's
        default) and SIGTERM a nonzero :class:`SystemExit` with the
        conventional ``128 + signum`` status.
        """
        if self.signum == signal.SIGINT:
            raise KeyboardInterrupt()
        if self.signum is not None:
            raise SystemExit(128 + self.signum)


class signal_guard:
    """Context manager deferring SIGINT/SIGTERM to a checkpoint boundary.

    Inside the guard the signals only latch an :class:`InterruptFlag`;
    the simulation loop polls the flag at chunk boundaries, flushes its
    trace buffers, writes a final checkpoint and *then* calls
    :meth:`InterruptFlag.raise_pending` to exit nonzero.  Outside the
    main thread (pool workers already run simulations in the main thread
    of their process, but belt and braces) the guard is a no-op and the
    default handlers stay in place.
    """

    def __init__(self):
        self.flag = InterruptFlag()
        self._previous = {}

    def __enter__(self):
        if threading.current_thread() is not threading.main_thread():
            return self.flag

        def _latch(signum, _frame):
            self.flag.signum = signum

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, _latch)
            except (ValueError, OSError):  # non-main thread race, etc.
                pass
        return self.flag

    def __exit__(self, exc_type, exc, tb):
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._previous.clear()
        return False

"""Deterministic fault injection for the sweep engine (chaos harness).

Activated by the ``REPRO_FAULTS`` environment variable, a comma-
separated list of fault specs::

    REPRO_FAULTS="crash:0.1:seed=7,hang:0.05:dur=1.5,corrupt-cache:0.1"

Each spec is ``kind:probability[:opt=value...]``.  Supported kinds:

* ``crash``          -- the worker process exits abruptly
  (``os._exit``) mid-job, breaking the process pool; injected
  in-process (serial paths) it raises :class:`InjectedCrash` instead,
  since killing the caller would defeat the point;
* ``hang``           -- the job sleeps ``dur`` seconds (default 5.0)
  before completing normally, tripping the per-task timeout;
* ``corrupt-cache``  -- the cache write for an entry is replaced by
  truncated garbage, exercising the integrity-envelope read path;
* ``corrupt-state``  -- a deterministic in-memory corruption is applied
  to the running simulation's microarchitectural state at a configured
  cycle (``cycle=N``, default :data:`DEFAULT_CORRUPT_CYCLE`),
  exercising the ``REPRO_CHECK`` invariant sanitizer and the
  checkpoint-replay auto-bisect.

Fleet verbs (consulted only by the fleet's worker subprocesses,
see :mod:`repro.serve.supervisor`):

* ``worker-kill``    -- the worker process hard-exits (``os._exit``) at
  a deterministic job/task boundary, exercising worker-loss detection,
  respawn and in-flight-job requeue;
* ``worker-hang``    -- the worker freezes: its heartbeat thread is
  suspended and the main loop sleeps, so the supervisor's missed-beat
  liveness check must declare it dead and requeue its job;
* ``worker-slow``    -- the worker sleeps ``ms`` milliseconds (default
  :data:`DEFAULT_SLOW_MS`) at each boundary, simulating a straggler
  host without killing anything.

Options: ``seed=N`` (per-spec decision seed, default 0), ``dur=F``
(hang duration, seconds), ``cycle=N`` (corrupt-state trigger cycle)
and ``ms=F`` (worker-slow delay, milliseconds).

Determinism contract -- what makes the chaos tests assert byte-identical
recovery:

* whether a fault fires for a given job is a pure function of
  ``(seed, kind, task key)`` (SHA-1 threshold test), so the same sweep
  under the same ``REPRO_FAULTS`` always injects the same faults;
* ``crash``/``hang``/``worker-kill``/``worker-hang`` fire only on a
  job's *first* attempt, so a retried (or requeued) job always
  converges;
* ``corrupt-cache`` fires at most once per cache path per process, so
  a detected-and-recomputed entry is rewritten clean.
"""

import hashlib
import os
import time

FAULT_KINDS = ("crash", "hang", "corrupt-cache", "corrupt-state",
               "worker-kill", "worker-hang", "worker-slow")

ENV_FAULTS = "REPRO_FAULTS"

# exit status used by injected worker crashes (visible in pool logs)
CRASH_EXIT_CODE = 87

_DEFAULT_HANG_SECONDS = 5.0

# cycle at which a ``corrupt-state`` fault fires when no ``cycle=N``
# option overrides it
DEFAULT_CORRUPT_CYCLE = 1000

# worker-slow straggler delay when no ``ms=F`` option overrides it
DEFAULT_SLOW_MS = 50.0

# garbage written in place of a real entry by ``corrupt-cache``
CORRUPT_PAYLOAD = '{"v": 2, "sha": "deadbeef", "data": {"trunca'


class InjectedCrash(RuntimeError):
    """Raised by an in-process ``crash`` fault (serial execution paths)."""


class FaultSpec(object):
    """One parsed fault: kind, probability, seed, optional duration,
    trigger cycle or straggler delay."""

    __slots__ = ("kind", "prob", "seed", "dur", "cycle", "ms")

    def __init__(self, kind, prob, seed=0, dur=None, cycle=None, ms=None):
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (choose from %s)"
                             % (kind, ", ".join(FAULT_KINDS)))
        if not 0.0 <= prob <= 1.0:
            raise ValueError("fault probability must be in [0, 1], got %r"
                             % (prob,))
        if cycle is not None and cycle < 1:
            raise ValueError("fault cycle must be >= 1, got %r" % (cycle,))
        if ms is not None and ms < 0:
            raise ValueError("fault ms must be >= 0, got %r" % (ms,))
        self.kind = kind
        self.prob = prob
        self.seed = seed
        self.dur = dur
        self.cycle = cycle
        self.ms = ms

    def __repr__(self):
        return ("FaultSpec(kind=%r, prob=%r, seed=%r, dur=%r, cycle=%r, "
                "ms=%r)"
                % (self.kind, self.prob, self.seed, self.dur, self.cycle,
                   self.ms))


def parse_faults(text):
    """Parse a ``REPRO_FAULTS`` string into ``{kind: FaultSpec}``.

    Raises :class:`ValueError` on malformed specs, unknown kinds,
    out-of-range probabilities or duplicate kinds.
    """
    specs = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2:
            raise ValueError(
                "malformed fault spec %r (expected kind:prob[:opt=val...])"
                % (chunk,)
            )
        kind = parts[0].strip()
        try:
            prob = float(parts[1])
        except ValueError:
            raise ValueError("fault probability in %r must be a number"
                             % (chunk,))
        options = {}
        for option in parts[2:]:
            if "=" not in option:
                raise ValueError("malformed fault option %r in %r "
                                 "(expected name=value)" % (option, chunk))
            name, _, value = option.partition("=")
            name = name.strip()
            if name == "seed":
                options["seed"] = int(value)
            elif name == "dur":
                options["dur"] = float(value)
            elif name == "cycle":
                options["cycle"] = int(value)
            elif name == "ms":
                options["ms"] = float(value)
            else:
                raise ValueError("unknown fault option %r in %r "
                                 "(supported: seed, dur, cycle, ms)"
                                 % (name, chunk))
        if kind in specs:
            raise ValueError("duplicate fault kind %r" % (kind,))
        specs[kind] = FaultSpec(kind, prob, **options)
    return specs


class FaultPlan(object):
    """Deterministic decisions for one parsed ``REPRO_FAULTS`` value.

    Holds the once-per-key memory for ``corrupt-cache``; reuse the
    process-level singleton from :func:`get_fault_plan` so the memory
    survives across runner instances.
    """

    def __init__(self, specs=None):
        self.specs = dict(specs or {})
        self._corrupted = set()
        self._state_corrupted = set()

    @property
    def active(self):
        return bool(self.specs)

    def _fires(self, kind, key):
        spec = self.specs.get(kind)
        if spec is None or spec.prob <= 0.0:
            return False
        if spec.prob >= 1.0:
            return True
        digest = hashlib.sha1(
            ("%s|%s|%s" % (spec.seed, kind, key)).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") < spec.prob * (1 << 64)

    # -- decision points -------------------------------------------------

    def should_crash(self, key, attempt=0):
        """Crash faults fire only on a job's first attempt."""
        return attempt == 0 and self._fires("crash", key)

    def should_hang(self, key, attempt=0):
        return attempt == 0 and self._fires("hang", key)

    def hang_seconds(self):
        spec = self.specs.get("hang")
        if spec is None:
            return 0.0
        return spec.dur if spec.dur is not None else _DEFAULT_HANG_SECONDS

    def corrupt_payload(self, key):
        """Garbage to write instead of the real entry, or ``None``.

        Fires at most once per *key* per plan (i.e. per process), so the
        recomputed entry is persisted intact.
        """
        if key in self._corrupted or not self._fires("corrupt-cache", key):
            return None
        self._corrupted.add(key)
        return CORRUPT_PAYLOAD

    def should_worker_kill(self, key, attempt=0):
        """Worker-kill faults fire only on a job's first assignment."""
        return attempt == 0 and self._fires("worker-kill", key)

    def should_worker_hang(self, key, attempt=0):
        """Worker-hang faults fire only on a job's first assignment."""
        return attempt == 0 and self._fires("worker-hang", key)

    def worker_slow_seconds(self, key):
        """Straggler delay (seconds) for this boundary, or 0.0.

        Unlike the lethal verbs, ``worker-slow`` fires on every attempt
        -- a slow host stays slow -- so requeued jobs see it too.
        """
        spec = self.specs.get("worker-slow")
        if spec is None or not self._fires("worker-slow", key):
            return 0.0
        ms = spec.ms if spec.ms is not None else DEFAULT_SLOW_MS
        return ms / 1000.0

    def corrupt_state_cycle(self, key, attempt=0):
        """Cycle at which ``corrupt-state`` fires for this run, or None.

        Fires only on a job's *first* attempt and at most once per *key*
        per plan, so a retried/resumed job converges after detection
        even when the retry lands in a different worker process.
        """
        if attempt != 0:
            return None
        spec = self.specs.get("corrupt-state")
        if spec is None or key in self._state_corrupted \
                or not self._fires("corrupt-state", key):
            return None
        self._state_corrupted.add(key)
        return spec.cycle if spec.cycle is not None \
            else DEFAULT_CORRUPT_CYCLE

    # -- injection actions ----------------------------------------------

    def inject_execution_faults(self, key, attempt=0):
        """Run crash/hang injections for a job about to execute.

        In a pool worker a ``crash`` is a hard ``os._exit`` (the parent
        observes ``BrokenProcessPool``); in the parent process it raises
        :class:`InjectedCrash` so serial paths see a normal exception.
        """
        if self.should_hang(key, attempt):
            time.sleep(self.hang_seconds())
        if self.should_crash(key, attempt):
            if _in_worker_process():
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrash(
                "injected crash fault for task %r (attempt %d)"
                % (key, attempt)
            )


def apply_state_corruption(system):
    """Deterministically damage one system's microarchitectural state.

    The damage is chosen to trip both sanitizer tiers:

    * the L1D hit counter is bumped without an access, breaking the
      ``hit-miss-partition`` invariant (caught by ``REPRO_CHECK=cheap``
      and ``full``);
    * a bogus line is planted in L1D set 0 under a block number that
      maps to set 1, breaking ``tag-set-consistency`` (caught by the
      exhaustive walk in ``REPRO_CHECK=full``).

    Pure and deterministic: applying it to the same state always
    produces the same corrupted state, so a checkpoint replay that
    re-injects it reproduces the divergence cycle exactly.
    """
    from repro.memory.cache import Line

    cache = system.hierarchy.l1d
    cache.stats.hits += 1
    bogus_block = (cache._set_mask + 1) | 1  # maps to set 1, planted in 0
    cache.sets[0][bogus_block] = Line(cache._tick)


def _in_worker_process():
    import multiprocessing

    return multiprocessing.parent_process() is not None


# (raw REPRO_FAULTS string, FaultPlan) -- module-level so the
# corrupt-cache once-per-key memory survives across ExperimentRunner
# instances; re-parsed whenever the raw value changes (monkeypatched
# environments keep working).
_plan_cache = (None, FaultPlan())


def get_fault_plan():
    """The process-level :class:`FaultPlan` for the current environment."""
    global _plan_cache
    raw = os.environ.get(ENV_FAULTS)
    cached_raw, plan = _plan_cache
    if raw != cached_raw:
        plan = FaultPlan(parse_faults(raw) if raw else {})
        _plan_cache = (raw, plan)
    return plan

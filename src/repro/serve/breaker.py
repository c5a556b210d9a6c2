"""Per-benchmark circuit breaker: stop hammering a failing workload.

When one benchmark starts failing persistently (a corrupt program
image, a pathological config, an injected fault storm), retrying every
new submission against it burns worker capacity that healthy traffic
needs.  The classic remedy is a circuit breaker per failure domain --
here the domain is the *benchmark*, because a failure in one program's
simulation says nothing about another's.

State machine (driven entirely by the server's terminal-job outcomes;
no timers, no threads -- time enters only through the caller's clock):

* ``closed``     -- normal operation.  Outcomes are folded into a
  sliding window of the last *window* jobs; once at least
  ``min_events`` outcomes are present and the windowed failure rate
  reaches ``failure_threshold``, the breaker **opens**.
* ``open``       -- submissions for the benchmark are rejected with a
  typed ``circuit-open`` error (busy-class: clients may back off and
  retry).  After ``cooldown`` seconds the next :meth:`allow` lets one
  probe through and moves to ``half-open``.
* ``half-open``  -- exactly one in-flight probe.  Success closes the
  breaker (window cleared); failure re-opens it for another cooldown.
  A probe that never reports back (e.g. its client vanished) is
  re-armed after a further cooldown, so the breaker cannot wedge.

Transitions are observable: ``on_transition(benchmark, old, new)``
feeds the ``serve.fleet.breaker.*`` counters.
"""

import threading
import time

BREAKER_STATES = ("closed", "open", "half-open")

DEFAULT_WINDOW = 20
DEFAULT_MIN_EVENTS = 5
DEFAULT_FAILURE_THRESHOLD = 0.5
DEFAULT_COOLDOWN = 30.0


class CircuitBreaker(object):
    """Windowed failure-rate breaker for one failure domain.

    :param window: outcomes retained for the failure-rate estimate.
    :param min_events: outcomes required before the breaker may open
        (one unlucky first job must not open a cold breaker).
    :param failure_threshold: windowed failure fraction at which the
        breaker opens (inclusive).
    :param cooldown: seconds an open breaker waits before probing.
    :param clock: monotonic time source (injectable for tests).
    """

    __slots__ = ("window", "min_events", "failure_threshold", "cooldown",
                 "_clock", "state", "_outcomes", "_opened_at",
                 "_probe_sent_at")

    def __init__(self, window=DEFAULT_WINDOW, min_events=DEFAULT_MIN_EVENTS,
                 failure_threshold=DEFAULT_FAILURE_THRESHOLD,
                 cooldown=DEFAULT_COOLDOWN, clock=time.monotonic):
        if window < 1:
            raise ValueError("window must be >= 1, got %r" % (window,))
        if min_events < 1:
            raise ValueError("min_events must be >= 1, got %r"
                             % (min_events,))
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1], got %r"
                             % (failure_threshold,))
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0, got %r" % (cooldown,))
        self.window = window
        self.min_events = min_events
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = "closed"
        self._outcomes = []        # bools, newest last, len <= window
        self._opened_at = None
        self._probe_sent_at = None

    @property
    def failure_rate(self):
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) \
            / float(len(self._outcomes))

    def allow(self):
        """May a new job for this domain be admitted right now?

        Returns ``(allowed, transition)`` where *transition* is the
        ``(old, new)`` state pair when this call moved the machine
        (``open -> half-open`` probe dispatch), else ``None``.
        """
        if self.state == "closed":
            return True, None
        now = self._clock()
        if self.state == "open":
            if now - self._opened_at >= self.cooldown:
                self.state = "half-open"
                self._probe_sent_at = now
                return True, ("open", "half-open")
            return False, None
        # half-open: one probe in flight; re-arm if it went dark
        if now - self._probe_sent_at >= self.cooldown:
            self._probe_sent_at = now
            return True, None
        return False, None

    def record(self, success):
        """Fold one terminal outcome; returns a transition pair or None.

        Call for every job outcome attributable to this domain --
        cancellations and deadline sheds are *not* outcomes (the
        simulation never rendered a verdict) and must not be recorded.
        """
        if self.state == "half-open":
            if success:
                self.state = "closed"
                self._outcomes = []
                self._opened_at = None
                self._probe_sent_at = None
                return ("half-open", "closed")
            self.state = "open"
            self._opened_at = self._clock()
            self._probe_sent_at = None
            return ("half-open", "open")
        self._outcomes.append(bool(success))
        if len(self._outcomes) > self.window:
            del self._outcomes[:len(self._outcomes) - self.window]
        if (self.state == "closed"
                and len(self._outcomes) >= self.min_events
                and self.failure_rate >= self.failure_threshold):
            self.state = "open"
            self._opened_at = self._clock()
            return ("closed", "open")
        return None

    def snapshot(self):
        return {
            "state": self.state,
            "events": len(self._outcomes),
            "failure_rate": round(self.failure_rate, 4),
        }


class BreakerBoard(object):
    """One :class:`CircuitBreaker` per benchmark, created lazily.

    All breakers share one configuration; *on_transition* is invoked as
    ``on_transition(benchmark, old_state, new_state)`` for every state
    change (the server bumps ``serve.fleet.breaker.*`` counters there).

    The board is thread-safe: every state read or verdict fold holds
    one lock, so concurrent recorders (bench harnesses, or any caller
    off the loop thread) cannot tear a breaker's window or
    double-create a breaker.  ``on_transition`` fires outside the lock
    -- a callback that re-enters the board must not deadlock.
    """

    def __init__(self, window=DEFAULT_WINDOW, min_events=DEFAULT_MIN_EVENTS,
                 failure_threshold=DEFAULT_FAILURE_THRESHOLD,
                 cooldown=DEFAULT_COOLDOWN, clock=time.monotonic,
                 on_transition=None):
        self._config = dict(window=window, min_events=min_events,
                            failure_threshold=failure_threshold,
                            cooldown=cooldown, clock=clock)
        self.on_transition = on_transition
        self._breakers = {}
        self._lock = threading.Lock()

    def _get(self, benchmark):
        breaker = self._breakers.get(benchmark)
        if breaker is None:
            breaker = self._breakers[benchmark] = CircuitBreaker(
                **self._config
            )
        return breaker

    def allow(self, benchmark):
        """True when a job touching *benchmark* may be admitted."""
        with self._lock:
            allowed, transition = self._get(benchmark).allow()
        if transition is not None and self.on_transition is not None:
            self.on_transition(benchmark, *transition)
        return allowed

    def record(self, benchmark, success):
        """Fold one terminal outcome for *benchmark*."""
        with self._lock:
            transition = self._get(benchmark).record(success)
        if transition is not None and self.on_transition is not None:
            self.on_transition(benchmark, *transition)

    def state(self, benchmark):
        with self._lock:
            breaker = self._breakers.get(benchmark)
            return breaker.state if breaker is not None else "closed"

    def snapshot(self):
        """``{benchmark: breaker snapshot}`` for non-closed or seen ones."""
        with self._lock:
            return {
                benchmark: breaker.snapshot()
                for benchmark, breaker in sorted(self._breakers.items())
            }

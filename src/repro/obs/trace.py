"""Structured JSONL event tracing with per-category enable/sampling.

The simulator emits *events* -- small dicts with a category, an event
type, and a cycle timestamp -- into an in-memory buffer that is written
as one JSON object per line (JSONL) through the same atomic-write path
the result cache uses.  Tracing is **off by default** and costs nothing
when off: components hold a per-category :class:`Channel` that is
``None`` when the category is disabled, so the hot path pays one
``is not None`` test at most.

Enabling: set ``REPRO_TRACE`` to a comma-separated category spec::

    REPRO_TRACE=all                 # every category, every event
    REPRO_TRACE=bfetch              # only B-Fetch walk events
    REPRO_TRACE=bfetch,cache:0.01   # walks + 1% sample of cache fills
    REPRO_TRACE=all:0.1             # 10% sample of everything

Sampling is **deterministic**: each channel carries an error-diffusion
accumulator (``acc += rate; emit when acc >= 1``), so a fixed-seed
simulation produces byte-identical trace files on every run -- the
property the CI trace-smoke job asserts.

Event grammar (validated by :func:`validate_event`)::

    {"cat": <category>, "ev": <type>, "cycle": <int>, ...fields}

Categories:

* ``bfetch``   -- lookahead walks (``walk`` events: depth, path end);
* ``prefetch`` -- queue pushes and hierarchy issues;
* ``cache``    -- demand fills and prefetch fills per level;
* ``feedback`` -- prefetched-line outcomes (useful / late / useless);
* ``branch``   -- conditional-branch predictions and mispredicts;
* ``serve``    -- job-server lifecycle (submit/start/progress/done).
"""

import json
import os

from repro.obs.io import atomic_write_text

CATEGORIES = ("bfetch", "prefetch", "cache", "feedback", "branch",
              "frontend", "serve")

_REQUIRED_FIELDS = ("cat", "ev", "cycle")

#: default trace output file when ``REPRO_TRACE_FILE`` is not set
DEFAULT_TRACE_FILE = "repro-trace.jsonl"


class TraceConfigError(ValueError):
    """A malformed ``REPRO_TRACE`` specification."""


def parse_trace_spec(spec):
    """Parse a ``REPRO_TRACE`` value into ``{category: sample_rate}``.

    Grammar: ``cat[:rate][,cat[:rate]...]`` where ``cat`` is one of
    :data:`CATEGORIES` or ``all`` and ``rate`` is a float in (0, 1].
    Returns an empty dict for an empty/None spec (tracing disabled).
    """
    rates = {}
    if not spec:
        return rates
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, rate_text = part.partition(":")
        name = name.strip()
        if rate_text:
            try:
                rate = float(rate_text)
            except ValueError:
                raise TraceConfigError(
                    "bad sample rate %r in REPRO_TRACE part %r"
                    % (rate_text, part)
                )
            if not 0.0 < rate <= 1.0:
                raise TraceConfigError(
                    "sample rate must be in (0, 1], got %r in %r"
                    % (rate, part)
                )
        else:
            rate = 1.0
        if name == "all":
            for category in CATEGORIES:
                rates.setdefault(category, rate)
        elif name in CATEGORIES:
            rates[name] = rate
        else:
            raise TraceConfigError(
                "unknown trace category %r (choose from %s or 'all')"
                % (name, ", ".join(CATEGORIES))
            )
    return rates


class Channel(object):
    """One enabled category: deterministic sampler + shared buffer.

    Components cache the channel (or ``None``) at assembly time; the
    per-event cost when enabled is one accumulator update and one
    ``list.append``.
    """

    __slots__ = ("category", "rate", "_acc", "_buffer")

    def __init__(self, category, rate, buffer):
        self.category = category
        self.rate = rate
        self._acc = 0.0
        self._buffer = buffer

    def emit(self, ev, cycle, **fields):
        """Record one event (subject to this channel's sampling rate)."""
        rate = self.rate
        if rate < 1.0:
            acc = self._acc + rate
            if acc < 1.0:
                self._acc = acc
                return False
            self._acc = acc - 1.0
        event = {"cat": self.category, "ev": ev, "cycle": cycle}
        event.update(fields)
        self._buffer.append(event)
        return True


class Tracer(object):
    """Buffered JSONL event tracer.

    :param rates: ``{category: sample_rate}`` (see
        :func:`parse_trace_spec`); empty disables every channel.
    :param path: output file for :meth:`flush`; None keeps events
        in memory only (tests, programmatic use).
    """

    def __init__(self, rates=None, path=None):
        self.rates = dict(rates or {})
        self.path = path
        self.events = []
        self._appended = 0     # events already written by append()
        self._channels = {
            category: Channel(category, rate, self.events)
            for category, rate in self.rates.items()
        }

    @classmethod
    def from_env(cls, environ=None):
        """Build a tracer from ``REPRO_TRACE`` / ``REPRO_TRACE_FILE``.

        Returns None when ``REPRO_TRACE`` is unset or empty -- the
        "tracing off" fast path the components test with ``is None``.
        """
        environ = os.environ if environ is None else environ
        rates = parse_trace_spec(environ.get("REPRO_TRACE"))
        if not rates:
            return None
        path = environ.get("REPRO_TRACE_FILE") or DEFAULT_TRACE_FILE
        return cls(rates, path=path)

    def channel(self, category):
        """The :class:`Channel` for *category*, or None when disabled."""
        return self._channels.get(category)

    @property
    def enabled(self):
        return bool(self._channels)

    def counts(self):
        """``{category: recorded event count}`` for summaries."""
        counts = {}
        for event in self.events:
            category = event["cat"]
            counts[category] = counts.get(category, 0) + 1
        return counts

    def to_jsonl(self, start=0):
        """Render the buffer from event *start* on as JSONL text (sorted
        keys: byte-stable)."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n"
            for event in self.events[start:]
        )

    def flush(self, path=None):
        """Atomically write the buffered events as JSONL.

        :returns: the output path, or None when there is nowhere to
            write (no *path* argument and no configured ``self.path``).
        """
        path = path or self.path
        if not path:
            return None
        return atomic_write_text(path, self.to_jsonl())

    def append(self):
        """Append the events recorded since the last call to ``self.path``.

        For a long-lived writer (the job server): each call costs the
        new events, not the whole buffer :meth:`flush` rewrites, and
        every event is on disk once the call that wrote it returns.  The
        first call starts the file afresh, so the file always equals
        :meth:`to_jsonl` as of the last call.

        :returns: the output path, or None when ``self.path`` is unset.
        """
        if not self.path:
            return None
        start = self._appended
        if not start:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a" if start else "w") as handle:
            handle.write(self.to_jsonl(start))
        self._appended = len(self.events)
        return self.path


# ----------------------------------------------------------------------
# schema validation (tests + the CI trace-smoke job)

def validate_event(event):
    """Check one decoded event against the trace grammar.

    :returns: list of problem strings (empty when valid).
    """
    problems = []
    if not isinstance(event, dict):
        return ["event is not an object: %r" % (event,)]
    for field in _REQUIRED_FIELDS:
        if field not in event:
            problems.append("missing required field %r" % field)
    category = event.get("cat")
    if category is not None and category not in CATEGORIES:
        problems.append("unknown category %r" % category)
    cycle = event.get("cycle")
    if cycle is not None and (not isinstance(cycle, int)
                              or isinstance(cycle, bool) or cycle < 0):
        problems.append("cycle must be a non-negative integer, got %r"
                        % (cycle,))
    ev = event.get("ev")
    if ev is not None and not isinstance(ev, str):
        problems.append("ev must be a string, got %r" % (ev,))
    return problems


def validate_jsonl(text):
    """Validate a whole JSONL trace; returns a list of problem strings."""
    problems = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            problems.append("line %d: unparseable JSON (%s)" % (number, exc))
            continue
        for problem in validate_event(event):
            problems.append("line %d: %s" % (number, problem))
    return problems

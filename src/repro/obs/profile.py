"""Opt-in wall-clock profiling sections.

A :class:`Profiler` accumulates named phases -- each with wall-clock
seconds, an invocation count, and an optional *item* count (simulated
instructions, batch jobs, ...) from which it derives a rate.  The
sweep engine attaches one to every
:class:`~repro.resilience.BatchReport` so the ``[resilience]`` summary
shows where a batch spent its time.

Cost model: two ``perf_counter`` calls per section enter/exit, and
nothing at all when no section is ever opened.
"""

import time
from collections import OrderedDict
from contextlib import contextmanager


class PhaseRecord(object):
    """Accumulated timing for one named phase."""

    __slots__ = ("name", "seconds", "calls", "items")

    def __init__(self, name):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.items = 0

    @property
    def rate(self):
        """Items per second (0.0 when no items or no time recorded)."""
        return self.items / self.seconds if self.seconds else 0.0

    def as_dict(self):
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "items": self.items,
            "rate": self.rate,
        }


class Profiler(object):
    """Named wall-clock sections with item-rate accounting."""

    def __init__(self):
        self.phases = OrderedDict()

    def _phase(self, name):
        phase = self.phases.get(name)
        if phase is None:
            phase = self.phases[name] = PhaseRecord(name)
        return phase

    @contextmanager
    def section(self, name, items=0):
        """Time a ``with`` block under *name*, crediting *items* to it."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start, items)

    def add(self, name, seconds, items=0):
        """Record *seconds* (and *items*) against phase *name* directly."""
        phase = self._phase(name)
        phase.seconds += seconds
        phase.calls += 1
        phase.items += items

    def as_dict(self):
        return OrderedDict(
            (name, phase.as_dict()) for name, phase in self.phases.items()
        )

    def summary(self):
        """Compact one-line rendering: ``probe 0.01s, execute 1.2s (8k/s)``."""
        parts = []
        for name, phase in self.phases.items():
            text = "%s %.3gs" % (name, phase.seconds)
            if phase.items:
                text += " (%.3g/s)" % phase.rate
            parts.append(text)
        return ", ".join(parts)

    def render(self):
        """Multi-line table for CLI output."""
        lines = ["%-20s %10s %8s %12s %12s"
                 % ("phase", "seconds", "calls", "items", "items/s")]
        for name, phase in self.phases.items():
            lines.append(
                "%-20s %10.4f %8d %12d %12.0f"
                % (name, phase.seconds, phase.calls, phase.items, phase.rate)
            )
        return "\n".join(lines)

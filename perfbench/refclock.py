"""Host time rescaled to a fixed reference speed.

A small VM's speed drifts: a fixed pure-Python loop can take half as long
again for a few seconds, then recover, and the mix of fast and slow
spells differs from one run to the next.  Raw timings of the same code
then spread past any useful bound.  A :class:`ReferenceClock` cancels most
of that drift: between every two timed segments it times a fixed
interpreter-bound probe loop, and it rescales each segment by the mean of
the probes on either side of it::

    reported = raw * REFERENCE_PROBE_S / mean(probe before, probe after)

so a reported second is a second of a host that runs the probe in
:data:`REFERENCE_PROBE_S`.  The probes' own time is left out of every
segment.  The probe is the benchmark's own code and no change to
``src/`` can alter it, so a faster simulator still reads faster.

:class:`RawClock` has the same interface and reports plain host time; the
traced pass uses it, so the probes do not blur its overhead ratio.
"""

import statistics
import time

# loop iterations of one probe pass; a probe takes the median of three
# passes, so one interrupted pass does not skew it.  A probe lasts a few
# milliseconds: short next to the segments it brackets, long next to the
# timer's resolution
PROBE_ITERATIONS = 5_500
PROBE_PASSES = 3
# what one pass takes on the reference host (a 2.1 GHz Xeon vCPU running
# CPython 3.11 in a fast spell); it only fixes the scale of the figures
REFERENCE_PROBE_S = 0.001
WARMUP_PROBES = 3


class _Counter(object):
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


def _probe_pass():
    start = time.perf_counter()
    table = {}
    counter = _Counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
        key = acc & 255
        table[key] = table.get(key, 0) + 1
        counter.value += key & 1
    return time.perf_counter() - start


def probe():
    """Time the fixed probe loop: the median of :data:`PROBE_PASSES`
    passes, in seconds.

    The loop does what the simulator's hot loops do -- small-int
    arithmetic, dict updates, attribute reads and writes -- so host drift
    slows it about as much as it slows the simulator."""
    return statistics.median(_probe_pass() for _ in range(PROBE_PASSES))


class RawClock(object):
    """Plain host time between laps; the reference-clock interface."""

    def __init__(self):
        self.total_s = 0.0
        self.raw_total_s = 0.0
        self.probes = []
        # reported over raw time of the last segment
        self.last_scale = 1.0
        self._resumed = time.perf_counter()

    def scale_setup(self, raw_s):
        return raw_s

    def lap(self):
        """Close the segment since the previous lap; returns its length."""
        now = time.perf_counter()
        raw = now - self._resumed
        self._resumed = now
        self.total_s += raw
        self.raw_total_s += raw
        return raw

    def host_factor(self):
        """Median probe over :data:`REFERENCE_PROBE_S`; 1 when raw."""
        return 1.0


class ReferenceClock(RawClock):
    """Host time between laps, rescaled by the probes around each one."""

    def __init__(self):
        # the first probes after a burst of set-up work run slow; they are
        # dropped
        for _ in range(WARMUP_PROBES):
            probe()
        self._before = probe()
        super().__init__()
        self.probes = [self._before]

    def scale_setup(self, raw_s):
        """Rescale the set-up that ran before the clock was made, by the
        median probe so far: the probes right after set-up run slow, and
        would over-correct it."""
        return raw_s / self.host_factor()

    def lap(self):
        raw = time.perf_counter() - self._resumed
        after = probe()
        self.last_scale = REFERENCE_PROBE_S / (0.5 * (self._before + after))
        scaled = raw * self.last_scale
        self._before = after
        self.probes.append(after)
        self.total_s += scaled
        self.raw_total_s += raw
        self._resumed = time.perf_counter()
        return scaled

    def host_factor(self):
        return statistics.median(self.probes) / REFERENCE_PROBE_S

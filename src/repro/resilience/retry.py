"""The one retry schedule: exponential backoff + seeded jitter.

:func:`backoff_delay` spaces out every retry in the repository -- a
failed batch task (:mod:`repro.sim.runner`), a respawned fleet worker
(:mod:`repro.serve.fleet`) and a client's busy-class resubmission
(:mod:`repro.serve.client`).  The jitter is *deterministic*: it is
derived from ``(JITTER_SEED, key, attempt)`` through SHA-1, so a key
always follows the same schedule -- the chaos tests assert this, and it
keeps faulty sweeps reproducible while still de-synchronising retries
across keys (two tasks that fail at the same instant back off by
different amounts).
"""

import hashlib

#: first delay, seconds
BACKOFF_BASE = 0.05
#: growth per further attempt
BACKOFF_FACTOR = 2.0
#: cap on the exponential part of one delay, seconds
BACKOFF_MAX = 2.0
#: maximum extra delay, as a fraction of the capped delay
JITTER = 0.5
#: seed of the jitter draw -- fixed seed, fixed schedule
JITTER_SEED = 0


def jitter_fraction(key, attempt):
    """Deterministic uniform-ish fraction in ``[0, 1)``."""
    digest = hashlib.sha1(
        ("%s|%s|%d" % (JITTER_SEED, key, attempt)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def backoff_delay(key, attempt):
    """Delay (seconds) before retry number *attempt* (0-based) of *key*.

    ``BACKOFF_BASE * BACKOFF_FACTOR**attempt`` capped at
    ``BACKOFF_MAX``, plus a deterministic jitter of up to ``JITTER``
    times the capped delay.
    """
    base = min(BACKOFF_BASE * (BACKOFF_FACTOR ** attempt), BACKOFF_MAX)
    return base * (1.0 + JITTER * jitter_fraction(key, attempt))

"""Versioned integrity envelopes for on-disk simulation artefacts.

The result cache (:mod:`repro.sim.runner`) and the checkpoint store
(:mod:`repro.checkpoint`) persist JSON payloads that must survive
crashes, partial writes and bit rot without ever being *silently* wrong.
Both wrap their payloads in the same envelope::

    {"v": <format version>, "sha": <payload digest>, "data": <payload>}

where ``sha`` is the first 16 hex characters of the SHA-1 of the
``sort_keys`` JSON serialisation of ``data``.  :func:`unwrap_envelope`
verifies both fields on read and raises
:class:`~repro.resilience.CacheCorruption` (the shared "this file cannot
be trusted" signal) on any mismatch, so callers recompute instead of
consuming garbage.
"""

import hashlib
import json

from repro.resilience.errors import CacheCorruption


def payload_sha(data):
    """Content digest stored in (and verified against) envelopes."""
    return hashlib.sha1(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()[:16]


def wrap_envelope(data, version):
    """Wrap *data* in a ``{"v", "sha", "data"}`` integrity envelope."""
    return {"v": version, "sha": payload_sha(data), "data": data}


def is_envelope(obj):
    """True when *obj* looks like an integrity envelope."""
    return isinstance(obj, dict) and {"v", "sha", "data"} <= obj.keys()


def unwrap_envelope(obj, version, path=None):
    """Verify an envelope and return its inner payload.

    :param obj: the parsed JSON object read from disk.
    :param version: the expected format version.
    :param path: originating file, attached to errors for diagnostics.
    :raises CacheCorruption: a missing envelope (a bare payload), wrong
        envelope version, or payload digest mismatch.
    """
    if not is_envelope(obj):
        raise CacheCorruption(
            "entry %s is not an integrity envelope" % (path,), path=path
        )
    if obj["v"] != version:
        raise CacheCorruption(
            "entry %s has envelope version %r (expected %r)"
            % (path, obj["v"], version),
            path=path,
        )
    payload = obj["data"]
    if payload_sha(payload) != obj["sha"]:
        raise CacheCorruption(
            "entry %s failed payload digest verification" % (path,),
            path=path,
        )
    return payload


def read_envelope_text(text, version, path=None):
    """Parse *text* as JSON and unwrap its envelope.

    :raises CacheCorruption: unparseable JSON (truncated write) or any
        :func:`unwrap_envelope` failure.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise CacheCorruption(
            "unreadable entry %s: %s" % (path, exc), path=path
        )
    return unwrap_envelope(obj, version, path=path)

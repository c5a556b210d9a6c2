"""Runtime invariant sanitizer and divergence auto-bisect.

``REPRO_CHECK={off,cheap,full}`` selects the audit level (see
:mod:`repro.sanitize.checks`); violations raise the structured
:class:`SanitizerError`; :func:`sentinel_run` replays from the nearest
checkpoint with per-cycle full checks to name the first bad cycle.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CHEAP_INTERVAL",
    "DivergenceReport",
    "ENV_CHECK",
    "FULL_INTERVAL",
    "MODES",
    "Sanitizer",
    "SanitizerError",
    "bisect_first_bad_cycle",
    "mode_from_env",
    "sentinel_run",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "bisect": ("DivergenceReport", "bisect_first_bad_cycle", "sentinel_run"),
    "checks": (
        "CHEAP_INTERVAL",
        "ENV_CHECK",
        "FULL_INTERVAL",
        "MODES",
        "Sanitizer",
        "mode_from_env",
    ),
    "errors": ("SanitizerError",),
})

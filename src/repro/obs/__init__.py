"""Observability layer: stats registry, event tracing, profiling.

Three independent pieces, all zero-cost when unused:

* :class:`StatsRegistry` -- gem5-style named :class:`Counter` /
  :class:`Histogram` / :class:`Ratio` statistics under hierarchical
  dotted names, with live *adoption* of the existing slotted counter
  objects so hot loops keep bumping plain ints;
* :class:`Tracer` -- buffered structured JSONL event tracing with
  per-category enable and deterministic sampling
  (``REPRO_TRACE=bfetch,cache:0.01``), flushed atomically;
* :class:`Profiler` -- opt-in wall-clock phase sections with item
  rates, feeding batch reports.

CLI entry points: ``python -m repro stats`` and ``python -m repro
trace`` (see :mod:`repro.cli`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "AdoptedStat",
    "CATEGORIES",
    "Channel",
    "Counter",
    "DEFAULT_TRACE_FILE",
    "FuncStat",
    "Histogram",
    "PhaseRecord",
    "Profiler",
    "Ratio",
    "Stat",
    "StatsRegistry",
    "TraceConfigError",
    "Tracer",
    "atomic_write_text",
    "parse_trace_spec",
    "validate_event",
    "validate_jsonl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "io": ("atomic_write_text",),
    "profile": ("PhaseRecord", "Profiler"),
    "registry": (
        "AdoptedStat",
        "Counter",
        "FuncStat",
        "Histogram",
        "Ratio",
        "Stat",
        "StatsRegistry",
    ),
    "trace": (
        "CATEGORIES",
        "DEFAULT_TRACE_FILE",
        "Channel",
        "TraceConfigError",
        "Tracer",
        "parse_trace_spec",
        "validate_event",
        "validate_jsonl",
    ),
})

"""CPU models: functional interpreter and the cycle-stepped O3 timing core."""

from repro._lazy import lazy_exports

__all__ = [
    "Machine",
    "HaltError",
    "OutOfOrderCore",
    "CoreConfig",
    "TraceReplay",
    "capture_trace",
    "save_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "functional": ("HaltError", "Machine"),
    "ooo": ("CoreConfig", "OutOfOrderCore"),
    "trace": ("TraceReplay", "capture_trace", "save_trace"),
})

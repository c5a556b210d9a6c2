"""Top-level system configuration and the prefetcher factory.

:class:`SystemConfig` holds the knobs of the simulated machine that runs
vary; the defaults reproduce the paper's Table II baseline.  Each
sensitivity sweep in the evaluation overrides exactly one field (pipeline
width for Fig. 14, ``bp_scale`` for Fig. 13, the B-Fetch confidence
threshold for Fig. 12, B-Fetch storage for Fig. 15).  Every other Table
I/II value is a constant of the module that simulates it (DESIGN.md §4).
"""

from operator import attrgetter
from types import SimpleNamespace

from repro._validate import require_ints
from repro.branch.tournament import TournamentPredictor
from repro.core.config import BFetchConfig
from repro.cpu.ooo import ROB_ENTRIES, CoreConfig
from repro.frontend.config import FRONTEND_MODES, IPREFETCHER_NAMES
from repro.memory.hierarchy import (
    L1_LATENCY,
    L2_ASSOC,
    L2_LATENCY,
    L2_SIZE,
    LLC_LATENCY,
    HierarchyConfig,
)
from repro.prefetchers.base import Prefetcher

PREFETCHER_NAMES = (
    "none", "nextn", "stride", "sms", "perfect", "tango", "bfetch",
    "isb", "stems",
)

PREDICTOR_NAMES = ("tournament", "perceptron")

# what the factories below and the front end import on first use, so a
# run compiles only the models it selects
ON_DEMAND_MODULES = (
    "repro.branch.perceptron",
    "repro.core.bfetch",
    "repro.frontend.frontend",
    "repro.frontend.ftq",
    "repro.frontend.iprefetch",
    "repro.frontend.predecode",
    "repro.memory.replacement",
    "repro.prefetchers.isb",
    "repro.prefetchers.nextn",
    "repro.prefetchers.perfect",
    "repro.prefetchers.sms",
    "repro.prefetchers.stems",
    "repro.prefetchers.stride",
    "repro.prefetchers.tango",
)

# sub-config fields the fixed part of SystemConfig.key() carries
_FIXED_KEY_FIELDS = frozenset((
    "hierarchy.llc_size_per_core", "hierarchy.llc_policy",
    "hierarchy.mshr_entries",
    "bfetch.brtc_entries", "bfetch.mht_entries",
    "bfetch.path_confidence_threshold", "bfetch.use_filter",
    "bfetch.loop_prefetch", "bfetch.pattern_prefetch",
    "bfetch.arf_delay", "bfetch.instruction_prefetch",
))
_DEFAULTS = {
    "hierarchy": HierarchyConfig(),
    "bfetch": BFetchConfig(),
}
# every other sub-config field, read in one call, and its defaults: such
# a field enters the key only when it leaves its default
_OPTIONAL_KEY_FIELDS = tuple(
    name + "." + field
    for name, config in _DEFAULTS.items()
    for field in sorted(vars(config))
    if name + "." + field not in _FIXED_KEY_FIELDS
)
_optional_key_values = attrgetter(*_OPTIONAL_KEY_FIELDS)
_OPTIONAL_KEY_DEFAULTS = _optional_key_values(SimpleNamespace(**_DEFAULTS))


class SystemConfig:
    """Whole-system parameters (paper Table II defaults).

    :param width: pipeline width (fetch/issue/retire, Fig. 14).
    :param bp_scale: tournament-predictor size multiplier (Fig. 13).
    :param prefetcher: one of :data:`PREFETCHER_NAMES`.
    :param hierarchy: :class:`~repro.memory.HierarchyConfig`; its line
        size is the core's fetch-block size and every prefetcher's block.
    :param bfetch: :class:`~repro.core.BFetchConfig`.
    :param branch_predictor: one of :data:`PREDICTOR_NAMES`.
    :param frontend: ``"off"`` or ``"ftq"`` (the decoupled front end).
    :param iprefetcher: the I-side prefetcher; needs ``frontend="ftq"``.
    """

    def __init__(
        self,
        width=4,
        bp_scale=1.0,
        prefetcher="none",
        hierarchy=None,
        bfetch=None,
        branch_predictor="tournament",
        frontend="off",
        iprefetcher="none",
    ):
        if branch_predictor not in PREDICTOR_NAMES:
            raise ValueError(
                "unknown branch predictor %r (choose from %s)"
                % (branch_predictor, ", ".join(PREDICTOR_NAMES))
            )
        if prefetcher not in PREFETCHER_NAMES:
            raise ValueError(
                "unknown prefetcher %r (choose from %s)"
                % (prefetcher, ", ".join(PREFETCHER_NAMES))
            )
        if frontend not in FRONTEND_MODES:
            raise ValueError(
                "unknown frontend mode %r (choose from %s)"
                % (frontend, ", ".join(FRONTEND_MODES))
            )
        if iprefetcher not in IPREFETCHER_NAMES:
            raise ValueError(
                "unknown iprefetcher %r (choose from %s)"
                % (iprefetcher, ", ".join(IPREFETCHER_NAMES))
            )
        if iprefetcher != "none" and frontend == "off":
            raise ValueError(
                "iprefetcher %r needs the decoupled front end; pass "
                "frontend=\"ftq\"" % (iprefetcher,)
            )
        # fail fast on nonsensical sizes instead of letting a zero-wide
        # pipeline corrupt a run far downstream
        require_ints("SystemConfig", (("width", width),))
        if not bp_scale > 0:
            raise ValueError(
                "bp_scale must be positive, got %r" % (bp_scale,)
            )
        self.width = width
        self.bp_scale = bp_scale
        self.prefetcher = prefetcher
        self.hierarchy = hierarchy or HierarchyConfig()
        # the core fetches in the hierarchy's lines
        self.core = CoreConfig(
            width=width,
            block_bytes=self.hierarchy.block_bytes,
            frontend=frontend,
        )
        self.frontend = frontend
        self.iprefetcher = iprefetcher
        self.bfetch = bfetch or BFetchConfig()
        self.branch_predictor = branch_predictor

    def make_predictor(self):
        """Build the configured direction predictor."""
        if self.branch_predictor == "perceptron":
            from repro.branch.perceptron import PerceptronPredictor
            entries = max(16, int(512 * self.bp_scale))
            entries = 1 << (entries.bit_length() - 1)
            return PerceptronPredictor(entries=entries)
        return TournamentPredictor(self.bp_scale)

    def key(self):
        """Stable identity tuple for result caching.

        Front-end fields are appended only when the decoupled front end
        is enabled, and every other sub-config field only when it leaves
        its default, so a default config keeps the key it had before
        those fields were keyed and cached results stay addressable.
        """
        key = self._base_key()
        if self.frontend != "off":
            # the I-MSHR count, then the FTQ entries, fill width, FDIP
            # degree and distance, next-line degree, I-side drain rate
            # and queue capacity (see _base_key's literals)
            key += (self.frontend, self.iprefetcher,
                    4, 32, 2, 4, 1, 2, 2, 32)
        values = _optional_key_values(self)
        if values != _OPTIONAL_KEY_DEFAULTS:
            for field, value, default in zip(_OPTIONAL_KEY_FIELDS, values,
                                             _OPTIONAL_KEY_DEFAULTS):
                if value != default:
                    key += (field, value)
        return key

    def _base_key(self):
        bf = self.bfetch
        # a literal holds the slot of a field that became a constant, so
        # every existing cache key stays valid; a change to such a
        # constant changes results, so its literal must change with it
        return (
            self.width,
            192,    # ROB entries
            self.bp_scale,
            self.branch_predictor,
            self.prefetcher,
            self.hierarchy.llc_size_per_core,
            self.hierarchy.llc_policy,
            self.hierarchy.mshr_entries,
            8,      # stride degree
            4,      # next-n degree
            2048,   # SMS region bytes
            bf.brtc_entries,
            bf.mht_entries,
            bf.path_confidence_threshold,
            bf.use_filter,
            bf.loop_prefetch,
            bf.pattern_prefetch,
            # a removed ARF-mode knob that selected nothing
            "execute",
            bf.arf_delay,
            3,      # per-load filter threshold
            bf.instruction_prefetch,
        )

    def describe(self):
        """Table II-style description rows."""
        from repro.core.perload_filter import FILTER_THRESHOLD
        hier = self.hierarchy
        return [
            ("CPU", "%d-wide O3 processor, %d-entry ROB"
             % (self.width, ROB_ENTRIES)),
            ("L1I & L1D cache", "%dKB %d-way, %d-cycle latency"
             % (hier.l1d_size // 1024, hier.l1d_assoc, L1_LATENCY)),
            ("L2 cache", "Unified %dKB %d-way, %d-cycle latency"
             % (L2_SIZE // 1024, L2_ASSOC, L2_LATENCY)),
            ("Shared L3 cache", "%dMB/core %d-way, %d-cycle latency"
             % (hier.llc_size_per_core // (1024 * 1024), hier.llc_assoc,
                LLC_LATENCY)),
            ("Off-chip DRAM", "%d-cycle latency" % hier.dram_latency),
            ("Branch predictor", "Tournament predictor (scale %.2fx)"
             % self.bp_scale),
            ("Branch path confidence threshold",
             "%.2f" % self.bfetch.path_confidence_threshold),
            ("Per-load filter threshold", str(FILTER_THRESHOLD)),
        ]


def make_prefetcher(config):
    """Instantiate the prefetcher selected by *config*.

    Every prefetcher's block geometry (issue-side dedup, sequential
    stepping, delta learning, SMS regions) is derived from the
    hierarchy's L1 line size rather than an assumed 64 bytes, so
    non-default ``HierarchyConfig.block_bytes`` values stay consistent
    end to end.
    Each prefetcher's module is imported here, for the name asked.
    """
    name = config.prefetcher
    block_bytes = config.hierarchy.block_bytes
    if name == "none":
        return Prefetcher(block_bytes=block_bytes)
    if name == "nextn":
        from repro.prefetchers.nextn import NextNPrefetcher
        return NextNPrefetcher(block_bytes=block_bytes)
    if name == "stride":
        from repro.prefetchers.stride import StridePrefetcher
        return StridePrefetcher(block_bytes=block_bytes)
    if name == "sms":
        from repro.prefetchers.sms import SMSPrefetcher
        return SMSPrefetcher(block_bytes=block_bytes)
    if name == "perfect":
        from repro.prefetchers.perfect import PerfectPrefetcher
        return PerfectPrefetcher(block_bytes=block_bytes)
    if name == "tango":
        from repro.prefetchers.tango import TangoPrefetcher
        return TangoPrefetcher(block_bytes=block_bytes)
    if name == "bfetch":
        from repro.core.bfetch import BFetchPrefetcher
        return BFetchPrefetcher(config.bfetch, block_bytes=block_bytes)
    if name == "isb":
        from repro.prefetchers.isb import ISBPrefetcher
        return ISBPrefetcher(block_bytes=block_bytes)
    if name == "stems":
        from repro.prefetchers.stems import STeMSPrefetcher
        return STeMSPrefetcher(block_bytes=block_bytes)
    raise ValueError("unknown prefetcher %r" % name)


def make_iprefetcher_for(config):
    """Instantiate the I-side prefetcher selected by *config* (the
    front-end assembly path; geometry follows the L1 line size)."""
    from repro.frontend.iprefetch import make_iprefetcher
    return make_iprefetcher(
        config.iprefetcher,
        block_bytes=config.hierarchy.block_bytes,
        bfetch_config=config.bfetch,
    )


def import_on_demand_modules():
    """Import every module in :data:`ON_DEMAND_MODULES`.

    A long-lived server calls this before it reports ready, so that no
    request pays for compiling the model it names.
    """
    for name in ON_DEMAND_MODULES:
        __import__(name)

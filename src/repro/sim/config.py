"""Top-level system configuration and the prefetcher factory.

:class:`SystemConfig` aggregates every knob of the simulated machine; the
defaults reproduce the paper's Table II baseline.  Each sensitivity sweep
in the evaluation overrides exactly one field (pipeline width for Fig. 14,
``bp_scale`` for Fig. 13, the B-Fetch confidence threshold for Fig. 12,
B-Fetch storage for Fig. 15).
"""

from operator import attrgetter
from types import SimpleNamespace

from repro._validate import require_ints
from repro.branch.tournament import TournamentConfig, TournamentPredictor
from repro.core.config import BFetchConfig
from repro.cpu.ooo import CoreConfig
from repro.frontend.config import (
    FRONTEND_MODES,
    IPREFETCHER_NAMES,
    FrontendConfig,
)
from repro.memory.hierarchy import HierarchyConfig
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.sms import SMSConfig, SMSPrefetcher

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
    "repro.prefetchers.stems",
    "repro.prefetchers.stride",
    "repro.prefetchers.tango",
)

# sub-config fields the fixed part of SystemConfig.key() carries (the
# I-MSHR count with the front end on; without it the count is unused),
# fields an implicit core takes from SystemConfig (compared in key()),
# and fields derived from others
_FIXED_KEY_FIELDS = frozenset((
    "hierarchy.llc_size_per_core", "hierarchy.llc_policy",
    "hierarchy.mshr_entries", "hierarchy.imshr_entries",
    "bfetch.brtc_entries", "bfetch.mht_entries",
    "bfetch.path_confidence_threshold", "bfetch.use_filter",
    "bfetch.loop_prefetch", "bfetch.pattern_prefetch",
    "bfetch.arf_delay", "bfetch.filter_threshold",
    "bfetch.instruction_prefetch",
    "sms.region_bytes", "sms.blocks_per_region",
    "core.width", "core.rob_entries", "core.block_bytes",
    "core.block_shift", "core.frontend",
))
_DEFAULTS = {
    "hierarchy": HierarchyConfig(),
    "core": CoreConfig(),
    "bfetch": BFetchConfig(),
    "sms": SMSConfig(),
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

    :param width: pipeline width (fetch/issue/retire).
    :param bp_scale: tournament-predictor size multiplier (Fig. 13).
    :param prefetcher: one of :data:`PREFETCHER_NAMES`.
    """

    def __init__(
        self,
        width=4,
        rob_entries=192,
        bp_scale=1.0,
        prefetcher="none",
        core=None,
        hierarchy=None,
        bfetch=None,
        sms=None,
        stride_degree=8,
        nextn_degree=4,
        branch_predictor="tournament",
        frontend="off",
        iprefetcher="none",
        frontend_cfg=None,
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
        # pipeline or a negative degree corrupt a run far downstream
        require_ints("SystemConfig", (("width", width),
                                      ("rob_entries", rob_entries),
                                      ("stride_degree", stride_degree),
                                      ("nextn_degree", nextn_degree)))
        if not bp_scale > 0:
            raise ValueError(
                "bp_scale must be positive, got %r" % (bp_scale,)
            )
        self.width = width
        self.rob_entries = rob_entries
        self.bp_scale = bp_scale
        self.prefetcher = prefetcher
        self.hierarchy = hierarchy or HierarchyConfig()
        # the core's fetch-block geometry follows the L1 line size unless
        # an explicit CoreConfig overrides it
        self.core = core or CoreConfig(
            width=width,
            rob_entries=rob_entries,
            block_bytes=self.hierarchy.block_bytes,
            frontend=frontend,
        )
        if self.core.frontend != frontend:
            raise ValueError(
                "explicit CoreConfig.frontend=%r disagrees with "
                "SystemConfig.frontend=%r" % (self.core.frontend, frontend)
            )
        self.frontend = frontend
        self.iprefetcher = iprefetcher
        self.frontend_cfg = frontend_cfg or FrontendConfig()
        self.bfetch = bfetch or BFetchConfig()
        self.sms = sms or SMSConfig()
        self.stride_degree = stride_degree
        self.nextn_degree = nextn_degree
        self.branch_predictor = branch_predictor

    def tournament_config(self):
        return TournamentConfig(scale=self.bp_scale)

    def make_predictor(self):
        """Build the configured direction predictor."""
        if self.branch_predictor == "perceptron":
            from repro.branch.perceptron import PerceptronPredictor
            entries = max(16, int(512 * self.bp_scale))
            entries = 1 << (entries.bit_length() - 1)
            return PerceptronPredictor(entries=entries)
        return TournamentPredictor(self.tournament_config())

    def key(self):
        """Stable identity tuple for result caching.

        Front-end fields are appended only when the decoupled front end
        is enabled, and every other sub-config field only when it leaves
        its default, so a default config keeps the key it had before
        those fields were keyed and cached results stay addressable.
        """
        key = self._base_key()
        if self.frontend != "off":
            key += (
                self.frontend,
                self.iprefetcher,
                self.hierarchy.imshr_entries,
            ) + self.frontend_cfg.key()
        values = _optional_key_values(self)
        if values != _OPTIONAL_KEY_DEFAULTS:
            for field, value, default in zip(_OPTIONAL_KEY_FIELDS, values,
                                             _OPTIONAL_KEY_DEFAULTS):
                if value != default:
                    key += (field, value)
        # an explicit core may disagree with what an implicit one takes
        # from width, rob_entries and the line size
        core = self.core
        if core.width != self.width:
            key += ("core.width", core.width)
        if core.rob_entries != self.rob_entries:
            key += ("core.rob_entries", core.rob_entries)
        if core.block_bytes != self.hierarchy.block_bytes:
            key += ("core.block_bytes", core.block_bytes)
        return key

    def _base_key(self):
        bf = self.bfetch
        return (
            self.width,
            self.rob_entries,
            self.bp_scale,
            self.branch_predictor,
            self.prefetcher,
            self.hierarchy.llc_size_per_core,
            self.hierarchy.llc_policy,
            self.hierarchy.mshr_entries,
            self.stride_degree,
            self.nextn_degree,
            self.sms.region_bytes,
            bf.brtc_entries,
            bf.mht_entries,
            bf.path_confidence_threshold,
            bf.use_filter,
            bf.loop_prefetch,
            bf.pattern_prefetch,
            # the slot of a removed ARF-mode knob that selected nothing,
            # kept so every existing cache key stays valid
            "execute",
            bf.arf_delay,
            bf.filter_threshold,
            bf.instruction_prefetch,
        )

    def describe(self):
        """Table II-style description rows."""
        hier = self.hierarchy
        return [
            ("CPU", "%d-wide O3 processor, %d-entry ROB"
             % (self.width, self.rob_entries)),
            ("L1I & L1D cache", "%dKB %d-way, %d-cycle latency"
             % (hier.l1d_size // 1024, hier.l1d_assoc, hier.l1_latency)),
            ("L2 cache", "Unified %dKB %d-way, %d-cycle latency"
             % (hier.l2_size // 1024, hier.l2_assoc, hier.l2_latency)),
            ("Shared L3 cache", "%dMB/core %d-way, %d-cycle latency"
             % (hier.llc_size_per_core // (1024 * 1024), hier.llc_assoc,
                hier.llc_latency)),
            ("Off-chip DRAM", "%d-cycle latency" % hier.dram_latency),
            ("Branch predictor", "Tournament predictor (scale %.2fx)"
             % self.bp_scale),
            ("Branch path confidence threshold",
             "%.2f" % self.bfetch.path_confidence_threshold),
            ("Per-load filter threshold", str(self.bfetch.filter_threshold)),
        ]


def make_prefetcher(config):
    """Instantiate the prefetcher selected by *config*.

    Every prefetcher's block geometry (issue-side dedup, sequential
    stepping, delta learning) is derived from the hierarchy's L1 line
    size rather than an assumed 64 bytes, so non-default
    ``HierarchyConfig.block_bytes`` values stay consistent end to end.
    Each prefetcher's module is imported here, for the name asked.
    """
    name = config.prefetcher
    block_bytes = config.hierarchy.block_bytes
    if name == "none":
        return Prefetcher(block_bytes=block_bytes)
    if name == "nextn":
        from repro.prefetchers.nextn import NextNPrefetcher
        return NextNPrefetcher(n=config.nextn_degree,
                               block_bytes=block_bytes)
    if name == "stride":
        from repro.prefetchers.stride import StridePrefetcher
        return StridePrefetcher(degree=config.stride_degree,
                                block_bytes=block_bytes)
    if name == "sms":
        return SMSPrefetcher(config.sms)
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
        return STeMSPrefetcher(config.sms)
    raise ValueError("unknown prefetcher %r" % name)


def make_iprefetcher_for(config):
    """Instantiate the I-side prefetcher selected by *config* (the
    front-end assembly path; geometry follows the L1 line size)."""
    from repro.frontend.iprefetch import make_iprefetcher
    return make_iprefetcher(
        config.iprefetcher,
        config.frontend_cfg,
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

"""B-Fetch configuration (defaults = the paper's 12.84KB design point)."""

from repro._validate import require_bools, require_fraction, require_ints
from repro.core.perload_filter import FILTER_MAX_COUNT
from repro.memory.prefetch_queue import PREFETCH_QUEUE_ENTRIES

#: basic blocks one lookahead walk may visit (D-side and B-Fetch-I)
MAX_LOOKAHEAD = 16


class BFetchConfig:
    """The B-Fetch knobs the figures and ablations vary.

    Defaults follow Table I / Table II of the paper:

    * 256-entry Branch Trace Cache,
    * 128-entry Memory History Table,
    * path-confidence threshold 0.75,
    * 3-table per-load filter,
    * 100-entry prefetch queue.

    The Fig. 15 storage sweep scales ``brtc_entries``/``mht_entries``
    together (64/128/256/512).  Every other Table I/II value is a
    constant of the module that simulates it (DESIGN.md §4); the line
    size is the hierarchy's.
    """

    def __init__(
        self,
        brtc_entries=256,
        mht_entries=128,
        path_confidence_threshold=0.75,
        use_filter=True,
        loop_prefetch=True,
        pattern_prefetch=True,
        arf_delay=6,
        instruction_prefetch=False,
        filter_initial=2,
        filter_tables=3,
        queue_capacity=PREFETCH_QUEUE_ENTRIES,
    ):
        # fail fast: a zero-entry table silently degenerates the engine,
        # and a flag or counter of the wrong type would build and run
        require_ints("BFetchConfig", (
            ("brtc_entries", brtc_entries),
            ("mht_entries", mht_entries),
            ("filter_tables", filter_tables),
            ("queue_capacity", queue_capacity),
        ))
        require_ints("BFetchConfig", (("arf_delay", arf_delay),), minimum=0)
        # the filter's counters are 3-bit
        require_ints("BFetchConfig", (("filter_initial", filter_initial),),
                     minimum=0, maximum=FILTER_MAX_COUNT)
        require_bools("BFetchConfig", (
            ("use_filter", use_filter),
            ("loop_prefetch", loop_prefetch),
            ("pattern_prefetch", pattern_prefetch),
            ("instruction_prefetch", instruction_prefetch),
        ))
        require_fraction("BFetchConfig", "path_confidence_threshold",
                         path_confidence_threshold)
        self.brtc_entries = brtc_entries
        self.mht_entries = mht_entries
        self.path_confidence_threshold = path_confidence_threshold
        self.use_filter = use_filter
        self.loop_prefetch = loop_prefetch
        self.pattern_prefetch = pattern_prefetch
        self.arf_delay = arf_delay
        # B-Fetch-I (paper future work): also prefetch the instruction
        # blocks of predicted basic blocks into the L1I
        self.instruction_prefetch = instruction_prefetch
        self.filter_initial = filter_initial
        self.filter_tables = filter_tables
        self.queue_capacity = queue_capacity

    @classmethod
    def sized(cls, entries, **kwargs):
        """The Fig. 15 storage points: BrTC and MHT scaled together.

        ``entries`` is the BrTC entry count (64/128/256/512); the MHT gets
        half of it, matching the paper's 2:1 default ratio.
        """
        return cls(brtc_entries=entries, mht_entries=entries // 2, **kwargs)

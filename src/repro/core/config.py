"""B-Fetch configuration (defaults = the paper's 12.84KB design point)."""

from repro._validate import require_ints


class BFetchConfig:
    """All sizing and threshold knobs for the B-Fetch engine.

    Defaults follow Table I / Table II of the paper:

    * 256-entry Branch Trace Cache,
    * 128-entry Memory History Table with 3 register-history slots,
    * 32-entry Alternate Register File,
    * 3 x 2048-entry, 3-bit per-load filter with threshold 3,
    * path-confidence threshold 0.75,
    * 100-entry prefetch queue.

    The Fig. 15 storage sweep scales ``brtc_entries``/``mht_entries``
    together (64/128/256/512).
    """

    def __init__(
        self,
        brtc_entries=256,
        mht_entries=128,
        mht_reg_slots=3,
        offset_bits=16,
        loopdelta_bits=16,
        pattern_bits=5,
        path_confidence_threshold=0.75,
        max_lookahead=16,
        filter_tables=3,
        filter_entries=2048,
        filter_counter_bits=3,
        filter_threshold=3,
        filter_initial=2,
        queue_capacity=100,
        arf_delay=6,
        loop_prefetch=True,
        pattern_prefetch=True,
        use_filter=True,
        instruction_prefetch=False,
        max_instr_blocks=8,
        block_bytes=64,
    ):
        # fail fast on non-positive sizing knobs: a zero-entry table or
        # a non-positive lookahead depth silently degenerates the engine
        require_ints("BFetchConfig", (
            ("brtc_entries", brtc_entries),
            ("mht_entries", mht_entries),
            ("mht_reg_slots", mht_reg_slots),
            ("max_lookahead", max_lookahead),
            ("filter_tables", filter_tables),
            ("filter_entries", filter_entries),
            ("filter_counter_bits", filter_counter_bits),
            ("queue_capacity", queue_capacity),
            ("max_instr_blocks", max_instr_blocks),
            ("block_bytes", block_bytes),
        ))
        if not 0.0 <= path_confidence_threshold <= 1.0:
            raise ValueError(
                "path_confidence_threshold must be in [0, 1], got %r"
                % (path_confidence_threshold,)
            )
        if arf_delay < 0:
            raise ValueError(
                "arf_delay must be >= 0 cycles, got %r" % (arf_delay,)
            )
        self.brtc_entries = brtc_entries
        self.mht_entries = mht_entries
        self.mht_reg_slots = mht_reg_slots
        self.offset_bits = offset_bits
        self.loopdelta_bits = loopdelta_bits
        self.pattern_bits = pattern_bits
        self.path_confidence_threshold = path_confidence_threshold
        self.max_lookahead = max_lookahead
        self.filter_tables = filter_tables
        self.filter_entries = filter_entries
        self.filter_counter_bits = filter_counter_bits
        self.filter_threshold = filter_threshold
        self.filter_initial = filter_initial
        self.queue_capacity = queue_capacity
        self.arf_delay = arf_delay
        self.loop_prefetch = loop_prefetch
        self.pattern_prefetch = pattern_prefetch
        self.use_filter = use_filter
        # B-Fetch-I (paper future work): also prefetch the instruction
        # blocks of predicted basic blocks into the L1I
        self.instruction_prefetch = instruction_prefetch
        self.max_instr_blocks = max_instr_blocks
        self.block_bytes = block_bytes

    @property
    def offset_limit(self):
        """Largest representable |offset| (signed field)."""
        return (1 << (self.offset_bits - 1)) - 1

    @property
    def loopdelta_limit(self):
        return (1 << (self.loopdelta_bits - 1)) - 1

    @classmethod
    def sized(cls, entries, **kwargs):
        """The Fig. 15 storage points: BrTC and MHT scaled together.

        ``entries`` is the BrTC entry count (64/128/256/512); the MHT gets
        half of it, matching the paper's 2:1 default ratio.
        """
        return cls(brtc_entries=entries, mht_entries=entries // 2, **kwargs)

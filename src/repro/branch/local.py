"""Two-level local-history direction predictor (Yeh/Patt, 21264-style)."""


class LocalPredictor:
    """Per-branch history table feeding a pattern table of 3-bit counters.

    :param history_entries: number of per-branch history registers.
    :param history_bits: length of each local history.
    :param counter_bits: pattern-table counter width (3 in the 21264).
    """

    name = "local"
    STATE = ("histories", "counters")

    def __init__(self, history_entries=1024, history_bits=10, counter_bits=3):
        if history_entries & (history_entries - 1):
            raise ValueError("history_entries must be a power of two")
        self.history_entries = history_entries
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.threshold = 1 << (counter_bits - 1)
        self.histories = [0] * history_entries
        self.pattern_entries = 1 << history_bits
        self.counters = [self.threshold] * self.pattern_entries
        self._hmask = history_entries - 1
        self._pmask = self.pattern_entries - 1

    def predict(self, pc, history=None):
        """Predict from the branch's local history (*history* is ignored;
        local prediction does not consume the global register)."""
        local = self.histories[(pc >> 2) & self._hmask]
        return self.counters[local & self._pmask] >= self.threshold

    def update(self, pc, taken):
        """Train the pattern counter and shift the branch's local history."""
        hindex = (pc >> 2) & self._hmask
        local = self.histories[hindex]
        pindex = local & self._pmask
        count = self.counters[pindex]
        if taken:
            if count < self.max_count:
                self.counters[pindex] = count + 1
        elif count > 0:
            self.counters[pindex] = count - 1
        self.histories[hindex] = ((local << 1) | (1 if taken else 0)) & self._pmask

    def storage_bits(self):
        return (
            self.history_entries * self.history_bits
            + self.pattern_entries * self.counter_bits
        )

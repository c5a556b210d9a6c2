"""Gshare global-history direction predictor (McFarling)."""


class GsharePredictor:
    """2-bit counters indexed by ``PC xor global_history``.

    The global history register is owned by the caller-facing ``update``;
    ``predict`` takes an explicit *history* so B-Fetch's lookahead can probe
    the predictor with a *speculative* history without disturbing state.

    :param entries: counter table size (power of two).
    :param history_bits: global history length.
    """

    name = "gshare"

    def __init__(self, entries=4096, history_bits=12, counter_bits=2):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.threshold = 1 << (counter_bits - 1)
        self.table = [self.threshold] * entries
        self._mask = entries - 1
        self._hist_mask = (1 << history_bits) - 1
        self.history = 0

    def _index(self, pc, history):
        return ((pc >> 2) ^ history) & self._mask

    def predict(self, pc, history=None):
        """Predict using *history* (defaults to the live history register)."""
        if history is None:
            history = self.history
        return self.table[self._index(pc, history)] >= self.threshold

    def update(self, pc, taken):
        """Train the indexed counter and shift the live global history."""
        index = self._index(pc, self.history)
        count = self.table[index]
        if taken:
            if count < self.max_count:
                self.table[index] = count + 1
        elif count > 0:
            self.table[index] = count - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask

    def snapshot(self):
        """Counter table and live history as a JSON-safe structure."""
        return {"table": list(self.table), "history": self.history}

    def restore(self, state):
        """Restore predictor state from :meth:`snapshot` output."""
        self.table[:] = state["table"]
        self.history = state["history"]

    def storage_bits(self):
        return self.entries * self.counter_bits + self.history_bits

"""Spatio-Temporal Memory Streaming (Somogyi et al., ISCA 2009) -- simplified.

The paper's second heavy-weight reference: STeMS extends SMS with the
*temporal* ordering of spatial-region generations, reconstructing the
expected miss sequence across regions and streaming several regions
ahead of the trigger.

Mechanism kept: an SMS-style spatial pattern store plus a temporal log
of trigger events; when a trigger re-occurs at a logged position, the
next ``stream_ahead`` logged generations (regions + their patterns) are
replayed in order.  Like the original's multi-megabyte off-chip
metadata, the temporal log grows with the footprint and its size is
surfaced by :meth:`storage_bits` rather than capped.
"""

from repro.prefetchers.sms import SMSPrefetcher


class STeMSPrefetcher(SMSPrefetcher):
    """SMS + temporal streaming of whole spatial generations."""

    name = "stems"

    def __init__(self, block_bytes=64, stream_ahead=4, queue_capacity=100):
        super().__init__(block_bytes, queue_capacity)
        self.stream_ahead = stream_ahead
        self.temporal_log = []      # ordered (region, trigger key) events
        self._log_position = {}     # trigger key -> last log index
        self._replay_limit = 4096   # guard against degenerate loops

    def _train(self, pc, addr, hit, now):
        region_before = addr >> self._region_shift
        was_tracked = region_before in self.agt
        super()._train(pc, addr, hit, now)
        if hit or was_tracked:
            return
        # a new generation started: log it temporally and replay forward
        offset = (addr >> self._block_shift) & self._offset_mask
        key = self._trigger_key(pc, offset)
        position = self._log_position.get(key)
        self.temporal_log.append((region_before, key))
        self._log_position[key] = len(self.temporal_log) - 1
        if position is None:
            return
        for event_index in range(position + 1,
                                 min(position + 1 + self.stream_ahead,
                                     len(self.temporal_log) - 1)):
            region, event_key = self.temporal_log[event_index]
            slot, tag = self._pht_slot(event_key)
            stored = self.pht.get(slot)
            if stored is None or stored[0] != tag:
                continue
            base = region << self._region_shift
            pattern = stored[1]
            while pattern:
                low = pattern & -pattern
                self.push(base + (low.bit_length() - 1) * self.block_bytes,
                          pc & 0x3FF)
                pattern ^= low

    def snapshot(self):
        """SMS state plus the temporal log and its position index."""
        state = super().snapshot()
        state["temporal_log"] = [[region, key]
                                 for region, key in self.temporal_log]
        state["log_position"] = [[key, index]
                                 for key, index in self._log_position.items()]
        return state

    def restore(self, state):
        """Restore prefetcher state from :meth:`snapshot` output."""
        super().restore(state)
        self.temporal_log = [(int(region), int(key))
                             for region, key in state["temporal_log"]]
        self._log_position = {int(key): index
                              for key, index in state["log_position"]}

    def storage_bits(self):
        """On-chip SMS state plus the grown temporal metadata (~60 bits
        per logged event, off-chip in the original)."""
        return super().storage_bits() + len(self.temporal_log) * 60

"""Fixed-latency, bandwidth-capped DRAM model.

Table II gives a 200-cycle off-chip latency and a 12.8 GB/s memory
controller (one x64 DDR3 channel).  The 200-cycle (~100ns) latency
implies a ~2GHz core clock, at which 12.8 GB/s is 6.4 bytes/cycle --
one 64-byte line every ~10 cycles -- modelled here as a single channel
whose transfers serialise.  Demand misses and
prefetches share the channel, so aggressive useless prefetching delays
demand traffic exactly as the paper's "friendly fire" discussion expects.
"""


class DramModel:
    """Single-channel DRAM with a serialising transfer slot.

    The controller gives demand misses priority over prefetch traffic: a
    demand transfer waits for older *demand* transfers plus at most one
    transfer slot of prefetch backlog (the transfer already on the wires),
    while prefetch transfers queue behind everything.  This is what keeps
    a prefetcher from starving the core it is meant to help.

    :param latency: access latency in cycles (row + device + bus).
    :param cycles_per_transfer: channel occupancy of one 64B line.
    """

    STATE = ("next_free", "next_free_demand", "accesses",
             "prefetch_accesses", "busy_cycles")

    def __init__(self, latency=200, cycles_per_transfer=5):
        self.latency = latency
        self.cycles_per_transfer = cycles_per_transfer
        self.next_free = 0         # full channel backlog (all traffic)
        self.next_free_demand = 0  # backlog of demand traffic only
        self.accesses = 0
        self.prefetch_accesses = 0
        self.busy_cycles = 0

    def access(self, now, demand=True):
        """Issue one line transfer at cycle *now*; return its total latency."""
        transfer = self.cycles_per_transfer
        if demand:
            start = max(now, self.next_free_demand,
                        min(self.next_free, now + transfer))
            self.next_free_demand = start + transfer
        else:
            start = max(now, self.next_free)
            self.prefetch_accesses += 1
        if start + transfer > self.next_free:
            self.next_free = start + transfer
        self.accesses += 1
        self.busy_cycles += transfer
        return (start - now) + self.latency

    def reset(self):
        self.next_free = 0
        self.next_free_demand = 0
        self.accesses = 0
        self.prefetch_accesses = 0
        self.busy_cycles = 0

"""Per-PC stride prefetcher (Chen & Baer reference prediction table).

Each load PC owns an RPT entry holding its last address, last stride and a
2-bit state machine (initial -> transient -> steady).  When a load re-hits
its learned stride in the *steady* state, the prefetcher runs ahead of it.
The paper found degree 8 ("prefetching the next 8 strided addresses") to
perform best, so that is the default.

Training and issue both happen on *misses*, per the paper's description
("it attempts to identify simple stride reference patterns in programs
based upon the past behavior of missing loads ... when a given load
misses, cache lines ahead of that miss are fetched in the pattern
following the previous behavior").  Miss-to-miss training gives the
stop-start coverage -- and the modest overall gains -- the paper reports
for this prefetcher.
"""

from repro.prefetchers.base import Prefetcher

_INITIAL, _TRANSIENT, _STEADY = 0, 1, 2

#: prefetch depth in strides (degree 8 performed best in the paper)
STRIDE_DEGREE = 8


class _Entry:
    __slots__ = ("tag", "last_addr", "stride", "state")

    def __init__(self, tag, last_addr):
        self.tag = tag
        self.last_addr = last_addr
        self.stride = 0
        self.state = _INITIAL


class StridePrefetcher(Prefetcher):
    """Reference prediction table, direct-mapped by load PC.

    :param entries: RPT size (power of two).
    :param degree: prefetch depth in strides (8 per the paper).
    """

    name = "stride"

    def __init__(self, entries=256, degree=STRIDE_DEGREE, block_bytes=64,
                 queue_capacity=100):
        super().__init__(queue_capacity, block_bytes)
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.degree = degree
        self.table = [None] * entries
        self._mask = entries - 1

    def on_load(self, pc, addr, hit, now):
        if hit:
            return
        index = (pc >> 2) & self._mask
        tag = pc >> 2
        entry = self.table[index]
        if entry is None or entry.tag != tag:
            self.table[index] = _Entry(tag, addr)
            return
        stride = addr - entry.last_addr
        if stride == entry.stride and stride != 0:
            entry.state = _STEADY if entry.state != _INITIAL else _TRANSIENT
            if entry.state == _STEADY and not hit:
                for step in range(1, self.degree + 1):
                    self.push(addr + stride * step)
        else:
            # stride broke: re-learn
            entry.stride = stride
            entry.state = _TRANSIENT if entry.state == _STEADY else _INITIAL
        entry.last_addr = addr

    def snapshot(self):
        """Base state plus the reference prediction table."""
        state = super().snapshot()
        state["table"] = [
            None if entry is None
            else [entry.tag, entry.last_addr, entry.stride, entry.state]
            for entry in self.table
        ]
        return state

    def restore(self, state):
        """Restore prefetcher state from :meth:`snapshot` output."""
        super().restore(state)
        table = [None] * self.entries
        for index, fields in enumerate(state["table"]):
            if fields is None:
                continue
            tag, last_addr, stride, entry_state = fields
            entry = _Entry(tag, last_addr)
            entry.stride = stride
            entry.state = entry_state
            table[index] = entry
        self.table = table

    def storage_bits(self):
        # tag(30) + last addr(32) + stride(16) + state(2) per entry
        return self.entries * (30 + 32 + 16 + 2)

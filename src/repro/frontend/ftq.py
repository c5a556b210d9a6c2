"""Fetch target queue.

A bounded FIFO of predicted fetch-block addresses, filled by the BPU
run-ahead walker and consumed by demand fetch.  Each entry also carries
an ``issued`` flag so the FDIP engine can mark blocks it has already
turned into L1-I prefetches without re-scanning its dedup window every
cycle.
"""

from collections import deque
from itertools import islice

from repro._validate import require_ints


class FetchTargetQueue:
    """Bounded FIFO of ``[block_addr, issued]`` entries.

    :param entries: capacity in fetch blocks.
    """

    def __init__(self, entries=32):
        require_ints("FetchTargetQueue", (("entries", entries),))
        self.entries = entries
        self._queue = deque()

    def __len__(self):
        return len(self._queue)

    def full(self):
        return len(self._queue) >= self.entries

    def push(self, block_addr):
        """Enqueue a predicted fetch-block address; False when full."""
        if len(self._queue) >= self.entries:
            return False
        self._queue.append([block_addr, False])
        return True

    def pop(self):
        """Dequeue the oldest predicted block address, or None."""
        if not self._queue:
            return None
        return self._queue.popleft()[0]

    def clear(self):
        self._queue.clear()

    def pending(self, skip, limit):
        """Up to *limit* un-issued entries beyond the first *skip*
        (the FDIP scan window); the returned entries are live -- set
        ``entry[1] = True`` to mark them issued."""
        picked = []
        for entry in islice(self._queue, skip, None):
            if not entry[1]:
                picked.append(entry)
                if len(picked) >= limit:
                    break
        return picked

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Queue contents as a JSON-safe structure (order is behaviour)."""
        return [[addr, bool(issued)] for addr, issued in self._queue]

    def restore(self, state):
        """Refill the existing deque (the front end holds it)."""
        self._queue.clear()
        self._queue.extend([int(addr), bool(issued)]
                           for addr, issued in state)

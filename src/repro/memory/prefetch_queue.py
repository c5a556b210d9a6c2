"""Bounded prefetch request queue.

Table I budgets a 100-entry prefetch queue.  Prefetchers enqueue block
requests; the core drains a limited number per cycle into the hierarchy.
When full, *new* requests are rejected -- as a real request queue does --
which makes over-aggressive speculation self-penalising: a flood of
far-future candidates occupies the queue and near-term requests bounce.
"""

from collections import deque


class PrefetchQueue:
    """FIFO of pending prefetch requests with a capacity cap.

    Entries are ``(addr, meta)`` tuples; *meta* is prefetcher-defined and
    travels with the block into the cache line for feedback.
    """

    def __init__(self, capacity=100):
        self.capacity = capacity
        self._queue = deque()
        self.drops = 0

    def __len__(self):
        return len(self._queue)

    def push(self, addr, meta=None):
        """Enqueue a request; rejected (dropped) when the queue is full."""
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return
        self._queue.append((addr, meta))

    def pop(self):
        """Dequeue the oldest request, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def clear(self):
        self._queue.clear()

    def snapshot(self):
        """Queue contents as a JSON-safe structure.

        Metas go through :func:`repro.checkpoint.state.encode_meta` so
        opaque tuples and the ``IFETCH_META`` identity sentinel survive
        the round trip.
        """
        from repro.checkpoint.state import encode_meta
        return {
            "entries": [[addr, encode_meta(meta)]
                        for addr, meta in self._queue],
            "drops": self.drops,
        }

    def restore(self, state):
        """Restore queue contents from :meth:`snapshot` output, into
        the existing deque (callers may hold it)."""
        from repro.checkpoint.state import decode_meta
        self._queue.clear()
        self._queue.extend(
            (addr, decode_meta(meta)) for addr, meta in state["entries"]
        )
        self.drops = state["drops"]

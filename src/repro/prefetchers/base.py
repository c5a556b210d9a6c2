"""Common prefetcher interface.

The timing core raises events as the instruction stream is processed; a
prefetcher reacts by pushing block addresses into its bounded
:class:`~repro.memory.PrefetchQueue`.  The system drains that queue into
the memory hierarchy at a limited rate and routes usefulness feedback
(useful / late / useless) back through :meth:`Prefetcher.feedback`.

Miss-driven designs (next-n, stride, SMS) only implement ``on_load``;
pipeline-driven designs (B-Fetch, Tango) also use ``on_branch_decode`` and
``on_commit``.
"""

from collections import OrderedDict

from repro.memory.prefetch_queue import PrefetchQueue
from repro.memory.stats import PrefetchStats

_RECENT_BLOCKS = 256  # issue-side dedup window (blocks)

#: instruction blocks B-Fetch-I queues per predicted basic block
MAX_INSTR_BLOCKS = 8

# queue meta sentinel marking an instruction-side (L1I) prefetch request
IFETCH_META = ("ifetch",)


class Prefetcher:
    """Base class with no-op hooks; a "no prefetching" baseline as-is.

    :param queue_capacity: bounded request queue size (Table I: 100).
    :param block_bytes: cache-line size used for issue-side dedup; must
        match the L1 line size of the hierarchy the prefetcher feeds
        (the factory passes ``HierarchyConfig.block_bytes`` through).
    """

    name = "none"
    is_perfect = False

    def __init__(self, queue_capacity=100, block_bytes=64):
        shift = block_bytes.bit_length() - 1
        if 1 << shift != block_bytes:
            raise ValueError("block size must be a power of two, got %r"
                             % (block_bytes,))
        self.block_bytes = block_bytes
        self.block_shift = shift
        self.stats = PrefetchStats()
        self.queue = PrefetchQueue(queue_capacity)
        # recently-requested block filter: overlapping lookahead windows
        # (every walk re-covers the previous walk's blocks shifted by one)
        # would otherwise flood the bounded queue with repeats and starve
        # the genuinely new requests at the front of the stream
        self._recent = OrderedDict()
        # tracing: None when the "prefetch" category is disabled, so the
        # drain loop pays a single identity test per issued request
        self._trace_prefetch = None

    def bind_tracer(self, tracer):
        """Cache the tracer's ``prefetch`` channel (None disables)."""
        self._trace_prefetch = (
            tracer.channel("prefetch") if tracer is not None else None
        )

    # ------------------------------------------------------------------
    # events raised by the timing core / system

    def on_load(self, pc, addr, hit, now):
        """A demand load at *pc* touched byte *addr* (L1 hit flag given)."""

    def on_store(self, pc, addr, hit, now):
        """A demand store; most prefetchers ignore stores."""

    def on_branch_decode(self, pc, pred_taken, target, now):
        """A branch was decoded in the main pipeline (B-Fetch trigger)."""

    def on_commit(self, instr, ea, taken, next_pc, regs, now):
        """An instruction committed, with its architectural side effects.

        *next_pc* is the actual following PC (the resolved target for taken
        branches) for a branch, and None for any other instruction;
        *regs* is the live architectural register file (read-only use).
        """

    def on_l1d_eviction(self, addr, line):
        """An L1D line was evicted (SMS generation tracking)."""

    def feedback(self, meta, outcome):
        """A prefetched block resolved: outcome in {useful, late, useless}.

        The three counters are disjoint -- a resolved prefetch lands in
        exactly one bucket (``late`` is *not* also counted as
        ``useful``; derived accuracy/timeliness live on
        :class:`~repro.memory.PrefetchStats` and as Ratio stats in the
        registry).
        """
        if outcome == "useful":
            self.stats.useful += 1
        elif outcome == "late":
            self.stats.late += 1
        elif outcome == "useless":
            self.stats.useless += 1
        else:
            raise ValueError("unknown prefetch outcome %r" % outcome)

    # ------------------------------------------------------------------
    # issuing

    def push(self, addr, meta=None):
        """Queue a prefetch request for the block containing *addr*.

        Requests whose block was pushed within the last
        :data:`_RECENT_BLOCKS` distinct blocks are suppressed as
        duplicates.  The block number derives from the configured line
        size (``block_shift``), not a hard-coded 64-byte geometry.
        """
        block = addr >> self.block_shift
        recent = self._recent
        if block in recent:
            recent.move_to_end(block)
            self.stats.duplicate += 1
            return
        recent[block] = True
        if len(recent) > _RECENT_BLOCKS:
            recent.popitem(last=False)
        before = self.queue.drops
        self.queue.push(addr, meta)
        self.stats.dropped += self.queue.drops - before

    def push_instr(self, addr):
        """Queue an instruction-side (L1I) prefetch request."""
        self.push(addr, IFETCH_META)

    def _prefetch_instr_range(self, start_pc, end_pc):
        """B-Fetch-I: queue the instruction blocks of one predicted basic
        block (entry PC through its terminating branch), at most
        :data:`MAX_INSTR_BLOCKS` of them."""
        block_bytes = self.block_bytes
        block = start_pc & ~(block_bytes - 1)
        last = end_pc & ~(block_bytes - 1)
        limit = MAX_INSTR_BLOCKS
        push = self.push_instr
        while block <= last and limit > 0:
            push(block)
            block += block_bytes
            limit -= 1

    def drain(self, hierarchy, now, allowance):
        """Issue up to *allowance* queued requests into *hierarchy*."""
        pending = self.queue._queue
        popleft = pending.popleft
        issue = hierarchy.prefetch
        trace = self._trace_prefetch
        for _ in range(allowance):
            if not pending:
                break
            addr, meta = popleft()
            ifetch = meta is IFETCH_META
            if ifetch:
                issued = hierarchy.prefetch_instr(addr, now)
            else:
                issued = issue(addr, now, meta)
            if issued:
                self.stats.issued += 1
            else:
                self.stats.duplicate += 1
            if trace is not None:
                trace.emit("issue", now, addr=addr, issued=issued,
                           ifetch=ifetch, pf=self.name)

    # ------------------------------------------------------------------

    def storage_bits(self):
        """Prefetcher state budget in bits (Table-I accounting)."""
        return 0

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Base prefetcher state (stats, queue, dedup window).

        Subclasses extend the returned dict with their private tables;
        the ``_recent`` OrderedDict keeps its insertion order (it decides
        which block falls out of the dedup window next).
        """
        return {
            "stats": self.stats.as_dict(),
            "queue": self.queue.snapshot(),
            "recent": list(self._recent),
        }

    def restore(self, state):
        """Restore base prefetcher state from :meth:`snapshot` output."""
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self.queue.restore(state["queue"])
        # into the existing window: the B-Fetch walk binds it once
        self._recent.clear()
        self._recent.update((block, True) for block in state["recent"])

    def reset_stats(self):
        # reset in place: the stats object may be adopted by a
        # StatsRegistry, which holds a live reference to it
        self.stats.reset()

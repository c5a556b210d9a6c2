"""The decoupled front end orchestrator.

One :class:`DecoupledFrontEnd` per core, created at system assembly when
``SystemConfig.frontend="ftq"``.  The timing core calls exactly three
methods:

* :meth:`tick` once per step of the core's cycle loop
  (``OutOfOrderCore._cycle_loop``) -- the BPU walker advances up to
  :data:`FILL_WIDTH` fetch blocks down the predicted path (BTB-visible
  branches only, which is what makes shadow-branch fills matter),
  enqueues them into the FTQ, lets the I-side prefetcher scan the queue
  and drains its request queue into the hierarchy.  This runs during
  I-miss and redirect stalls too -- that is the decoupling.
* :meth:`demand_fetch` when fetch crosses into a new block -- consumes
  the FTQ head (mismatch = flush + resteer), goes through the L1-I +
  I-MSHR demand path, and predecodes missed lines.
* :meth:`redirect` at every mispredict resolution -- flushes the
  run-ahead and restarts the walker at the resolved target.
"""

from bisect import bisect_left

FTQ_ENTRIES = 32           # fetch target queue capacity, in fetch blocks
FILL_WIDTH = 2             # fetch blocks the BPU enqueues per cycle
IPREFETCH_DRAIN_RATE = 2   # queued I-side prefetches issued per cycle


class DecoupledFrontEnd:
    """FTQ + predecode + I-side prefetch, wired between BPU and L1-I.

    Fetch blocks are the hierarchy's lines, the same geometry the core
    fetches in.

    :param hierarchy: the core's :class:`~repro.memory.MemoryHierarchy`.
    :param predictor: shared direction predictor (read-only use).
    :param btb: shared :class:`~repro.branch.BranchTargetBuffer`.
    :param program: static :class:`~repro.isa.Program` image.
    :param iprefetcher: an :class:`~repro.frontend.IPrefetcher`.
    """

    def __init__(self, hierarchy, predictor, btb, program, iprefetcher):
        from repro.cpu.ooo import _bound_hook
        from repro.frontend.ftq import FetchTargetQueue
        from repro.frontend.iprefetch import IPrefetcher
        from repro.frontend.predecode import Predecoder, branch_tables
        block_bytes = hierarchy.config.block_bytes
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.btb = btb
        self.block_bytes = block_bytes
        self._block_mask = ~(block_bytes - 1)
        self.ftq = FetchTargetQueue(FTQ_ENTRIES)
        self.predecoder = Predecoder(program, btb, block_bytes)
        self.iprefetcher = iprefetcher
        iprefetcher.predecode = self.predecoder.on_fill
        # per-cycle probes read the queues' deques directly (restore
        # refills them in place, so these bindings stay live)
        self._ftq_queue = self.ftq._queue
        self._iq_queue = iprefetcher.queue._queue
        # the I-prefetcher's FTQ hook, None when it is the base no-op
        self._on_ftq = _bound_hook(iprefetcher, "on_ftq", IPrefetcher)
        # the walker's static view: the program's branch slots, and the
        # shared BTB/predictor read ports it probes at each of them
        self._base_pc = program.base_pc
        self._branches, self._kinds, _ = branch_tables(program)
        self._peek = btb.peek
        self._predict = predictor.predict
        self._note_hit = self.predecoder.note_hit
        # BPU run-ahead cursor: the next PC the walker predicts from;
        # None = stalled (ran past the program) until the next resteer
        self._bpu_pc = program.pc_of(0)
        self._last_pc = program.pc_of(len(program) - 1)
        # counters
        self.ftq_enqueued = 0
        self.ftq_hits = 0        # demand fetch matched the FTQ head
        self.ftq_mismatches = 0  # head existed but named another block
        self.ftq_empty = 0       # demand fetch found the queue empty
        self.ftq_flushes = 0     # mismatch-driven full flushes
        self.redirects = 0       # mispredict-resolution resteers
        self.bpu_stalls = 0      # ticks spent with a stalled walker
        self.occupancy_sum = 0
        self.occupancy_samples = 0
        self.demand_fetches = 0
        self.demand_misses = 0
        # tracing (None = "frontend" category disabled)
        self._trace = None

    def bind_tracer(self, tracer):
        """Cache the tracer's ``frontend`` channel (None disables)."""
        self._trace = (
            tracer.channel("frontend") if tracer is not None else None
        )
        self.iprefetcher.bind_tracer(tracer)

    # ------------------------------------------------------------------
    # per-cycle advance

    def tick(self, now):
        """Advance the BPU run-ahead and the I-side prefetcher."""
        queue = self._ftq_queue
        occupancy = len(queue)
        self.occupancy_sum += occupancy
        self.occupancy_samples += 1
        pc = self._bpu_pc
        if pc is None:
            self.bpu_stalls += 1
        else:
            fill = FTQ_ENTRIES - occupancy  # free FTQ room
            if fill > FILL_WIDTH:
                fill = FILL_WIDTH
            if fill > 0:
                push = self.ftq.push
                block_mask = self._block_mask
                walk_next = self._walk_next
                trace = self._trace
                while fill > 0 and pc is not None:
                    block_pc = pc & block_mask
                    push(block_pc)
                    self.ftq_enqueued += 1
                    if trace is not None:
                        trace.emit("ftq", now, action="enqueue",
                                   block=block_pc, occupancy=len(queue))
                    pc = walk_next(pc)
                    fill -= 1
                self._bpu_pc = pc
        on_ftq = self._on_ftq
        if on_ftq is not None:
            on_ftq(self.ftq, now)
        if self._iq_queue:
            self.iprefetcher.drain(self.hierarchy, now,
                                   IPREFETCH_DRAIN_RATE)

    def _walk_next(self, pc):
        """One walker step: from *pc*, return the entry PC of the next
        predicted fetch block, or None when the walker must stall.

        Only BTB-visible branches steer the walk -- a branch that never
        executed and was never shadow-filled is invisible, the walker
        falls through it, and the FTQ flushes when it turns out taken.
        The walk visits only the block's branch slots at or after *pc*
        (the program's static branch index), probing the BTB and the
        predictor exactly where a slot-by-slot scan of the block would.
        """
        block_end = (pc | (self.block_bytes - 1)) + 1
        # the branches among the instruction slots from pc to block_end
        first = (pc - self._base_pc) >> 2
        branches = self._branches
        start = bisect_left(branches, first)
        stop = bisect_left(branches, first + ((block_end - pc + 3) >> 2),
                           start)
        kinds = self._kinds
        peek = self._peek
        for slot in range(start, stop):
            p = pc + ((branches[slot] - first) << 2)
            target = peek(p)
            if target is not None:
                self._note_hit(p)
                if kinds[slot] == "u" or self._predict(p):
                    return target
            # BTB-invisible branch, or predicted not-taken: fall through
            # to the next branch slot of the block
        # the next block, or None when this block holds the end of the
        # image (or lies past it): the walker stalls
        return block_end if block_end <= self._last_pc else None

    # ------------------------------------------------------------------
    # demand fetch path

    def demand_fetch(self, pc, now):
        """Fetch crossed into the block holding *pc*; returns latency."""
        self.demand_fetches += 1
        block_pc = pc & self._block_mask
        ftq = self.ftq
        head = ftq.pop()
        if head == block_pc:
            self.ftq_hits += 1
        elif head is None:
            # walker is behind (or stalled): consume virtually when its
            # cursor already points into this block, else resteer
            self.ftq_empty += 1
            cursor = self._bpu_pc
            if cursor is not None and (cursor & self._block_mask) == block_pc:
                self._bpu_pc = self._walk_next(cursor)
            else:
                self._bpu_pc = self._walk_next(pc)
        else:
            # predicted path diverged from the actual one
            self.ftq_mismatches += 1
            self.ftq_flushes += 1
            ftq.clear()
            trace = self._trace
            if trace is not None:
                trace.emit("ftq", now, action="flush", expected=head,
                           actual=block_pc)
            self._bpu_pc = self._walk_next(pc)
        latency, hit = self.hierarchy.ifetch_demand(pc, now)
        if not hit:
            self.demand_misses += 1
            self.predecoder.on_fill(block_pc, entry_pc=pc)
            trace = self._trace
            if trace is not None:
                trace.emit("ifill", now, addr=block_pc, latency=latency,
                           demand=True)
        self.iprefetcher.on_ifetch(pc, hit, now)
        return latency

    def redirect(self, pc, now):
        """A mispredict resolved to *pc*: flush and resteer the BPU."""
        self.redirects += 1
        self.ftq.clear()
        self._bpu_pc = pc
        trace = self._trace
        if trace is not None:
            trace.emit("ftq", now, action="redirect", pc=pc)

    def busy(self):
        """Whether the front end still has same-cycle work (keeps the
        core from idle-skipping over run-ahead and drain cycles)."""
        if self._iq_queue:
            return True
        return (self._bpu_pc is not None
                and len(self._ftq_queue) < FTQ_ENTRIES)

    # ------------------------------------------------------------------
    # reporting

    @property
    def mean_occupancy(self):
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples

    def stats_dict(self):
        """Counters as a JSON-safe dict (RunResult payload block)."""
        predecoder = self.predecoder
        return {
            "ftq_enqueued": self.ftq_enqueued,
            "ftq_hits": self.ftq_hits,
            "ftq_mismatches": self.ftq_mismatches,
            "ftq_empty": self.ftq_empty,
            "ftq_flushes": self.ftq_flushes,
            "redirects": self.redirects,
            "bpu_stalls": self.bpu_stalls,
            "ftq_occupancy_sum": self.occupancy_sum,
            "ftq_occupancy_samples": self.occupancy_samples,
            "demand_fetches": self.demand_fetches,
            "demand_misses": self.demand_misses,
            "predecoded_blocks": predecoder.blocks,
            "shadow_fills": predecoder.shadow_fills,
            "shadow_hits": predecoder.shadow_hits,
        }

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Front-end state as a JSON-safe structure (the BTB, predictor
        and L1-I snapshot themselves at the system level)."""
        return {
            "ftq": self.ftq.snapshot(),
            "bpu_pc": self._bpu_pc,
            "predecode": self.predecoder.snapshot(),
            "iprefetch": self.iprefetcher.snapshot(),
            "ftq_enqueued": self.ftq_enqueued,
            "ftq_hits": self.ftq_hits,
            "ftq_mismatches": self.ftq_mismatches,
            "ftq_empty": self.ftq_empty,
            "ftq_flushes": self.ftq_flushes,
            "redirects": self.redirects,
            "bpu_stalls": self.bpu_stalls,
            "occupancy_sum": self.occupancy_sum,
            "occupancy_samples": self.occupancy_samples,
            "demand_fetches": self.demand_fetches,
            "demand_misses": self.demand_misses,
        }

    def restore(self, state):
        self.ftq.restore(state["ftq"])
        bpu_pc = state["bpu_pc"]
        self._bpu_pc = int(bpu_pc) if bpu_pc is not None else None
        self.predecoder.restore(state["predecode"])
        self.iprefetcher.restore(state["iprefetch"])
        self.ftq_enqueued = state["ftq_enqueued"]
        self.ftq_hits = state["ftq_hits"]
        self.ftq_mismatches = state["ftq_mismatches"]
        self.ftq_empty = state["ftq_empty"]
        self.ftq_flushes = state["ftq_flushes"]
        self.redirects = state["redirects"]
        self.bpu_stalls = state["bpu_stalls"]
        self.occupancy_sum = state["occupancy_sum"]
        self.occupancy_samples = state["occupancy_samples"]
        self.demand_fetches = state["demand_fetches"]
        self.demand_misses = state["demand_misses"]

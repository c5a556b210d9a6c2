"""Instruction-side (L1-I) prefetcher family.

Registered alongside the nine D-side prefetchers but selected through
the separate ``SystemConfig.iprefetcher`` axis, because the two families
compose: any D-side prefetcher can run with any I-side one.

* ``none``       -- inert placeholder (uniform stats, empty queue);
* ``nextline-i`` -- classic next-N-line on demand L1-I misses;
* ``fdip``       -- fetch-directed run-ahead: turns un-issued FTQ
  entries into L1-I prefetches ("Fetch-Directed Instruction
  Prefetching Revisited");
* ``bfetch-i``   -- the paper's B-Fetch-I future work: the BrTC
  lookahead walk re-targeted at fetch-block granularity, pushing the
  instruction blocks of predicted basic blocks;
* ``combined``   -- ``fdip`` + ``bfetch-i`` sharing one request queue.

All of them reuse the D-side :class:`~repro.prefetchers.Prefetcher`
substrate (bounded queue, recent-block dedup, stats, checkpointed
state), but their drain path issues only ``prefetch_instr`` fills and
notifies the predecoder so prefetched lines expose their shadow
branches too.
"""

from repro.core.brtc import BranchTraceCache
from repro.core.config import MAX_LOOKAHEAD, BFetchConfig
from repro.core.hashing import bb_hash
from repro.frontend.config import IPREFETCHER_NAMES
from repro.isa.opcodes import IS_BRANCH as _IS_BRANCH
from repro.prefetchers.base import Prefetcher

IPREFETCH_QUEUE_CAPACITY = 32   # bounded I-side prefetch request queue
NEXTLINE_DEGREE = 2    # blocks ``nextline-i`` pushes per demand L1-I miss
FDIP_DEGREE = 4        # FTQ entries FDIP turns into prefetches per cycle
# FTQ entries (nearest first) FDIP skips: the in-flight fetch distance
# that demand fetch covers anyway
FDIP_DISTANCE = 1


class IPrefetcher(Prefetcher):
    """I-side base: an inert queue; doubles as the ``none`` selection.

    :param block_bytes: L1-I line size (fetch-block geometry).
    """

    name = "none"

    def __init__(self, block_bytes=64):
        super().__init__(queue_capacity=IPREFETCH_QUEUE_CAPACITY,
                         block_bytes=block_bytes)
        # set by the front end: fn(addr) called on every issued fill so
        # prefetched lines get predecoded like demand fills
        self.predecode = None

    # ------------------------------------------------------------------
    # front-end events

    def on_ifetch(self, pc, hit, now):
        """A demand instruction fetch touched the block holding *pc*."""

    def on_ftq(self, ftq, now):
        """The BPU advanced; *ftq* is the live fetch target queue."""

    # ------------------------------------------------------------------

    def drain(self, hierarchy, now, allowance):
        """Issue up to *allowance* queued L1-I prefetches.

        Unlike the D-side drain, every request here is an instruction
        fill, and issued fills are handed to the predecoder.
        """
        pending = self.queue._queue
        popleft = pending.popleft
        issue = hierarchy.prefetch_instr
        predecode = self.predecode
        trace = self._trace_prefetch
        for _ in range(allowance):
            if not pending:
                break
            addr = popleft()[0]
            issued = issue(addr, now)
            if issued:
                self.stats.issued += 1
                if predecode is not None:
                    predecode(addr)
            else:
                self.stats.duplicate += 1
            if trace is not None:
                trace.emit("issue", now, addr=addr, issued=issued,
                           ifetch=True, pf=self.name)


class NextLineIPrefetcher(IPrefetcher):
    """Sequential next-N-line baseline, triggered by demand L1-I misses."""

    name = "nextline-i"

    def on_ifetch(self, pc, hit, now):
        if hit:
            return
        block_bytes = self.block_bytes
        block = (pc & ~(block_bytes - 1)) + block_bytes
        for _ in range(NEXTLINE_DEGREE):
            self.push_instr(block)
            block += block_bytes


class _FTQRunAhead(object):
    """Mixin: turn un-issued FTQ entries into L1-I prefetches (FDIP)."""

    def on_ftq(self, ftq, now):
        pending = ftq.pending(FDIP_DISTANCE, FDIP_DEGREE)
        push = self.push_instr
        for entry in pending:
            entry[1] = True  # issued: never rescanned
            push(entry[0])


class FDIPPrefetcher(_FTQRunAhead, IPrefetcher):
    """Fetch-directed instruction prefetching off the FTQ."""

    name = "fdip"


class BFetchIPrefetcher(IPrefetcher):
    """B-Fetch-I: the BrTC lookahead walk at fetch-block granularity.

    Owns a private Branch Trace Cache trained at commit time (the same
    linking discipline as the D-side engine) and walks it on every
    decoded branch, pushing the instruction blocks of each predicted
    basic block -- instead of the D-side engine's MHT-derived data
    addresses -- while the inline PaCo path confidence gates the depth.
    """

    name = "bfetch-i"
    STATE = IPrefetcher.STATE + (
        "brtc", "_prev_hash", "_prev_tag", "walks", "total_depth",
    )

    def __init__(self, block_bytes=64, bfetch_config=None):
        super().__init__(block_bytes=block_bytes)
        bf = bfetch_config or BFetchConfig()
        self.brtc = BranchTraceCache(bf.brtc_entries)
        self.path_confidence_threshold = bf.path_confidence_threshold
        self.predictor = None
        self.confidence = None
        self._prev_hash = None
        self._prev_tag = None
        self.walks = 0
        self.total_depth = 0

    def attach(self, predictor, confidence):
        """Connect the main pipeline's predictor and confidence
        estimator (same shared read ports as the D-side engine)."""
        self.predictor = predictor
        self.confidence = confidence

    # -- commit-time BrTC training ------------------------------------

    def on_commit(self, instr, ea, taken, next_pc, regs, now):
        if not _IS_BRANCH[instr.op]:
            return
        pc = instr.pc
        if instr.target is not None:
            taken_target = pc + 4 * (instr.target - instr.index)
        elif taken:
            taken_target = next_pc
        else:
            taken_target = None
        if self._prev_hash is not None:
            self.brtc.update(self._prev_hash, self._prev_tag, pc,
                             taken_target)
        self._prev_hash = bb_hash(pc, taken, next_pc)
        self._prev_tag = pc & 0xFFFFFFFF

    # -- decode-time lookahead walk -----------------------------------

    def on_branch_decode(self, pc, pred_taken, target, now):
        predictor = self.predictor
        if predictor is None:
            raise RuntimeError("BFetchIPrefetcher.attach() was never called")
        self.walks += 1
        threshold = self.path_confidence_threshold
        probability = self.confidence.probability
        spec_history = predictor.history
        path_value = probability(pc, spec_history)
        if path_value < threshold:
            return
        if pred_taken:
            if target is None:
                return  # indirect branch without a known target
            next_pc = target
        else:
            next_pc = pc + 4
        brtc_lookup = self.brtc.lookup
        predict = predictor.predict
        prefetch_range = self._prefetch_instr_range
        spec_history = (spec_history << 1) | (1 if pred_taken else 0)
        state_hash = bb_hash(pc, pred_taken, next_pc)
        state_tag = pc & 0xFFFFFFFF
        depth = 0
        entry_pc = next_pc
        while depth < MAX_LOOKAHEAD:
            depth += 1
            step = brtc_lookup(state_hash, state_tag)
            if step is None:
                break
            end_pc, end_taken_target = step
            if end_pc >= entry_pc:
                prefetch_range(entry_pc, end_pc)
            direction = predict(end_pc, spec_history)
            path_value *= probability(end_pc, spec_history)
            if path_value < threshold:
                break
            if direction:
                if end_taken_target is None:
                    break
                next_pc = end_taken_target
            else:
                next_pc = end_pc + 4
            state_hash = bb_hash(end_pc, direction, next_pc)
            state_tag = end_pc & 0xFFFFFFFF
            spec_history = (spec_history << 1) | (1 if direction else 0)
            entry_pc = next_pc
        self.total_depth += depth


class CombinedIPrefetcher(_FTQRunAhead, BFetchIPrefetcher):
    """FDIP run-ahead + the B-Fetch-I walk sharing one queue and one
    dedup window -- the head-to-head's "combined" row."""

    name = "combined"


def make_iprefetcher(name, block_bytes=64, bfetch_config=None):
    """Instantiate the I-side prefetcher *name* (one of
    :data:`IPREFETCHER_NAMES`)."""
    if name == "none":
        return IPrefetcher(block_bytes=block_bytes)
    if name == "nextline-i":
        return NextLineIPrefetcher(block_bytes=block_bytes)
    if name == "fdip":
        return FDIPPrefetcher(block_bytes=block_bytes)
    if name == "bfetch-i":
        return BFetchIPrefetcher(block_bytes=block_bytes,
                                 bfetch_config=bfetch_config)
    if name == "combined":
        return CombinedIPrefetcher(block_bytes=block_bytes,
                                   bfetch_config=bfetch_config)
    raise ValueError(
        "unknown iprefetcher %r (choose from %s)"
        % (name, ", ".join(IPREFETCHER_NAMES))
    )

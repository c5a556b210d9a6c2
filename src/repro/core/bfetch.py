"""The B-Fetch prefetch engine (Section IV).

Event wiring (raised by the timing core):

* ``on_branch_decode`` -- a branch entered the Decoded Branch Register;
  run one lookahead walk down the predicted path.
* ``on_commit`` -- architectural training: BrTC linking, MHT offset /
  loop-delta / pattern learning, ARF write scheduling, and the
  register-file snapshot taken at each branch.
* ``feedback`` -- per-load filter training from cache-line outcomes.

The engine needs read access to the main pipeline's branch predictor and
confidence estimator (Section IV-C argues the predictor has the spare
ports); call :meth:`BFetchPrefetcher.attach` during system assembly.

A walk step reads precomputed flat data (docs/bfetch.md, "How a walk is
computed"): each MHT entry's compiled issue list, each BrTC entry's
successor hashes, and the predictor's and confidence estimator's tables,
all bound once per engine by :meth:`BFetchPrefetcher.attach`.  Every
``restore()`` the walk reads through refills its lists in place, so the
bindings never go stale.
"""

from heapq import heappush

from repro.branch.path_confidence import PathConfidence  # noqa: F401 (API)
from repro.branch.tournament import TournamentPredictor
from repro.core.arf import AlternateRegisterFile
from repro.core.brtc import BranchTraceCache
from repro.core.config import MAX_LOOKAHEAD, BFetchConfig
from repro.core.hashing import bb_hash, load_pc_hash
from repro.core.mht import (
    LOOPDELTA_LIMIT,
    OFFSET_LIMIT,
    PATTERN_BITS,
    MemoryHistoryTable,
)
from repro.core.perload_filter import PerLoadFilter
from repro.isa.opcodes import IS_BRANCH as _IS_BRANCH, Op
from repro.prefetchers.base import _RECENT_BLOCKS, Prefetcher

_OP_LOAD = int(Op.LOAD)
_MASK64 = (1 << 64) - 1


class BFetchPrefetcher(Prefetcher):
    """Branch-prediction-directed data prefetcher."""

    name = "bfetch"

    def __init__(self, config=None, block_bytes=64):
        self.config = config or BFetchConfig()
        cfg = self.config
        # geometry: the engine must agree with the L1 it feeds -- the
        # factory passes the hierarchy's line size, so non-64B systems
        # keep dedup and delta learning block-aligned
        super().__init__(cfg.queue_capacity, block_bytes)
        self.brtc = BranchTraceCache(cfg.brtc_entries)
        self.mht = MemoryHistoryTable(cfg.mht_entries)
        self.arf = AlternateRegisterFile(delay=cfg.arf_delay)
        self.filter = PerLoadFilter(cfg.filter_tables,
                                    initial=cfg.filter_initial)
        self.predictor = None
        self.confidence = None
        self._walk = None  # the bound lookahead walk (attach)
        # the ARF's pending-write heap, pushed to directly at commit
        self._arf_pending = self.arf._pending
        # trainer state
        self._prev_hash = None  # keys the BB we are currently committing
        self._prev_tag = None
        self._branch_snapshot = None  # register values at the leading branch
        self._bb_primary_ea = {}  # regidx -> primary load EA this BB execution
        self._commit_seq = 0
        # lookahead statistics
        self.walks = 0
        self.total_depth = 0
        self.candidates = 0
        self.filtered = 0
        # per-walk depth distribution (bucket = basic blocks walked;
        # index 0 collects walks rejected before the first step)
        self.depth_hist = [0] * (MAX_LOOKAHEAD + 1)
        # tracing (None = "bfetch" category disabled)
        self._trace_bfetch = None

    def bind_tracer(self, tracer):
        super().bind_tracer(tracer)
        self._trace_bfetch = (
            tracer.channel("bfetch") if tracer is not None else None
        )

    # ------------------------------------------------------------------

    def attach(self, predictor, confidence):
        """Connect the main pipeline's predictor and confidence estimator
        (a :class:`~repro.branch.CompositeConfidenceEstimator`, whose
        tables the walk reads), and bind the lookahead walk."""
        self.predictor = predictor
        self.confidence = confidence
        self._walk = self._bind_walk()

    @property
    def mean_lookahead_depth(self):
        """Average basic blocks walked per lookahead (paper reports ~8)."""
        return self.total_depth / self.walks if self.walks else 0.0

    # ------------------------------------------------------------------
    # training (commit-time)

    def on_commit(self, instr, ea, taken, next_pc, regs, now):
        seq = self._commit_seq + 1
        self._commit_seq = seq
        rd = instr.rd
        if rd is not None and rd != 31:
            # AlternateRegisterFile.write's push: the value becomes
            # ARF-visible `delay` cycles after the writer completes
            # execution (`now` is the core-supplied completion estimate)
            heappush(self._arf_pending,
                     (now + self.arf.delay, seq, rd, regs[rd]))
        op = instr.op
        if _IS_BRANCH[op]:
            self._train_branch(instr, taken, next_pc, now)
        elif op == _OP_LOAD:
            self._train_load(instr, ea)

    def _train_branch(self, instr, taken, next_pc, now):
        pc = instr.pc
        # taken target: direct branches expose it at decode; indirect ones
        # only when actually taken
        if instr.target is not None:
            taken_target = instr.pc + 4 * (instr.target - instr.index)
        elif taken:
            taken_target = next_pc
        else:
            taken_target = None
        if self._prev_hash is not None:
            self.brtc.update(self._prev_hash, self._prev_tag, pc, taken_target)
        self._prev_hash = bb_hash(pc, taken, next_pc)
        self._prev_tag = pc & 0xFFFFFFFF
        # RegVal is read into the MHT *from the ARF* (Section IV-B2), not
        # from precise architectural state: training and lookahead must
        # observe the same sampling lag, so the learned Offset absorbs it
        # and the in-flight distance cancels at prefetch time.
        pending = self._arf_pending
        if pending and pending[0][0] <= now:
            self.arf.sync(now)
        self._branch_snapshot = self.arf.values[:]
        self._bb_primary_ea.clear()

    def _train_load(self, instr, ea):
        if self._prev_hash is None:
            return
        regidx = instr.ra
        primary_ea = self._bb_primary_ea.get(regidx)
        entry = self.mht.get_or_allocate(self._prev_hash, self._prev_tag)
        if primary_ea is not None:
            if not self.config.pattern_prefetch:
                return
            # secondary load off the same register: learn the block pattern
            slot = entry.slot_for(regidx, allocate=False)
            if slot is None or not slot.valid:
                return
            entry.issue = None
            shift = self.block_shift  # configured L1 line geometry
            delta_blocks = (ea >> shift) - (primary_ea >> shift)
            if 1 <= delta_blocks <= PATTERN_BITS:
                slot.pospatt |= 1 << (delta_blocks - 1)
            elif -PATTERN_BITS <= delta_blocks <= -1:
                slot.negpatt |= 1 << (-delta_blocks - 1)
            return
        entry.issue = None
        self._bb_primary_ea[regidx] = ea
        slot = entry.slot_for(regidx, allocate=True)
        offset = ea - self._branch_snapshot[regidx]
        if abs(offset) > OFFSET_LIMIT:
            # not representable in the 16-bit field: the slot cannot cover
            # this load (the per-load filter will suppress stale issues)
            slot.valid = False
            slot.stable = 0
            slot.last_ea = ea
            return
        if slot.valid and offset == slot.offset:
            if slot.stable < 3:
                slot.stable += 1
        elif slot.stable > 0:
            slot.stable -= 1
        if slot.last_ea is not None:
            loopdelta = ea - slot.last_ea
            if abs(loopdelta) <= LOOPDELTA_LIMIT:
                slot.loopdelta = loopdelta
            else:
                slot.loopdelta = 0
        slot.offset = offset
        slot.regval = self._branch_snapshot[regidx] & 0xFFFFFFFF
        slot.last_ea = ea
        slot.load_hash = load_pc_hash(instr.pc)
        slot.valid = True

    # ------------------------------------------------------------------
    # lookahead (decode-time)

    def on_branch_decode(self, pc, pred_taken, target, now):
        """Run one lookahead walk starting at the decoded branch."""
        walk = self._walk
        if walk is None:
            raise RuntimeError("BFetchPrefetcher.attach() was never called")
        walk(pc, pred_taken, target, now)

    def _compile_issue(self, entry):
        """Compile *entry*'s issue list: one flat tuple per slot the walk
        may issue from (valid and stable), in slot order::

            (regidx, offset, loopdelta, load_hash,
             three filter-table indices, pattern byte offsets)

        The pattern offsets are the posPatt blocks (positive, ascending)
        then the negPatt blocks (negative, ascending in distance) -- the
        order the patterns issue in.  Disabled loop or pattern prefetching
        compiles to a zero loop delta or no pattern offsets.  Filter
        tables beyond the configured count index a zero table (index 0).
        """
        cfg = self.config
        block_bytes = self.block_bytes
        filter_indices = self.filter._indices
        issue = []
        for slot in entry.slots:
            if not slot.valid or not slot.stable:
                continue
            load_hash = slot.load_hash
            indices = (filter_indices(load_hash) + (0, 0, 0))[:3]
            pattern = []
            if cfg.pattern_prefetch:
                for bits, sign in ((slot.pospatt, 1), (slot.negpatt, -1)):
                    step = 1
                    while bits:
                        if bits & 1:
                            pattern.append(sign * step * block_bytes)
                        bits >>= 1
                        step += 1
            issue.append((slot.regidx, slot.offset,
                          slot.loopdelta if cfg.loop_prefetch else 0,
                          load_hash) + indices + (tuple(pattern),))
        entry.issue = issue = tuple(issue)
        return issue

    def _bind_walk(self):
        """Bind the lookahead walk to this engine's tables.

        The returned ``walk(pc, pred_taken, target, now)`` holds every
        table, constant and counter object it touches in closure cells,
        so a walk starts without attribute lookups.  Each step probes
        the MHT and the BrTC by the hash of the block it enters (every
        step makes one lookup in each table, so the lookup counters
        advance by the depth), issues the hit entry's compiled issue
        list through the per-load filter, the recent-block window and
        the bounded queue, and takes the predicted direction's successor
        hash from the BrTC entry.  Direction and path confidence are
        read from the predictor's and estimator's tables as
        ``TournamentPredictor.predict`` and
        ``CompositeConfidenceEstimator.probability`` do; another
        predictor class is called through its ``predict``.  Counters
        accumulate in locals and are written back once per walk.
        """
        engine = self
        cfg = self.config
        threshold = cfg.path_confidence_threshold
        max_lookahead = MAX_LOOKAHEAD
        instruction_prefetch = cfg.instruction_prefetch
        use_filter = cfg.use_filter
        prefetch_instr_range = self._prefetch_instr_range
        compile_issue = self._compile_issue
        brtc = self.brtc
        brtc_tags = brtc.tags
        brtc_successors = brtc.successors
        brtc_end_pc = brtc.end_branch_pc
        brtc_end_target = brtc.end_taken_target
        brtc_mask = brtc._mask
        mht = self.mht
        mht_table = mht.table
        mht_mask = mht._mask
        arf = self.arf
        arf_values = arf.values
        arf_pending = arf._pending
        arf_sync = arf.sync
        filt = self.filter
        # the filter confidence is the sum of up to three counters
        table0, table1, table2 = (filt.tables + [(0,), (0,)])[:3]
        filter_threshold = filt.threshold
        probe_interval = filt.probe_interval
        stats = self.stats
        queue = self.queue
        queued = queue._queue
        enqueue = queued.append
        capacity = queue.capacity
        recent = self._recent
        refresh = recent.move_to_end
        evict = recent.popitem
        shift = self.block_shift
        block_mask = ~(self.block_bytes - 1)
        depth_hist = self.depth_hist
        predictor = self.predictor
        tournament = type(predictor) is TournamentPredictor
        if tournament:
            gshare = predictor.gshare
            local = predictor.local
            chooser = predictor.chooser
            chooser_mask = predictor._cmask
            global_table = gshare.table
            global_mask = gshare._mask
            global_threshold = gshare.threshold
            local_histories = local.histories
            local_counters = local.counters
            local_hmask = local._hmask
            local_pmask = local._pmask
            local_threshold = local.threshold
        else:
            predict = predictor.predict
        confidence = self.confidence
        jrs = confidence.jrs
        jrs_prob = jrs._prob
        jrs_table = jrs.table
        jrs_hist_mask = jrs._hist_mask
        jrs_mask = jrs._mask
        updown = confidence.updown
        updown_prob = updown._prob
        updown_table = updown.table
        updown_mask = updown._mask
        selfc = confidence.selfc
        selfc_prob = selfc._prob
        selfc_streaks = selfc.streaks
        selfc_mask = selfc._mask

        def walk(pc, pred_taken, target, now):
            if arf_pending and arf_pending[0][0] <= now:
                arf_sync(now)
            engine.walks += 1
            trace = engine._trace_bfetch
            # The walk maintains the multiplicative PaCo path confidence
            # inline (see branch.path_confidence for the object form).
            spec_history = (gshare.history if tournament
                            else predictor.history)
            word = pc >> 2
            path_value = (
                jrs_prob[jrs_table[
                    (word ^ (spec_history & jrs_hist_mask)) & jrs_mask]]
                + updown_prob[updown_table[word & updown_mask]]
                + selfc_prob[selfc_streaks[word & selfc_mask]]
            ) / 3.0
            if path_value < threshold:
                depth_hist[0] += 1
                if trace is not None:
                    trace.emit("walk", now, pc=pc, depth=0,
                               end="low_confidence")
                return
            if pred_taken:
                if target is None:
                    depth_hist[0] += 1
                    if trace is not None:
                        trace.emit("walk", now, pc=pc, depth=0,
                                   end="indirect_unknown")
                    return  # indirect branch without a known target
                next_pc = target
            else:
                next_pc = pc + 4
            state_hash = bb_hash(pc, pred_taken, next_pc)
            state_tag = pc & 0xFFFFFFFF
            spec_history = (spec_history << 1) | (1 if pred_taken else 0)
            # the entry PC of the current block is followed only when the
            # I-side ranges or the trace need it
            track_pc = instruction_prefetch or trace is not None
            entry_pc = next_pc

            brtc_hits = 0
            mht_hits = 0
            candidates = 0
            passed = 0
            blocked = 0
            probes = 0
            since_probe = filt._since_probe
            # deltas, so _prefetch_instr_range's pushes may interleave
            duplicate = 0
            dropped = 0
            visits = {}
            depth = 0
            while depth < max_lookahead:
                depth += 1
                revisit = visits.get(state_hash, 0)
                visits[state_hash] = revisit + 1
                entry = mht_table[state_hash & mht_mask]
                if entry is not None and entry.tag == state_tag:
                    mht_hits += 1
                    issue = entry.issue
                    if issue is None:
                        issue = compile_issue(entry)
                    for (regidx, offset, loopdelta, load_hash,
                         index0, index1, index2, pattern) in issue:
                        candidates += 1
                        if use_filter:
                            if (table0[index0] + table1[index1]
                                    + table2[index2] >= filter_threshold):
                                passed += 1
                            else:
                                # a blocked load passes once per
                                # probe_interval (PerLoadFilter.allow)
                                since_probe += 1
                                if since_probe < probe_interval:
                                    blocked += 1
                                    continue
                                since_probe = 0
                                probes += 1
                        ea = arf_values[regidx] + offset
                        if revisit:
                            ea += revisit * loopdelta
                        ea &= _MASK64
                        # Prefetcher.push: recent-block dedup, then the
                        # bounded queue
                        block = ea >> shift
                        if block in recent:
                            refresh(block)
                            duplicate += 1
                        else:
                            recent[block] = True
                            if len(recent) > _RECENT_BLOCKS:
                                evict(False)
                            if len(queued) >= capacity:
                                dropped += 1
                            else:
                                enqueue((ea, load_hash))
                        if not pattern:
                            continue
                        base = ea & block_mask
                        for step in pattern:
                            addr = base + step
                            if addr < 0:
                                addr &= _MASK64
                            block = addr >> shift
                            if block in recent:
                                refresh(block)
                                duplicate += 1
                            else:
                                recent[block] = True
                                if len(recent) > _RECENT_BLOCKS:
                                    evict(False)
                                if len(queued) >= capacity:
                                    dropped += 1
                                else:
                                    enqueue((addr, load_hash))
                slot = state_hash & brtc_mask
                if brtc_tags[slot] != state_tag:
                    break
                brtc_hits += 1
                word, end_tag, not_taken_hash, taken_hash = \
                    brtc_successors[slot]
                if instruction_prefetch:
                    end_pc = brtc_end_pc[slot]
                    if end_pc >= entry_pc:
                        prefetch_instr_range(entry_pc, end_pc)
                if tournament:
                    if chooser[spec_history & chooser_mask] >= 2:
                        direction = (global_table[(word ^ spec_history)
                                                  & global_mask]
                                     >= global_threshold)
                    else:
                        direction = (local_counters[
                            local_histories[word & local_hmask]
                            & local_pmask] >= local_threshold)
                else:
                    direction = predict(brtc_end_pc[slot], spec_history)
                path_value *= (
                    jrs_prob[jrs_table[
                        (word ^ (spec_history & jrs_hist_mask)) & jrs_mask]]
                    + updown_prob[updown_table[word & updown_mask]]
                    + selfc_prob[selfc_streaks[word & selfc_mask]]
                ) / 3.0
                if path_value < threshold:
                    break
                if direction:
                    if taken_hash is None:
                        break
                    state_hash = taken_hash
                    if track_pc:
                        next_pc = brtc_end_target[slot]
                else:
                    state_hash = not_taken_hash
                    if track_pc:
                        next_pc = brtc_end_pc[slot] + 4
                state_tag = end_tag
                spec_history = (spec_history << 1) | (1 if direction else 0)
                entry_pc = next_pc
            brtc.lookups += depth
            brtc.hits += brtc_hits
            mht.lookups += depth
            mht.hits += mht_hits
            engine.total_depth += depth
            depth_hist[depth] += 1
            if candidates:
                engine.candidates += candidates
                engine.filtered += blocked
                filt.passed += passed
                filt.blocked += blocked
                filt.probes += probes
                filt._since_probe = since_probe
                stats.duplicate += duplicate
                if dropped:
                    stats.dropped += dropped
                    queue.drops += dropped
            if trace is not None:
                trace.emit("walk", now, pc=pc, depth=depth,
                           end_pc=next_pc, path_conf=round(path_value, 6))

        return walk

    # ------------------------------------------------------------------

    def feedback(self, meta, outcome):
        """Cache-line outcome: update stats and train the per-load filter."""
        super().feedback(meta, outcome)
        if meta is not None:
            self.filter.update(meta, outcome != "useless")

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Full engine state: base queue/stats plus BrTC/MHT/ARF/filter
        tables and the commit-path trainer registers."""
        state = super().snapshot()
        state.update({
            "brtc": self.brtc.snapshot(),
            "mht": self.mht.snapshot(),
            "arf": self.arf.snapshot(),
            "filter": self.filter.snapshot(),
            "prev_hash": self._prev_hash,
            "prev_tag": self._prev_tag,
            "branch_snapshot": (
                list(self._branch_snapshot)
                if self._branch_snapshot is not None else None
            ),
            "bb_primary_ea": [[regidx, ea] for regidx, ea
                              in self._bb_primary_ea.items()],
            "commit_seq": self._commit_seq,
            "walks": self.walks,
            "total_depth": self.total_depth,
            "candidates": self.candidates,
            "filtered": self.filtered,
            "depth_hist": list(self.depth_hist),
        })
        return state

    def restore(self, state):
        """Restore engine state from :meth:`snapshot` output.  Every
        table the bound walk reads is refilled in place."""
        super().restore(state)
        self.brtc.restore(state["brtc"])
        self.mht.restore(state["mht"])
        self.arf.restore(state["arf"])
        self.filter.restore(state["filter"])
        self._prev_hash = state["prev_hash"]
        self._prev_tag = state["prev_tag"]
        snapshot = state["branch_snapshot"]
        self._branch_snapshot = (list(snapshot) if snapshot is not None
                                 else None)
        self._bb_primary_ea = {int(regidx): ea for regidx, ea
                               in state["bb_primary_ea"]}
        self._commit_seq = state["commit_seq"]
        self.walks = state["walks"]
        self.total_depth = state["total_depth"]
        self.candidates = state["candidates"]
        self.filtered = state["filtered"]
        self.depth_hist[:] = state["depth_hist"]

    def storage_bits(self):
        """Sum of Table I components (cache bits are counted by the
        overhead analysis since they live in the L1D, not the engine)."""
        return (
            self.brtc.storage_bits()
            + self.mht.storage_bits()
            + self.arf.storage_bits()
            + self.filter.storage_bits()
            + self.config.queue_capacity * 42  # prefetch queue (42-bit reqs)
        )

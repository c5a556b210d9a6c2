"""Batch execution for CMP mixes: view-fed cores under the event heap.

A CMP run cannot be stepped in lockstep slices the way independent
sweep lanes can: the cores share the LLC and DRAM, and the event heap
in :meth:`~repro.sim.cmp.CMPSystem.run` totally orders their accesses
to that shared state.  What the batch tier contributes here is the same
two ingredients as the single-core kernel -- the SoA trace feed
(instruction tuples plus the precomputed fetch-block-change column)
and the inlined L1 plain-hit fast paths -- wrapped in a per-core
*burst* stepper.

The burst stepper exploits a property of the heap loop itself: after
core *i* is popped at ``(now, i)``, it will be popped again immediately
as long as its returned ``next_time`` still orders ahead of the heap's
head entry.  Stepping those cycles inline (without the push/pop and
re-hydration) is observationally identical to the scalar loop, because
the comparison used to keep bursting is exactly the heap's tuple
ordering.  Cores always run with *live* predictors (the scalar mix
path never uses the outcome pre-pass), so every prefetcher -- B-Fetch
included -- takes the same code path.

Once a core's view cursor gets within one fetch group of the end of
its recorded window it permanently delegates to the core's own cycle
loop through ``core.run_until`` with the scalar mix's burst bound
(first syncing ``machine.seek(pos)``), which transparently
live-continues past the trace exactly as the scalar mix does; the
keep-running overshoot therefore stays byte-identical.
"""

import heapq

from repro.cpu.ooo import _NEVER
from repro.sim.cmp import _KEEP_RUNNING_FACTOR
from repro.sim.system import RunResult
from repro.trace.store import view_for

from repro.batch.feed import feed_for
from repro.batch.kernel import BatchIneligible, batchable


def batchable_mix(cmp_system):
    """Return None when the batch mix runner can serve this CMP, else
    the first ineligibility reason found."""
    for index, system in enumerate(cmp_system.systems):
        source = system.machine
        reason = batchable(
            system,
            len(source.trace.records) if system.replay is not None else 0,
        )
        if reason is None and source.pos != 0:
            reason = "replay source is not at the start of its trace"
        if reason is not None:
            return "core %d: %s" % (index, reason)
    return None


class _CoreLane(object):
    """One CMP core's burst stepper over its view feed."""

    __slots__ = ("index", "system", "feed", "delegated")

    def __init__(self, index, system, feed):
        self.index = index
        self.system = system
        self.feed = feed
        self.delegated = False

    def burst(self, now, bound, target):
        """Step this core from *now* while it stays ahead of *bound*.

        *bound* is the heap's head entry (or None when this is the only
        live core); bursting continues while ``(next_time, index)``
        orders before it, which replicates the heap's pop order exactly.
        *target* is the finish watermark while this core's finish cycle
        is still unrecorded, else None.  Returns ``(next_time,
        finished_at)``; ``finished_at`` is set at most once, and the
        burst returns immediately when it is (so the caller can account
        for it before anything else runs).
        """
        core = self.system.core
        index = self.index
        if not self.delegated:
            next_time, finished_at, now = self._view_burst(
                now, bound, target)
            if next_time is not None:
                return next_time, finished_at
            # fell off the recorded window: resume on the scalar core
            # loop at the cycle the view burst reached (NOT the
            # burst-entry time -- rewinding would re-run already-simulated
            # cycles; see tests/test_batch_kernel.py::
            # test_cmp_delegation_resume)
        if core.done:
            # past the keep-running budget: one step per pop
            return core.step_cycle(now), None
        # the same burst bound as CMPSystem.run
        stop = _NEVER
        if bound is not None:
            stop = bound[0] + 1 if index < bound[1] else bound[0]
        next_time = core.run_until(now, stop, target)
        if target is not None and core.retired >= target:
            return next_time, max(core.mark_cycle, 1)
        return next_time, None

    # ------------------------------------------------------------------

    def _view_burst(self, now, bound, target):
        """View-fed cycles until the burst bound, finish, or delegation.

        Returns ``(next_time, finished_at, now)``; a ``next_time`` of
        None means the core reached the delegation point at cycle
        ``now`` (state flushed, ``self.delegated`` set) and the caller
        must continue on the scalar stepper *from that cycle*."""
        system = self.system
        core = system.core
        machine = system.machine
        cfg = core.config
        hierarchy = core.hierarchy
        predictor = core.predictor
        confidence = core.confidence
        btb = core.btb
        prefetcher = core.prefetcher
        index = self.index

        feed = self.feed
        view = feed.view
        bchg = feed.bchg
        view_len = len(view)

        width = cfg.width
        rob_cap = cfg.rob_entries
        redirect_penalty = cfg.redirect_penalty
        alu_latency = cfg.alu_latency
        mul_latency = cfg.mul_latency
        store_latency = cfg.store_latency
        drain_rate = cfg.prefetch_drain_rate
        fetch_shift = core._fetch_shift
        l1_latency = hierarchy.config.l1_latency
        h_load = hierarchy.load
        h_store = hierarchy.store
        h_ifetch = hierarchy.ifetch
        h_oracle = hierarchy.access_oracle
        is_perfect = prefetcher is not None and prefetcher.is_perfect
        pf_drain = prefetcher.drain if prefetcher is not None else None
        pf_queue = prefetcher.queue if prefetcher is not None else None
        on_commit = core._pf_on_commit
        on_branch_decode = core._pf_on_branch_decode
        on_load = None
        on_store = None
        if prefetcher is not None and not is_perfect:
            from repro.cpu.ooo import _noop_hook
            from repro.prefetchers.base import Prefetcher as _Base
            hook = prefetcher.on_load
            on_load = (
                None if _noop_hook(_Base.on_load, hook) else hook
            )
            hook = prefetcher.on_store
            on_store = (
                None if _noop_hook(_Base.on_store, hook) else hook
            )
        predict = predictor.predict
        predictor_update = predictor.update
        confidence_update = confidence.update
        btb_lookup = btb.lookup
        btb_update = btb.update

        l1d = hierarchy.l1d
        l1i = hierarchy.l1i
        d_sets = l1d.sets
        d_set_mask = l1d._set_mask
        d_shift = l1d.block_shift
        d_stats = l1d.stats
        i_sets = l1i.sets
        i_set_mask = l1i._set_mask
        i_shift = l1i.block_shift
        i_stats = l1i.stats

        regs = machine.regs

        # core state -> locals; the reg_ready and rob *lists* are shared
        # objects mutated in place, so only the plain ints flush back
        reg_ready = core.reg_ready
        rob = core.rob
        rhead = core._rob_head
        pos = machine.pos
        retired = core.retired
        budget = core.budget
        fetch_stall_until = core.fetch_stall_until
        fetch_block = core._fetch_block
        cond_branches = core.cond_branches
        branches = core.branches
        mispredicts = core.mispredicts
        fetch_cycles = core.fetch_cycles
        rob_full_stalls = core.rob_full_stalls
        flush_stall_cycles = core.flush_stall_cycles
        fbh = core.fetch_branch_hist
        finished_at = None
        next_time = None

        while True:
            if pos + width > view_len:
                # within one fetch group of the window edge: hand the
                # core to the scalar stepper, which live-continues
                next_time = None
                break

            # ---- one transcribed OutOfOrderCore._cycle_loop step at `now`
            limit = rhead + width
            rob_len = len(rob)
            while rhead < rob_len and rhead < limit and rob[rhead] <= now:
                rhead += 1
                retired += 1
            if rhead > 4096:
                del rob[:rhead]
                rhead = 0
            if retired >= budget:
                core.done = True
                next_time = now + 1
                break

            if pf_drain is not None and len(pf_queue):
                pf_drain(hierarchy, now, drain_rate)

            fetched = 0
            branches_in_group = 0
            if now >= fetch_stall_until:
                in_flight = len(rob) - rhead
                dispatched_total = retired + in_flight
                while (
                    fetched < width
                    and in_flight < rob_cap
                    and dispatched_total < budget
                ):
                    (vkind, instr, pc, ra, rb, rd, ea, taken, value, wreg,
                     taken_target, next_pc) = view[pos]
                    changed = bchg[pos]
                    pos += 1
                    if wreg >= 0:
                        regs[wreg] = value
                    if changed:
                        fetch_block = pc >> fetch_shift
                        iblock = pc >> i_shift
                        line = i_sets[iblock & i_set_mask].get(iblock)
                        if (
                            line is not None
                            and line.ready <= now
                            and (not line.prefetched or line.used)
                        ):
                            i_stats.accesses += 1
                            i_stats.hits += 1
                            tick = l1i._tick + 1
                            l1i._tick = tick
                            line.lru = tick
                        else:
                            ifetch_latency = h_ifetch(pc, now)
                            if ifetch_latency > l1_latency:
                                fetch_stall_until = now + ifetch_latency
                    fetched += 1
                    in_flight += 1
                    dispatched_total += 1

                    ready = now + 1
                    if ra >= 0 and reg_ready[ra] > ready:
                        ready = reg_ready[ra]
                    if rb >= 0 and reg_ready[rb] > ready:
                        ready = reg_ready[rb]
                    group_ends = False
                    if vkind == 0:  # load
                        if is_perfect:
                            complete = ready + h_oracle(ea, ready)
                        else:
                            dblock = ea >> d_shift
                            line = d_sets[dblock & d_set_mask].get(dblock)
                            if (
                                line is not None
                                and line.ready <= ready
                                and (not line.prefetched or line.used)
                            ):
                                hierarchy._now = ready
                                d_stats.accesses += 1
                                d_stats.hits += 1
                                tick = l1d._tick + 1
                                l1d._tick = tick
                                line.lru = tick
                                complete = ready + l1_latency
                                if on_load is not None:
                                    on_load(pc, ea, True, now)
                            else:
                                latency, hit = h_load(ea, ready)
                                if on_load is not None:
                                    on_load(pc, ea, hit, now)
                                complete = ready + latency
                        reg_ready[rd] = complete
                    elif vkind == 1:  # store
                        if is_perfect:
                            h_oracle(ea, ready)
                        else:
                            dblock = ea >> d_shift
                            line = d_sets[dblock & d_set_mask].get(dblock)
                            if (
                                line is not None
                                and line.ready <= ready
                                and (not line.prefetched or line.used)
                            ):
                                hierarchy._now = ready
                                d_stats.accesses += 1
                                d_stats.hits += 1
                                tick = l1d._tick + 1
                                l1d._tick = tick
                                line.lru = tick
                                line.dirty = True
                            else:
                                h_store(ea, ready)
                            if on_store is not None:
                                on_store(pc, ea, True, now)
                        complete = ready + store_latency
                    elif vkind == 2:  # conditional branch
                        complete = ready + alu_latency
                        history = predictor.history
                        predicted = predict(pc)
                        correct = predicted == taken
                        cond_branches += 1
                        if not correct:
                            mispredicts += 1
                        confidence_update(pc, history, correct, taken)
                        predictor_update(pc, taken)
                        if on_branch_decode is not None:
                            on_branch_decode(pc, predicted, taken_target,
                                             now)
                        if not correct:
                            fetch_stall_until = complete + redirect_penalty
                            group_ends = True
                        else:
                            group_ends = predicted
                        branches += 1
                    elif vkind == 3:  # indirect jump
                        complete = ready + alu_latency
                        predicted_target = btb_lookup(pc)
                        btb_update(pc, next_pc)
                        correct = predicted_target == next_pc
                        confidence_update(pc, predictor.history, correct,
                                          True)
                        if on_branch_decode is not None:
                            on_branch_decode(pc, True, predicted_target,
                                             now)
                        if not correct:
                            mispredicts += 1
                            fetch_stall_until = complete + redirect_penalty
                        group_ends = True
                        branches += 1
                    elif vkind == 4:  # direct unconditional branch
                        complete = ready + alu_latency
                        confidence_update(pc, predictor.history, True, True)
                        if on_branch_decode is not None:
                            on_branch_decode(pc, True, taken_target, now)
                        group_ends = True
                        branches += 1
                    else:  # mul / alu / nop / halt
                        if vkind == 5:
                            complete = ready + mul_latency
                        else:
                            complete = ready + alu_latency
                        if rd >= 0:
                            reg_ready[rd] = complete
                    rob.append(complete)
                    if on_commit is not None:
                        on_commit(instr, ea, taken, next_pc, regs, complete)

                    if 2 <= vkind <= 4:
                        branches_in_group += 1
                    if group_ends:
                        break
            if fetched:
                fetch_cycles += 1
                if branches_in_group:
                    bucket = (
                        branches_in_group if branches_in_group < 4 else 4
                    )
                    fbh[bucket] += 1
                next_time = now + 1
            else:
                if now < fetch_stall_until:
                    flush_stall_cycles += 1
                elif len(rob) - rhead >= rob_cap:
                    rob_full_stalls += 1
                candidates = []
                if rhead < len(rob):
                    candidates.append(rob[rhead])
                if now < fetch_stall_until:
                    candidates.append(fetch_stall_until)
                if prefetcher is not None and len(pf_queue):
                    next_time = now + 1
                elif not candidates:
                    next_time = now + 1
                else:
                    next_event = min(candidates)
                    next_time = now + 1 if next_event <= now else next_event
            # ---- end transcribed cycle

            if target is not None and retired >= target:
                finished_at = max(now, 1)
                break
            if bound is not None and not (
                next_time < bound[0]
                or (next_time == bound[0] and index < bound[1])
            ):
                break
            now = next_time

        # locals -> core; the shared lists were mutated in place
        core._rob_head = rhead
        core.retired = retired
        core.fetch_stall_until = fetch_stall_until
        core._fetch_block = fetch_block
        core.cond_branches = cond_branches
        core.branches = branches
        core.mispredicts = mispredicts
        core.fetch_cycles = fetch_cycles
        core.rob_full_stalls = rob_full_stalls
        core.flush_stall_cycles = flush_stall_cycles
        machine.seek(pos)
        if next_time is None:
            self.delegated = True
        return next_time, finished_at, now


def run_mix_batch(cmp_system, instructions_per_app):
    """Batch-tier equivalent of :meth:`CMPSystem.run` (no collaborators).

    Transcribes the unchunked event-heap loop with burst-stepped,
    view-fed cores; returns the same per-core
    :class:`~repro.sim.RunResult` list, byte-identical to the scalar
    path.

    :raises BatchIneligible: when any core fails :func:`batchable_mix`.
    """
    reason = batchable_mix(cmp_system)
    if reason is not None:
        raise BatchIneligible(reason)
    target = instructions_per_app
    systems = cmp_system.systems
    num_cores = cmp_system.num_cores
    lanes = []
    for index, system in enumerate(systems):
        source = system.machine
        view = view_for(system.workload, source.trace)
        feed = feed_for(source.trace, view, system.core._fetch_shift)
        lanes.append(_CoreLane(index, system, feed))

    finish_cycle = [None] * num_cores
    remaining = num_cores
    heap = []
    for index, system in enumerate(systems):
        system.core.start(target * _KEEP_RUNNING_FACTOR)
        heapq.heappush(heap, (0, index))

    while remaining:
        now, index = heapq.heappop(heap)
        bound = heap[0] if heap else None
        watch = target if finish_cycle[index] is None else None
        next_time, finished_at = lanes[index].burst(now, bound, watch)
        if finished_at is not None:
            finish_cycle[index] = finished_at
            remaining -= 1
            if remaining == 0:
                break
        heapq.heappush(heap, (next_time, index))

    results = []
    for index, system in enumerate(systems):
        core = system.core
        saved_cycle, saved_retired = core.cycle, core.retired
        core.cycle = finish_cycle[index]
        core.retired = min(core.retired, target)
        result = RunResult.from_core(
            core, system.workload.name, cmp_system.config.prefetcher
        )
        result.data["total_retired"] = saved_retired
        core.cycle, core.retired = saved_cycle, saved_retired
        results.append(result)
    return results

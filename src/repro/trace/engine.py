"""Fused replay timing engine.

``run_replay`` is an exact transcription of the lockstep hot path --
the core's one cycle loop, ``OutOfOrderCore._cycle_loop``, as driven by
:meth:`OutOfOrderCore.run` -- specialised for a pre-decoded trace
*view*: the per-step functional interpretation and dispatch branching
are hoisted out, leaving one tuple unpack per dynamic instruction.
Every stateful operation (hierarchy accesses, predictor training,
prefetcher hooks, counter updates, stall arithmetic) happens in the
same order with the same arguments as the lockstep loop, so the
resulting :class:`~repro.sim.system.RunResult` is byte-identical --
``tests/test_trace_replay.py`` enforces this for every catalog
prefetcher.

The *view* (:func:`build_view`) is config-independent: it is memoised
per trace by :mod:`repro.trace.store` and shared by every sweep cell
over the same (benchmark, variant, steps).  :func:`branch_outcomes`
additionally pre-computes the direction-predictor and BTB responses --
a pure function of the (pc, taken, next_pc) stream -- which is valid
whenever nothing observes live predictor state (i.e. for every
prefetcher without an ``attach`` hook; the B-Fetch engine reads the
predictor during lookahead walks and therefore runs without the
pre-pass).

Fused-path preconditions (checked by the caller,
:meth:`repro.sim.system.System.run`): non-chunked run, budget within
the recorded window, branch tracing disabled.
"""

from repro.cpu.ooo import _noop_hook
from repro.isa.opcodes import (
    IS_ALU as _IS_ALU,
    IS_BRANCH as _IS_BRANCH,
    IS_COND_BRANCH as _IS_COND_BRANCH,
    Op,
)
from repro.cpu.functional import write_regs_of
from repro.prefetchers.base import Prefetcher as _BasePrefetcher

_OP_LOAD = int(Op.LOAD)
_OP_STORE = int(Op.STORE)
_OP_MUL = int(Op.MUL)
_OP_JR = int(Op.JR)

# view kinds (dispatch codes for the fused loop)
V_LOAD = 0
V_STORE = 1
V_COND = 2
V_JR = 3
V_BR = 4
V_MUL = 5
V_ALU = 6


def build_view(workload, trace):
    """Pre-decode a trace into fused-loop view tuples.

    Each entry is ``(vkind, instr, pc, ra, rb, rd, ea, taken, value,
    wreg, taken_target, next_pc)`` where *ra*/*rb* are the operand
    registers the dispatch stage waits on (-1 when it doesn't), *rd* is
    the raw destination-register field used for ``reg_ready`` updates
    (the lockstep core writes it even for the hardwired-zero register,
    so the view must too), *wreg* is the folded architectural write
    register for *value* (-1 when the step writes nothing), and
    *next_pc* is the PC after this instruction (what ``machine.pc``
    reads as during commit).  Deliberately config-independent so one
    view serves every sweep cell.
    """
    program = workload.program
    instrs = program.instrs
    pc_of = program.pc_of
    reg_of = write_regs_of(program)
    records = trace.records
    final_index = trace.final_state["index"]
    count = len(records)
    view = []
    append = view.append
    for pos in range(count):
        index, taken, ea, value = records[pos]
        instr = instrs[index]
        op = instr.op
        pc = instr.pc
        next_index = records[pos + 1][0] if pos + 1 < count else final_index
        ra = instr.ra if instr.ra is not None else -1
        rb = instr.rb
        if rb is None or not (op == _OP_STORE or _IS_ALU[op]):
            rb = -1
        rd = instr.rd if instr.rd is not None else -1
        taken_target = 0
        if op == _OP_LOAD:
            vkind = V_LOAD
        elif op == _OP_STORE:
            vkind = V_STORE
        elif _IS_COND_BRANCH[op]:
            vkind = V_COND
            taken_target = pc + 4 * (instr.target - instr.index)
        elif op == _OP_JR:
            vkind = V_JR
        elif _IS_BRANCH[op]:
            vkind = V_BR
            taken_target = pc + 4 * (instr.target - instr.index)
        elif op == _OP_MUL:
            vkind = V_MUL
        else:
            vkind = V_ALU
        append((
            vkind, instr, pc, ra, rb, rd, ea, taken, value,
            reg_of[index] if value is not None else -1,
            taken_target, pc_of(next_index),
        ))
    return view


def branch_outcomes(view, predictor, btb):
    """Pre-compute per-branch predictor/BTB responses for a view.

    The direction predictor and BTB evolve as a pure function of the
    committed branch stream, so their per-branch answers can be computed
    once per (trace, predictor-config) with throwaway instances and
    shared across every sweep cell that doesn't observe live predictor
    state.  Entries align with the view's cond/JR records in order:
    ``(predicted, correct)`` for conditional branches,
    ``(predicted_target, correct)`` for indirect jumps.
    """
    outcomes = []
    append = outcomes.append
    predict = predictor.predict
    update = predictor.update
    lookup = btb.lookup
    btb_update = btb.update
    for entry in view:
        vkind = entry[0]
        if vkind == V_COND:
            pc = entry[2]
            taken = entry[7]
            predicted = predict(pc)
            update(pc, taken)
            append((predicted, predicted == taken))
        elif vkind == V_JR:
            pc = entry[2]
            next_pc = entry[11]
            predicted_target = lookup(pc)
            btb_update(pc, next_pc)
            append((predicted_target, predicted_target == next_pc))
    return outcomes


def run_replay(system, budget, view, outcomes=None):
    """Run *system*'s core for *budget* instructions off the trace view.

    Exact fused transcription of ``OutOfOrderCore.run``; mutates the
    core, hierarchy, predictor and prefetcher exactly as lockstep
    execution would (predictor/BTB/confidence are left untouched when
    *outcomes* supplies the pre-computed responses -- their state is
    unobservable in a non-chunked run).  Returns the final cycle.
    """
    core = system.core
    machine = system.machine  # the TraceReplaySource
    cfg = core.config
    hierarchy = core.hierarchy
    predictor = core.predictor
    confidence = core.confidence
    btb = core.btb
    prefetcher = core.prefetcher

    # hoisted configuration / bound methods
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
    on_commit = core._pf_on_commit
    on_branch_decode = core._pf_on_branch_decode
    on_load = None
    on_store = None
    if prefetcher is not None and not is_perfect:
        hook = prefetcher.on_load
        on_load = None if _noop_hook(_BasePrefetcher.on_load, hook) else hook
        hook = prefetcher.on_store
        on_store = (
            None if _noop_hook(_BasePrefetcher.on_store, hook) else hook
        )
    predict = predictor.predict
    predictor_update = predictor.update
    confidence_update = confidence.update
    btb_lookup = btb.lookup
    btb_update = btb.update

    # live core state as locals
    regs = machine.regs
    reg_ready = core.reg_ready
    rob = core.rob
    head = core._rob_head
    fetch_stall_until = core.fetch_stall_until
    fetch_block = core._fetch_block
    retired = core.retired
    cond_branches = core.cond_branches
    branches = core.branches
    mispredicts = core.mispredicts
    fetch_branch_hist = core.fetch_branch_hist
    fetch_cycles = core.fetch_cycles
    rob_full_stalls = core.rob_full_stalls
    flush_stall_cycles = core.flush_stall_cycles
    now = core.cycle
    pos = machine.pos
    bcursor = 0
    rob_append = rob.append

    core.start(budget)

    while True:
        # retire (in order, up to width)
        limit = head + width
        rob_len = len(rob)
        while head < rob_len and head < limit and rob[head] <= now:
            head += 1
            retired += 1
        if head > 4096:  # compact the ring buffer
            del rob[:head]
            head = 0
        if retired >= budget:
            now += 1
            break

        # drain queued prefetches into the hierarchy
        if pf_drain is not None and len(prefetcher.queue):
            pf_drain(hierarchy, now, drain_rate)

        # fetch / dispatch
        fetched = 0
        branches_in_group = 0
        if now >= fetch_stall_until:
            in_flight = len(rob) - head
            dispatched_total = retired + in_flight
            while (
                fetched < width
                and in_flight < rob_cap
                and dispatched_total < budget
            ):
                (vkind, instr, pc, ra, rb, rd, ea, taken, value, wreg,
                 taken_target, next_pc) = view[pos]
                pos += 1
                if wreg >= 0:
                    regs[wreg] = value
                block = pc >> fetch_shift
                if block != fetch_block:
                    fetch_block = block
                    ifetch_latency = h_ifetch(pc, now)
                    if ifetch_latency > l1_latency:
                        fetch_stall_until = now + ifetch_latency
                fetched += 1
                in_flight += 1
                dispatched_total += 1

                # ---- dispatch (transcribed from OutOfOrderCore._cycle_loop)
                ready = now + 1
                if ra >= 0 and reg_ready[ra] > ready:
                    ready = reg_ready[ra]
                if rb >= 0 and reg_ready[rb] > ready:
                    ready = reg_ready[rb]
                group_ends = False
                if vkind == 0:  # load
                    if is_perfect:
                        latency = h_oracle(ea, ready)
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
                        h_store(ea, ready)
                        if on_store is not None:
                            on_store(pc, ea, True, now)
                    complete = ready + store_latency
                elif vkind == 2:  # conditional branch
                    complete = ready + alu_latency
                    if outcomes is None:
                        history = predictor.history
                        predicted = predict(pc)
                        correct = predicted == taken
                    else:
                        predicted, correct = outcomes[bcursor]
                        bcursor += 1
                    cond_branches += 1
                    if not correct:
                        mispredicts += 1
                    if outcomes is None:
                        confidence_update(pc, history, correct, taken)
                        predictor_update(pc, taken)
                    if on_branch_decode is not None:
                        on_branch_decode(pc, predicted, taken_target, now)
                    if not correct:
                        fetch_stall_until = complete + redirect_penalty
                        group_ends = True
                    else:
                        group_ends = predicted
                    branches += 1
                elif vkind == 3:  # indirect jump
                    complete = ready + alu_latency
                    if outcomes is None:
                        predicted_target = btb_lookup(pc)
                        btb_update(pc, next_pc)
                        correct = predicted_target == next_pc
                        confidence_update(pc, predictor.history, correct,
                                          True)
                    else:
                        predicted_target, correct = outcomes[bcursor]
                        bcursor += 1
                    if on_branch_decode is not None:
                        on_branch_decode(pc, True, predicted_target, now)
                    if not correct:
                        mispredicts += 1
                        fetch_stall_until = complete + redirect_penalty
                    group_ends = True
                    branches += 1
                elif vkind == 4:  # direct unconditional branch
                    complete = ready + alu_latency
                    if outcomes is None:
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
                rob_append(complete)
                if on_commit is not None:
                    on_commit(instr, ea, taken, next_pc, regs, complete)
                # ---- end dispatch

                if 2 <= vkind <= 4:
                    branches_in_group += 1
                if group_ends:
                    break
        if fetched:
            fetch_cycles += 1
            if branches_in_group:
                bucket = branches_in_group if branches_in_group < 4 else 4
                fetch_branch_hist[bucket] += 1
            now += 1
            continue

        # idle: jump to the next event
        if now < fetch_stall_until:
            flush_stall_cycles += 1
        elif len(rob) - head >= rob_cap:
            rob_full_stalls += 1
        candidates = []
        if head < len(rob):
            candidates.append(rob[head])
        if now < fetch_stall_until:
            candidates.append(fetch_stall_until)
        if prefetcher is not None and len(prefetcher.queue):
            now += 1  # keep draining at full rate
            continue
        if not candidates:
            now += 1
            continue
        next_event = min(candidates)
        now = now + 1 if next_event <= now else next_event

    # write the locals back into the core / replay source
    core.cycle = now
    core._rob_head = head
    core.fetch_stall_until = fetch_stall_until
    core._fetch_block = fetch_block
    core.retired = retired
    core.done = True
    core.cond_branches = cond_branches
    core.branches = branches
    core.mispredicts = mispredicts
    core.fetch_cycles = fetch_cycles
    core.rob_full_stalls = rob_full_stalls
    core.flush_stall_cycles = flush_stall_cycles
    machine.seek(pos)
    return now

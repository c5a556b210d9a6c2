"""Cycle-stepped out-of-order core timing model.

A trace-driven approximation of the paper's 4-wide, 192-entry-ROB gem5 O3
baseline (Table II).  Per cycle the model retires up to ``width``
completed instructions in order, drains the prefetch queue at a bounded
rate, and fetches/dispatches up to ``width`` instructions:

* operand readiness is tracked per architectural register, so dependence
  chains serialise exactly as far as their producers' latencies demand;
* loads access the cache hierarchy when their operands are ready and
  complete after the returned latency -- this is the lever prefetching
  acts on;
* a mispredicted branch stalls fetch until the branch resolves (its own
  operands ready) plus a redirect penalty -- the flush bubble;
* a predicted-taken branch ends the fetch group (one taken redirect per
  cycle), which is what makes the Fig. 7 branches-per-fetch-cycle
  histogram meaningful;
* the ROB bounds in-flight instructions, recreating ROB-full stalls under
  long-latency misses.

The model is deliberately idle-cycle-skipping: when fetch cannot proceed
(flush bubble or full ROB) the clock jumps to the next event, which makes
memory-bound regions cheap to simulate without changing any outcome.

One method, :meth:`OutOfOrderCore._cycle_loop`, defines the pipeline step.
It runs with the core's state held in locals and writes it back when it
returns, so the public drivers differ only in where they stop:
:meth:`~OutOfOrderCore.step_cycle` after one step,
:meth:`~OutOfOrderCore.run_until` at a cycle bound or a retire mark, and
:meth:`~OutOfOrderCore.run` at the instruction budget.
"""

from repro._validate import require_ints
from repro.isa.opcodes import (
    IS_ALU as _IS_ALU,
    IS_BRANCH as _IS_BRANCH,
    IS_COND_BRANCH as _IS_COND_BRANCH,
    NUM_OPS as _NUM_OPS,
    Op,
)
from repro.memory.hierarchy import L1_LATENCY
from repro.prefetchers.base import Prefetcher as _BasePrefetcher

_FETCH_HIST_BUCKETS = 4

# dispatch class of every opcode, so the cycle loop picks an
# instruction's timing path with one int-indexed read
_ALU, _LOAD, _COND, _STORE, _JUMP, _JR, _MUL = range(7)
_DISPATCH_CLASS = tuple(
    _LOAD if op == Op.LOAD
    else _STORE if op == Op.STORE
    else _COND if _IS_COND_BRANCH[op]
    else _JR if op == Op.JR
    else _JUMP if _IS_BRANCH[op]
    else _MUL if op == Op.MUL
    else _ALU
    for op in range(_NUM_OPS)
)
# opcodes whose second source register gates readiness
_READS_RB = tuple(op == Op.STORE or _IS_ALU[op] for op in range(_NUM_OPS))

# "no bound" for the loop's stop cycle and retire mark
_NEVER = float("inf")


def _noop_hook(unbound, bound):
    """True when *bound* is the no-op base-class implementation of
    *unbound* -- lets the core skip the call entirely."""
    func = getattr(bound, "__func__", None)
    return func is unbound


def _bound_hook(prefetcher, name, base=_BasePrefetcher):
    """*prefetcher*'s bound ``name`` hook, or None when there is no
    prefetcher or the hook is *base*'s no-op."""
    if prefetcher is None:
        return None
    hook = getattr(prefetcher, name)
    if _noop_hook(getattr(base, name), hook):
        return None
    return hook


# Table II pipeline values no run varies; CoreConfig holds the rest
ROB_ENTRIES = 192
REDIRECT_PENALTY = 3      # flush bubble after a mispredict resolves
ALU_LATENCY = 1
MUL_LATENCY = 3
STORE_LATENCY = 1
PREFETCH_DRAIN_RATE = 2   # queued D-side prefetches issued per cycle


class CoreConfig:
    """Pipeline parameters a run varies (defaults = paper Table II).

    :class:`~repro.sim.config.SystemConfig` fills it: ``width`` is its
    own, ``block_bytes`` the hierarchy's line size and ``frontend`` its
    front-end mode.
    """

    def __init__(self, width=4, block_bytes=64, frontend="off"):
        # fail fast: a zero-wide pipeline makes the cycle loop stall
        # forever, a non-power-of-two line breaks fetch-block redirects
        require_ints("CoreConfig", (
            ("width", width), ("block_bytes", block_bytes),
        ))
        if block_bytes & (block_bytes - 1):
            raise ValueError(
                "CoreConfig.block_bytes must be a positive power of two, "
                "got %r" % (block_bytes,)
            )
        self.width = width
        self.block_bytes = block_bytes
        self.block_shift = block_bytes.bit_length() - 1
        from repro.frontend.config import FRONTEND_MODES
        if frontend not in FRONTEND_MODES:
            raise ValueError(
                "CoreConfig.frontend must be one of %s, got %r"
                % (", ".join(FRONTEND_MODES), frontend)
            )
        self.frontend = frontend


class OutOfOrderCore:
    """One core: functional machine + predictor + hierarchy + prefetcher."""

    def __init__(self, machine, hierarchy, predictor, confidence, btb,
                 prefetcher, config=None):
        self.machine = machine
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.confidence = confidence
        self.btb = btb
        self.prefetcher = prefetcher
        # Pre-bind prefetcher hooks, dropping ones that are base-class
        # no-ops: the "none" baseline and the miss-driven prefetchers
        # then pay zero per-instruction call overhead for unused events.
        self._pf_on_load = _bound_hook(prefetcher, "on_load")
        self._pf_on_store = _bound_hook(prefetcher, "on_store")
        self._pf_on_commit = _bound_hook(prefetcher, "on_commit")
        self._pf_on_branch_decode = _bound_hook(prefetcher,
                                                "on_branch_decode")
        self.config = config or CoreConfig()
        # fetch-block geometry follows the configured L1 line size (not a
        # hard-coded 64B shift) so non-default lines redirect correctly
        self._fetch_shift = self.config.block_shift
        # decoupled front end: None until bind_frontend() (and always
        # None with CoreConfig.frontend="off" -- that path is untouched)
        self.frontend = None
        self._if_on_commit = None
        self._if_on_branch_decode = None
        # pipeline state
        self.cycle = 0
        self.reg_ready = [0] * 32
        self.rob = []  # completion times, ring-buffer style
        self._rob_head = 0
        self.fetch_stall_until = 0
        self._fetch_block = -1
        # counters
        self.retired = 0
        self.budget = 0
        self.done = False
        self.mark_cycle = None  # step that reached run_until's retire mark
        self.cond_branches = 0
        self.branches = 0
        self.mispredicts = 0
        self.fetch_branch_hist = [0] * (_FETCH_HIST_BUCKETS + 1)
        self.fetch_cycles = 0
        self.rob_full_stalls = 0    # idle steps blocked by a full ROB
        self.flush_stall_cycles = 0  # idle steps inside a redirect bubble
        # tracing (None = "branch" category disabled)
        self._trace_branch = None

    def bind_tracer(self, tracer):
        """Cache the tracer's ``branch`` channel (None disables)."""
        self._trace_branch = (
            tracer.channel("branch") if tracer is not None else None
        )

    def bind_frontend(self, frontend):
        """Attach a :class:`~repro.frontend.DecoupledFrontEnd`; fetch
        then goes through its FTQ + L1-I demand path, and the I-side
        prefetcher's commit/decode hooks are pre-bound with the same
        no-op elision as the D-side ones."""
        self.frontend = frontend
        iprefetcher = frontend.iprefetcher
        self._if_on_commit = _bound_hook(iprefetcher, "on_commit")
        self._if_on_branch_decode = _bound_hook(iprefetcher,
                                                "on_branch_decode")

    # ------------------------------------------------------------------

    def start(self, budget):
        """Arm the core to retire *budget* instructions."""
        self.budget = budget
        self.done = False

    def step_cycle(self, now):
        """Advance one cycle at time *now*; return the next time this core
        has work to do (``now + 1`` while actively fetching)."""
        return self._cycle_loop(now, now + 1, _NEVER)

    def run(self, budget):
        """Run standalone until *budget* instructions retire; returns the
        cycle count."""
        self.start(budget)
        now = self._cycle_loop(self.cycle, _NEVER, _NEVER)
        self.cycle = now
        return now

    def run_until(self, now, stop_cycle, retire_mark=None):
        """Run from time *now* until completion or ``stop_cycle``.

        The driver for callers that need control back mid-run: the run
        loop (:func:`repro.sim.system.drive`), once per chunk, and the
        CMP scheduler, which runs each core in bursts.  It is the same
        loop as :meth:`run`, so the step sequence (and therefore every
        counter) is byte-identical to an uninterrupted run -- the bounds
        only decide *when* the caller gets control back.  With
        *retire_mark* the run also stops after the step at which
        ``retired`` reaches the mark, and that step's time is left in
        :attr:`mark_cycle`.
        """
        if self.done or now >= stop_cycle:
            return now
        return self._cycle_loop(
            now, stop_cycle, _NEVER if retire_mark is None else retire_mark)

    def _cycle_loop(self, now, stop_cycle, retire_mark):
        """The pipeline: step from time *now* until the core is done, the
        next step time reaches *stop_cycle*, or ``retired`` reaches
        *retire_mark*; at least one step always runs.  Returns the next
        time the core has work to do.

        Every piece of state a step touches lives in a local for the
        duration, and is written back on the way out (also when a hook
        raises).  Per step: retire up to ``width`` completed instructions
        in order, drain queued prefetches, tick the decoupled front end,
        then fetch and dispatch up to ``width`` instructions -- or, when
        nothing can be fetched, jump the clock to the next event.
        """
        cfg = self.config
        width = cfg.width
        rob_cap = ROB_ENTRIES
        redirect_penalty = REDIRECT_PENALTY
        alu_latency = ALU_LATENCY
        mul_latency = MUL_LATENCY
        store_latency = STORE_LATENCY
        drain_rate = PREFETCH_DRAIN_RATE
        fetch_shift = self._fetch_shift
        machine = self.machine
        machine_step = machine.step
        pc_of = machine.program.pc_of
        hierarchy = self.hierarchy
        l1_latency = L1_LATENCY
        h_load = hierarchy.load
        h_store = hierarchy.store
        h_oracle = hierarchy.access_oracle
        predictor = self.predictor
        predict = predictor.predict
        predictor_update = predictor.update
        confidence_update = self.confidence.update
        btb_lookup = self.btb.lookup
        btb_update = self.btb.update
        prefetcher = self.prefetcher
        is_perfect = prefetcher is not None and prefetcher.is_perfect
        # the prefetch queue's deque, probed by truth value every step
        pf_queue = ()
        if prefetcher is not None:
            pf_queue = prefetcher.queue._queue
            pf_drain = prefetcher.drain
        on_load = self._pf_on_load
        on_store = self._pf_on_store
        pf_on_commit = self._pf_on_commit
        pf_on_decode = self._pf_on_branch_decode
        if_on_commit = self._if_on_commit
        if_on_decode = self._if_on_branch_decode
        commit_hooks = pf_on_commit is not None or if_on_commit is not None
        frontend = self.frontend
        if frontend is None:
            demand_ifetch = hierarchy.ifetch
        else:
            demand_ifetch = frontend.demand_fetch
            frontend_tick = frontend.tick
            frontend_busy = frontend.busy
            frontend_redirect = frontend.redirect
        trace = self._trace_branch
        dispatch_class = _DISPATCH_CLASS
        reads_rb = _READS_RB
        hist_top = _FETCH_HIST_BUCKETS

        reg_ready = self.reg_ready
        rob = self.rob
        rob_append = rob.append
        head = self._rob_head
        retired = self.retired
        budget = self.budget
        done = self.done
        fetch_stall_until = self.fetch_stall_until
        fetch_block = self._fetch_block
        cond_branches = self.cond_branches
        branches = self.branches
        mispredicts = self.mispredicts
        fetch_branch_hist = self.fetch_branch_hist
        fetch_cycles = self.fetch_cycles
        rob_full_stalls = self.rob_full_stalls
        flush_stall_cycles = self.flush_stall_cycles

        try:
            while True:
                # retire (in order, up to width)
                limit = head + width
                rob_len = len(rob)
                if limit > rob_len:
                    limit = rob_len
                while head < limit and rob[head] <= now:
                    head += 1
                    retired += 1
                if head > 4096:  # compact the ring buffer
                    del rob[:head]
                    head = 0
                if retired >= budget:
                    done = True
                    next_time = now + 1
                    break

                # drain queued prefetches into the hierarchy
                if pf_queue:
                    pf_drain(hierarchy, now, drain_rate)

                # decoupled front end: the BPU run-ahead advances every
                # cycle, including I-miss and redirect stall cycles --
                # the decoupling
                if frontend is not None:
                    frontend_tick(now)

                # fetch / dispatch
                fetched = 0
                branches_in_group = 0
                if now >= fetch_stall_until:
                    # a group stops at the fetch width, a full ROB (the
                    # head only moves at retire) or the budget
                    in_flight = len(rob) - head
                    group = width
                    if rob_cap - in_flight < group:
                        group = rob_cap - in_flight
                    if budget - retired - in_flight < group:
                        group = budget - retired - in_flight
                    while fetched < group:
                        instr, taken, ea = machine_step()
                        pc = instr.pc
                        block = pc >> fetch_shift
                        if block != fetch_block:
                            fetch_block = block
                            ifetch_latency = demand_ifetch(pc, now)
                            if ifetch_latency > l1_latency:
                                fetch_stall_until = now + ifetch_latency
                        fetched += 1

                        # operands ready
                        op = instr.op
                        ready = now + 1
                        ra = instr.ra
                        if ra is not None and reg_ready[ra] > ready:
                            ready = reg_ready[ra]
                        rb = instr.rb
                        if (rb is not None and reads_rb[op]
                                and reg_ready[rb] > ready):
                            ready = reg_ready[rb]

                        group_ends = False
                        kind = dispatch_class[op]
                        if kind == _ALU:
                            complete = ready + alu_latency
                            rd = instr.rd
                            if rd is not None:
                                reg_ready[rd] = complete
                        elif kind == _LOAD:
                            if is_perfect:
                                latency = h_oracle(ea, ready)
                            else:
                                latency, hit = h_load(ea, ready)
                                if on_load is not None:
                                    on_load(pc, ea, hit, now)
                            complete = ready + latency
                            reg_ready[instr.rd] = complete
                        elif kind == _STORE:
                            if is_perfect:
                                h_oracle(ea, ready)
                            else:
                                h_store(ea, ready)
                                if on_store is not None:
                                    on_store(pc, ea, True, now)
                            complete = ready + store_latency
                        elif kind == _MUL:
                            complete = ready + mul_latency
                            rd = instr.rd
                            if rd is not None:
                                reg_ready[rd] = complete
                        else:
                            # predict, train, trigger B-Fetch, apply the
                            # flush penalty of a mispredict
                            complete = ready + alu_latency
                            branches += 1
                            branches_in_group += 1
                            group_ends = True
                            if kind == _COND:
                                history = predictor.history
                                predicted = predict(pc)
                                correct = predicted == taken
                                cond_branches += 1
                                if not correct:
                                    mispredicts += 1
                                if trace is not None:
                                    trace.emit("predict", now, pc=pc,
                                               taken=taken,
                                               predicted=predicted,
                                               correct=correct)
                                confidence_update(pc, history, correct, taken)
                                predictor_update(pc, taken)
                                target = pc + 4 * (instr.target - instr.index)
                                if pf_on_decode is not None:
                                    pf_on_decode(pc, predicted, target, now)
                                if if_on_decode is not None:
                                    if_on_decode(pc, predicted, target, now)
                                if frontend is not None and taken:
                                    # demand-train the BTB on executed
                                    # taken direct branches so the BPU
                                    # run-ahead walker can see them (off
                                    # mode keeps the BTB JR-only)
                                    btb_update(pc, target)
                                if not correct:
                                    fetch_stall_until = (complete
                                                         + redirect_penalty)
                                    if frontend is not None:
                                        frontend_redirect(machine.pc, now)
                                else:
                                    # predicted-taken ends the fetch group
                                    group_ends = predicted
                            elif kind == _JR:
                                actual_next = machine.pc
                                target = btb_lookup(pc)
                                btb_update(pc, actual_next)
                                correct = target == actual_next
                                # train the confidence estimator on
                                # indirect targets too, so the lookahead's
                                # path confidence reflects JR
                                # predictability
                                confidence_update(pc, predictor.history,
                                                  correct, True)
                                if pf_on_decode is not None:
                                    pf_on_decode(pc, True, target, now)
                                if if_on_decode is not None:
                                    if_on_decode(pc, True, target, now)
                                if not correct:
                                    mispredicts += 1
                                    fetch_stall_until = (complete
                                                         + redirect_penalty)
                                    if frontend is not None:
                                        frontend_redirect(actual_next, now)
                            else:
                                # direct unconditional: target known at
                                # decode, no mispredict
                                confidence_update(pc, predictor.history,
                                                  True, True)
                                target = pc + 4 * (instr.target - instr.index)
                                if frontend is not None:
                                    btb_update(pc, target)
                                if pf_on_decode is not None:
                                    pf_on_decode(pc, True, target, now)
                                if if_on_decode is not None:
                                    if_on_decode(pc, True, target, now)
                        rob_append(complete)
                        if commit_hooks:
                            # every on_commit reads next_pc for branches
                            # only
                            next_pc = (pc_of(machine.index)
                                       if _IS_BRANCH[op] else None)
                            if pf_on_commit is not None:
                                pf_on_commit(instr, ea, taken, next_pc,
                                             machine.regs, complete)
                            if if_on_commit is not None:
                                if_on_commit(instr, ea, taken, next_pc,
                                             machine.regs, complete)
                        if group_ends:
                            break
                if fetched:
                    fetch_cycles += 1
                    if branches_in_group:
                        if branches_in_group > hist_top:
                            branches_in_group = hist_top
                        fetch_branch_hist[branches_in_group] += 1
                    next_time = now + 1
                else:
                    # idle: jump to the next event
                    if now < fetch_stall_until:
                        flush_stall_cycles += 1
                    elif len(rob) - head >= rob_cap:
                        rob_full_stalls += 1
                    # queued prefetches keep draining, and a busy front
                    # end keeps ticking, at full rate
                    next_time = now + 1
                    if not pf_queue and (frontend is None
                                         or not frontend_busy()):
                        # the earlier of the ROB head's completion and
                        # the end of the stall
                        event = next_time
                        if head < len(rob):
                            event = rob[head]
                            if now < fetch_stall_until < event:
                                event = fetch_stall_until
                        elif now < fetch_stall_until:
                            event = fetch_stall_until
                        if event > next_time:
                            next_time = event
                if next_time >= stop_cycle or retired >= retire_mark:
                    break
                now = next_time
        finally:
            self._rob_head = head
            self.retired = retired
            self.done = done
            self.fetch_stall_until = fetch_stall_until
            self._fetch_block = fetch_block
            self.cond_branches = cond_branches
            self.branches = branches
            self.mispredicts = mispredicts
            self.fetch_cycles = fetch_cycles
            self.rob_full_stalls = rob_full_stalls
            self.flush_stall_cycles = flush_stall_cycles
        if retired >= retire_mark:
            self.mark_cycle = now
        return next_time

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Pipeline state as a JSON-safe structure (machine excluded --
        the functional core snapshots itself)."""
        return {
            "cycle": self.cycle,
            "reg_ready": list(self.reg_ready),
            # store the live window only; restoring with head 0 is
            # behaviour-neutral (the ring compaction is itself neutral)
            "rob": list(self.rob[self._rob_head:]),
            "fetch_stall_until": self.fetch_stall_until,
            "fetch_block": self._fetch_block,
            "retired": self.retired,
            "budget": self.budget,
            "done": self.done,
            "cond_branches": self.cond_branches,
            "branches": self.branches,
            "mispredicts": self.mispredicts,
            "fetch_branch_hist": list(self.fetch_branch_hist),
            "fetch_cycles": self.fetch_cycles,
            "rob_full_stalls": self.rob_full_stalls,
            "flush_stall_cycles": self.flush_stall_cycles,
        }

    def restore(self, state):
        """Restore pipeline state from :meth:`snapshot` output."""
        self.cycle = state["cycle"]
        self.reg_ready = [int(value) for value in state["reg_ready"]]
        self.rob = list(state["rob"])
        self._rob_head = 0
        self.fetch_stall_until = state["fetch_stall_until"]
        self._fetch_block = state["fetch_block"]
        self.retired = state["retired"]
        self.budget = state["budget"]
        self.done = state["done"]
        self.cond_branches = state["cond_branches"]
        self.branches = state["branches"]
        self.mispredicts = state["mispredicts"]
        self.fetch_branch_hist = list(state["fetch_branch_hist"])
        self.fetch_cycles = state["fetch_cycles"]
        self.rob_full_stalls = state["rob_full_stalls"]
        self.flush_stall_cycles = state["flush_stall_cycles"]

    @property
    def ipc(self):
        return self.retired / self.cycle if self.cycle else 0.0

    @property
    def mispredict_rate(self):
        return self.mispredicts / self.cond_branches if self.cond_branches else 0.0

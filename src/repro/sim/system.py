"""Single-core system assembly, run-result records, and observability.

Every :class:`System` carries a :class:`~repro.obs.StatsRegistry` that
*adopts* the component counters under hierarchical dotted names
(``core.mispredicts``, ``mem.l1d.misses``, ``pf.bfetch.issued``) and
derives the standard prefetching ratios (accuracy / coverage /
timeliness) lazily.  The registry is a passive view: components keep
bumping plain ints, so building it costs nothing per simulated
instruction and :class:`RunResult` payloads stay byte-identical whether
or not anybody ever reads the registry.

Tracing (``REPRO_TRACE``, see :mod:`repro.obs.trace`) is wired the same
way: a :class:`~repro.obs.Tracer` -- explicit or from the environment --
is bound into the core, hierarchy and prefetcher at assembly time, and
``None`` channels keep the hot paths branch-cheap when tracing is off.
"""

from repro.branch.btb import BranchTargetBuffer
from repro.branch.confidence import CompositeConfidenceEstimator
from repro.checkpoint import CheckpointError
from repro.cpu.functional import Machine
from repro.cpu.ooo import OutOfOrderCore
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import StatsRegistry, Tracer
from repro.sim.config import (
    SystemConfig,
    make_iprefetcher_for,
    make_prefetcher,
)

# chunk length for interrupt polling when neither a checkpointer nor a
# sanitizer dictates a cadence
_DEFAULT_CHUNK_CYCLES = 65536


class RunResult:
    """Everything a run produced, JSON-serialisable for the result cache."""

    def __init__(self, data):
        self.data = data

    def __getattr__(self, name):
        # Dunder (and "data") lookups must fail fast with AttributeError:
        # pickle/copy/inspect probe names like __getstate__/__deepcopy__
        # through getattr, and before __init__ runs (unpickling) a probe
        # for "data" itself would recurse through this hook forever.
        if name.startswith("__") or name == "data":
            raise AttributeError(name)
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name)

    def as_dict(self):
        return dict(self.data)

    @classmethod
    def from_core(cls, core, workload_name, prefetcher_name):
        hierarchy = core.hierarchy
        prefetcher = core.prefetcher
        data = {
            "workload": workload_name,
            "prefetcher": prefetcher_name,
            "instructions": core.retired,
            "cycles": core.cycle,
            "ipc": core.ipc,
            "cond_branches": core.cond_branches,
            "branches": core.branches,
            "mispredicts": core.mispredicts,
            "mispredict_rate": core.mispredict_rate,
            "fetch_branch_hist": list(core.fetch_branch_hist),
            "fetch_cycles": core.fetch_cycles,
            "l1d": hierarchy.l1d.stats.as_dict(),
            "l2": hierarchy.l2.stats.as_dict(),
            "llc": hierarchy.llc.stats.as_dict(),
            "dram_accesses": hierarchy.dram.accesses,
            "prefetch": prefetcher.stats.as_dict(),
        }
        if hasattr(prefetcher, "mean_lookahead_depth"):
            data["mean_lookahead_depth"] = prefetcher.mean_lookahead_depth
            data["brtc_hit_rate"] = prefetcher.brtc.hit_rate
            data["mht_hit_rate"] = prefetcher.mht.hit_rate
            data["filter_blocked"] = prefetcher.filter.blocked
        frontend = core.frontend
        if frontend is not None:
            # front-end payload blocks are gated so frontend="off" runs
            # stay byte-identical to pre-front-end results
            data["l1i"] = hierarchy.l1i.stats.as_dict()
            data["frontend"] = frontend.stats_dict()
            data["iprefetcher"] = frontend.iprefetcher.name
            data["iprefetch"] = frontend.iprefetcher.stats.as_dict()
        return cls(data)

    def __repr__(self):
        return "RunResult(%s/%s: ipc=%.3f)" % (
            self.data.get("workload"),
            self.data.get("prefetcher"),
            self.data.get("ipc", 0.0),
        )


def build_registry(core, hierarchy, prefetcher, registry=None, core_prefix=""):
    """Adopt a system's component counters into a stats registry.

    :param core_prefix: optional disambiguator for CMP systems (e.g.
        ``"core0."``) so several cores can share one registry.
    :returns: the (possibly freshly created) registry.
    """
    reg = registry if registry is not None else StatsRegistry()
    p = core_prefix

    reg.adopt(p + "core", core, fields=(
        "retired", "cycle", "branches", "cond_branches", "mispredicts",
        "fetch_cycles", "flush_stall_cycles",
    ), descs={
        "retired": "instructions retired",
        "cycle": "cycles simulated",
        "mispredicts": "mispredicted branches (cond + indirect)",
        "fetch_cycles": "cycles with at least one fetched instruction",
        "flush_stall_cycles": "idle steps spent in redirect bubbles",
    })
    reg.register(_adopted(p + "core.rob.full_stalls", core,
                          "rob_full_stalls",
                          "idle steps blocked by a full ROB"))
    reg.register(_adopted(p + "core.fetch.branches_per_cycle", core,
                          "fetch_branch_hist",
                          "Fig. 7 branches-per-fetch-cycle histogram"))
    reg.ratio(p + "core.ipc",
              lambda: core.retired, lambda: max(core.cycle, 1),
              "instructions per cycle")
    reg.ratio(p + "core.mispredict_rate",
              lambda: core.mispredicts,
              lambda: core.cond_branches,
              "mispredicts per conditional branch")

    for level_name, cache in (("l1i", hierarchy.l1i), ("l1d", hierarchy.l1d),
                              ("l2", hierarchy.l2), ("llc", hierarchy.llc)):
        stats = cache.stats
        reg.adopt(p + "mem." + level_name, stats)
        reg.ratio(p + "mem.%s.miss_rate" % level_name,
                  _attr(stats, "misses"), _attr(stats, "accesses"),
                  "demand misses per access")
    dram = hierarchy.dram
    reg.adopt(p + "mem.dram", dram,
              fields=("accesses", "prefetch_accesses", "busy_cycles"),
              descs={"busy_cycles": "channel occupancy in cycles"})

    pf = p + "pf.%s" % prefetcher.name
    stats = prefetcher.stats
    reg.adopt(pf, stats)
    reg.ratio(pf + ".accuracy",
              lambda: stats.useful + stats.late,
              lambda: stats.useful + stats.late + stats.useless,
              "demanded fraction of resolved prefetches")
    reg.ratio(pf + ".timeliness",
              lambda: stats.useful,
              lambda: stats.useful + stats.late,
              "in-time fraction of demanded prefetches")
    l1d_stats = hierarchy.l1d.stats
    reg.ratio(pf + ".coverage",
              lambda: stats.useful + stats.late,
              lambda: stats.useful + stats.late + l1d_stats.misses,
              "covered fraction of would-be demand misses")
    if hasattr(prefetcher, "brtc"):  # B-Fetch engine extras
        reg.adopt(pf, prefetcher,
                  fields=("walks", "total_depth", "candidates", "filtered"),
                  descs={
                      "walks": "lookahead walks started",
                      "total_depth": "basic blocks walked in total",
                      "candidates": "MHT slots considered for prefetch",
                      "filtered": "candidates suppressed by the filter",
                  })
        reg.register(_adopted(pf + ".lookahead_depth", prefetcher,
                              "depth_hist",
                              "basic blocks walked per lookahead"))
        reg.ratio(pf + ".mean_lookahead_depth",
                  lambda: prefetcher.total_depth,
                  lambda: prefetcher.walks,
                  "average lookahead depth (paper reports ~8)")
        brtc, mht = prefetcher.brtc, prefetcher.mht
        reg.ratio(pf + ".brtc.hit_rate",
                  _attr(brtc, "hits"), _attr(brtc, "lookups"),
                  "Branch Trace Cache hit rate")
        reg.ratio(pf + ".mht.hit_rate",
                  _attr(mht, "hits"), _attr(mht, "lookups"),
                  "Memory History Table hit rate")
        reg.derived(pf + ".filter.blocked",
                    lambda: prefetcher.filter.blocked,
                    "prefetches blocked by the per-load filter")

    frontend = core.frontend
    if frontend is not None:
        for attr, desc in (
            ("ftq_enqueued", "fetch blocks enqueued by the BPU walker"),
            ("ftq_hits", "demand fetches matching the FTQ head"),
            ("ftq_mismatches", "demand fetches diverging from the FTQ"),
            ("ftq_empty", "demand fetches finding the FTQ empty"),
            ("ftq_flushes", "mismatch-driven FTQ flushes"),
            ("redirects", "mispredict-resolution resteers"),
            ("bpu_stalls", "ticks with a stalled run-ahead walker"),
        ):
            name = attr[4:] if attr.startswith("ftq_") else attr
            reg.register(_adopted(p + "core.ftq." + name, frontend,
                                  attr, desc))
        reg.ratio(p + "core.ftq.mean_occupancy",
                  lambda: frontend.occupancy_sum,
                  lambda: max(frontend.occupancy_samples, 1),
                  "average FTQ occupancy in fetch blocks")
        predecoder = frontend.predecoder
        reg.adopt(p + "core.predecode", predecoder,
                  fields=("blocks", "shadow_fills", "shadow_hits"),
                  descs={
                      "blocks": "L1-I fills scanned by the predecoder",
                      "shadow_fills": "shadow-branch BTB entries installed",
                      "shadow_hits": "walker discoveries via a shadow fill",
                  })
        reg.ratio(p + "core.predecode.shadow_hit_rate",
                  _attr(predecoder, "shadow_hits"),
                  _attr(predecoder, "shadow_fills"),
                  "walker-used fraction of shadow fills")
        iprefetcher = frontend.iprefetcher
        ipf = p + "pf.ifetch.%s" % iprefetcher.name
        istats = iprefetcher.stats
        reg.adopt(ipf, istats)
        l1i_stats = hierarchy.l1i.stats
        reg.ratio(ipf + ".coverage",
                  lambda: l1i_stats.prefetch_useful,
                  lambda: l1i_stats.prefetch_useful + l1i_stats.misses,
                  "covered fraction of would-be L1-I demand misses")
        if hasattr(iprefetcher, "walks"):  # B-Fetch-I walk extras
            reg.adopt(ipf, iprefetcher, fields=("walks", "total_depth"),
                      descs={
                          "walks": "I-side lookahead walks started",
                          "total_depth": "basic blocks walked in total",
                      })
    return reg


def _adopted(name, obj, attr, desc):
    from repro.obs.registry import AdoptedStat
    return AdoptedStat(name, obj, attr, desc)


def _attr(obj, attr):
    """Late-bound attribute getter for Ratio stats."""
    return lambda: getattr(obj, attr)


class System:
    """A single simulated core with its private L2 and (by default)
    private LLC slice, built from a :class:`~repro.sim.SystemConfig`.

    :param workload: a :class:`~repro.workloads.Workload` (program +
        initial memory image + name).
    :param config: system configuration; Table II defaults when None.
    :param llc: optional shared LLC (CMP mode).
    :param dram: optional shared DRAM (CMP mode).
    :param tracer: optional :class:`~repro.obs.Tracer`; when None the
        ``REPRO_TRACE`` environment decides (unset = tracing off).
    :param registry: optional shared :class:`~repro.obs.StatsRegistry`
        (CMP mode); a private one is built when None.
    :param stats_prefix: name prefix for this system's stats when
        sharing a registry (e.g. ``"core0."``).
    """

    def __init__(self, workload, config=None, llc=None, dram=None,
                 tracer=None, registry=None, stats_prefix=""):
        self.config = config or SystemConfig()
        self.workload = workload
        self.machine = Machine(workload.program, dict(workload.memory))
        self.predictor = self.config.make_predictor()
        self.confidence = CompositeConfidenceEstimator()
        self.btb = BranchTargetBuffer()
        self.prefetcher = make_prefetcher(self.config)
        self.hierarchy = MemoryHierarchy(
            self.config.hierarchy,
            llc=llc,
            dram=dram,
            pf_feedback=self.prefetcher.feedback,
        )
        self.hierarchy.l1d.eviction_listeners.append(
            self.prefetcher.on_l1d_eviction
        )
        if hasattr(self.prefetcher, "attach"):
            self.prefetcher.attach(self.predictor, self.confidence)
        self.core = OutOfOrderCore(
            self.machine,
            self.hierarchy,
            self.predictor,
            self.confidence,
            self.btb,
            self.prefetcher,
            self.config.core,
        )
        # decoupled front end (FTQ + predecode + I-side prefetch); with
        # frontend="off" nothing here runs and the system is assembled
        # exactly as before
        if self.config.frontend != "off":
            from repro.frontend import DecoupledFrontEnd
            iprefetcher = make_iprefetcher_for(self.config)
            if hasattr(iprefetcher, "attach"):
                iprefetcher.attach(self.predictor, self.confidence)
            self.core.bind_frontend(DecoupledFrontEnd(
                self.config.frontend_cfg,
                self.hierarchy,
                self.predictor,
                self.btb,
                self.machine.program,
                iprefetcher,
                self.config.core,
            ))
        # observability: tracer channels bound once at assembly; the
        # registry passively adopts every component's counters
        self.tracer = tracer if tracer is not None else Tracer.from_env()
        self.core.bind_tracer(self.tracer)
        self.hierarchy.bind_tracer(self.tracer)
        self.prefetcher.bind_tracer(self.tracer)
        if self.core.frontend is not None:
            self.core.frontend.bind_tracer(self.tracer)
        self.stats = build_registry(
            self.core, self.hierarchy, self.prefetcher,
            registry=registry, core_prefix=stats_prefix,
        )

    def run(self, instructions, checkpointer=None, sanitizer=None,
            interrupt=None, corrupt_at=None):
        """Run to completion of *instructions* and return a
        :class:`RunResult`.

        When a tracer with an output path is active, the buffered trace
        is flushed (atomically) after the run completes.

        :param checkpointer: optional
            :class:`~repro.checkpoint.Checkpointer`; an existing valid
            checkpoint is resumed, the state is re-saved every
            ``checkpointer.every`` cycles, and the checkpoint is cleared
            on completion.
        :param sanitizer: optional :class:`~repro.sanitize.Sanitizer`
            whose invariant checks run at its configured cadence.
        :param interrupt: optional
            :class:`~repro.checkpoint.InterruptFlag`; when it trips, the
            latest state is checkpointed, the trace is flushed, and the
            deferred signal is re-raised.
        :param corrupt_at: cycle at which a deterministic state
            corruption is injected (``corrupt-state`` fault testing).

        With none of the optional collaborators active this takes the
        original tight ``core.run`` path -- checkpoint support costs
        nothing when it is off.
        """
        chunked = (
            checkpointer is not None
            or interrupt is not None
            or corrupt_at is not None
            or (sanitizer is not None and sanitizer.active)
        )
        if not chunked:
            self.core.run(instructions)
        else:
            self._run_chunked(instructions, checkpointer, sanitizer,
                              interrupt, corrupt_at)
        if self.tracer is not None:
            self.tracer.flush()
        return RunResult.from_core(
            self.core, self.workload.name, self.config.prefetcher
        )

    def _run_chunked(self, instructions, checkpointer, sanitizer,
                     interrupt, corrupt_at):
        """The checkpoint/sanitizer driver: the core's one cycle loop,
        entered through :meth:`OutOfOrderCore.run_until` once per chunk,
        so the step sequence is that of :meth:`OutOfOrderCore.run`.
        Chunk boundaries only decide when snapshots, checks and
        interrupt polls happen -- every simulated outcome is
        byte-identical to the uninterrupted fast path."""
        core = self.core
        if checkpointer is not None:
            loaded = checkpointer.load()
            if loaded is not None:
                state, _cycle = loaded
                try:
                    self.restore(state)
                except CheckpointError:
                    # stale checkpoint from another configuration: drop
                    # it and start clean rather than resuming garbage
                    checkpointer.clear()
        core.start(instructions)
        chunk = _DEFAULT_CHUNK_CYCLES
        if checkpointer is not None:
            chunk = min(chunk, checkpointer.every)
        if sanitizer is not None and sanitizer.active:
            chunk = min(chunk, sanitizer.interval)
        if corrupt_at is not None:
            chunk = min(chunk, max(1, corrupt_at))
        now = core.cycle
        corrupted = False
        while not core.done:
            now = core.run_until(now, now + chunk)
            core.cycle = now
            if corrupt_at is not None and not corrupted and now >= corrupt_at:
                from repro.resilience.faults import apply_state_corruption
                apply_state_corruption(self)
                corrupted = True
            if sanitizer is not None and sanitizer.active:
                sanitizer.check_system(self, now)
            if checkpointer is not None and not core.done \
                    and checkpointer.due(now):
                checkpointer.save(self.snapshot(), now)
            if interrupt is not None and interrupt:
                if checkpointer is not None and not core.done:
                    checkpointer.save(self.snapshot(), now)
                if self.tracer is not None:
                    self.tracer.flush()
                interrupt.raise_pending()
        core.cycle = now
        if checkpointer is not None:
            checkpointer.clear()  # finished: a resume would be stale

    # ------------------------------------------------------------------
    # checkpoint/restore

    def fingerprint(self):
        """Identity of this assembly: workload name + config key.

        Stored inside every snapshot so a checkpoint can never be
        restored into a differently-configured system.
        """
        return {
            "workload": self.workload.name,
            "config": list(self.config.key()),
        }

    def snapshot(self, include_shared=True):
        """Complete simulation state as a JSON-safe structure.

        :param include_shared: forwarded to
            :meth:`~repro.memory.MemoryHierarchy.snapshot`; CMP systems
            snapshot the shared LLC/DRAM once at the top level.
        """
        state = self.fingerprint()
        state.update({
            "machine": self.machine.snapshot(),
            "core": self.core.snapshot(),
            "predictor": self.predictor.snapshot(),
            "confidence": self.confidence.snapshot(),
            "btb": self.btb.snapshot(),
            "prefetcher": self.prefetcher.snapshot(),
            "hierarchy": self.hierarchy.snapshot(
                include_shared=include_shared),
        })
        if self.core.frontend is not None:
            state["frontend"] = self.core.frontend.snapshot()
        return state

    def restore(self, state):
        """Restore every component from :meth:`snapshot` output.

        Raises :class:`~repro.checkpoint.CheckpointError` when the
        snapshot's fingerprint (workload + config key) does not match
        this system.
        """
        expected = self.fingerprint()
        found = {"workload": state.get("workload"),
                 "config": state.get("config")}
        if found != expected:
            raise CheckpointError(
                "checkpoint fingerprint mismatch: saved %r, system is %r"
                % (found, expected)
            )
        self.machine.restore(state["machine"])
        self.core.restore(state["core"])
        self.predictor.restore(state["predictor"])
        self.confidence.restore(state["confidence"])
        self.btb.restore(state["btb"])
        self.prefetcher.restore(state["prefetcher"])
        self.hierarchy.restore(state["hierarchy"])
        if self.core.frontend is not None:
            self.core.frontend.restore(state["frontend"])

"""Three-level cache hierarchy with a shared LLC and DRAM behind it.

Latencies follow the paper's Table II and stack on the way down: an L1 hit
costs 2 cycles, an L2 hit 2+10, an LLC hit 2+10+20, and DRAM adds its own
200-cycle latency plus channel queueing.  Prefetches fill the full path
(LLC, L2, L1D) and occupy an L1 line immediately with a future ``ready``
time, so pollution and lateness are both modelled.

For multiprogrammed (CMP) runs, one :class:`~repro.memory.Cache` LLC and
one :class:`~repro.memory.DramModel` are shared across the per-core
hierarchies, which is where the inter-application contention the paper
studies comes from.
"""

from repro._validate import require_ints
from repro.memory.cache import Cache
from repro.memory.dram import DramModel


# Table II values no run varies; HierarchyConfig holds the rest
L1I_SIZE = 64 * 1024
L1I_ASSOC = 8
L1_LATENCY = 2         # L1I and L1D hit
L2_SIZE = 256 * 1024
L2_ASSOC = 8
L2_LATENCY = 10
LLC_LATENCY = 20
IMSHR_ENTRIES = 4      # I-side demand MSHRs (front end only)


class HierarchyConfig:
    """Cache geometry and latency knobs (defaults = paper Table II)."""

    def __init__(
        self,
        l1d_size=64 * 1024,
        l1d_assoc=8,
        llc_size_per_core=2 * 1024 * 1024,
        llc_assoc=16,
        dram_latency=200,
        # Table II's 12.8GB/s controller at the ~2GHz core clock implied
        # by the 200-cycle (~100ns) DRAM latency = 6.4B/cycle = one 64B
        # line per 10 core cycles
        dram_cycles_per_transfer=10,
        block_bytes=64,
        mshr_entries=8,
        llc_policy="lru",
    ):
        # fail fast on non-positive geometry/latency knobs: a zero-cycle
        # latency or an empty cache silently warps every downstream stat
        require_ints("HierarchyConfig", (
            ("l1d_size", l1d_size), ("l1d_assoc", l1d_assoc),
            ("llc_size_per_core", llc_size_per_core),
            ("llc_assoc", llc_assoc),
            ("dram_latency", dram_latency),
            ("block_bytes", block_bytes),
            ("mshr_entries", mshr_entries),
        ))
        # zero is legal here: it disables transfer serialisation
        # (infinite DRAM bandwidth), which microbenchmarks rely on
        require_ints("HierarchyConfig", (
            ("dram_cycles_per_transfer", dram_cycles_per_transfer),
        ), minimum=0)
        if llc_policy != "lru":
            # the default needs no policy object (make_llc), so only a
            # different name loads the policy module to check it
            from repro.memory.replacement import POLICIES
            if not isinstance(llc_policy, str) or llc_policy not in POLICIES:
                raise ValueError(
                    "HierarchyConfig.llc_policy must be one of %s, got %r"
                    % (", ".join(sorted(POLICIES)), llc_policy)
                )
        self.l1d_size = l1d_size
        self.l1d_assoc = l1d_assoc
        self.llc_size_per_core = llc_size_per_core
        self.llc_assoc = llc_assoc
        self.dram_latency = dram_latency
        self.dram_cycles_per_transfer = dram_cycles_per_transfer
        self.block_bytes = block_bytes
        self.mshr_entries = mshr_entries
        self.llc_policy = llc_policy

    def make_llc(self, num_cores=1):
        """Build the (shared) last-level cache for *num_cores* cores."""
        policy = None
        if self.llc_policy != "lru":
            from repro.memory.replacement import make_policy
            policy = make_policy(self.llc_policy)
        return Cache(
            "LLC",
            self.llc_size_per_core * num_cores,
            self.llc_assoc,
            self.block_bytes,
            policy=policy,
        )

    def make_dram(self):
        return DramModel(self.dram_latency, self.dram_cycles_per_transfer)


class MemoryHierarchy:
    """Per-core L1I/L1D/L2 backed by a (possibly shared) LLC and DRAM.

    :param config: :class:`HierarchyConfig`.
    :param llc: shared LLC cache; created privately when None.
    :param dram: shared DRAM model; created privately when None.
    :param pf_feedback: optional callable ``fn(meta, outcome)`` invoked when
        a prefetched line is first demanded (outcome "useful"/"late") or
        evicted untouched (outcome "useless"); the system points this at
        the active prefetcher's feedback hook.
    """

    def __init__(self, config=None, llc=None, dram=None, pf_feedback=None):
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.l1i = Cache("L1I", L1I_SIZE, L1I_ASSOC, cfg.block_bytes)
        self.l1d = Cache("L1D", cfg.l1d_size, cfg.l1d_assoc, cfg.block_bytes)
        self.l2 = Cache("L2", L2_SIZE, L2_ASSOC, cfg.block_bytes)
        self.llc = llc if llc is not None else cfg.make_llc(1)
        self.dram = dram if dram is not None else cfg.make_dram()
        self.pf_feedback = pf_feedback
        self.l1d.eviction_listeners.append(self._on_l1d_eviction)
        self._block_mask = ~(cfg.block_bytes - 1)
        # demand-miss MSHRs: bounded memory-level parallelism.  Prefetches
        # run through the engine's own request queue instead (the paper's
        # 100-entry prefetch queue), which is precisely why a prefetcher
        # can stream data faster than the demand window can expose misses.
        self._mshr = [0] * cfg.mshr_entries
        # I-side demand MSHRs, used only by the decoupled front end's
        # ifetch_demand() path; the legacy ifetch() path stays MSHR-free
        self._imshr = [0] * IMSHR_ENTRIES
        # tracing: channels are None when their category is disabled, so
        # the demand path pays at most one identity test per event site
        self._trace_cache = None
        self._trace_feedback = None
        self._now = 0  # last observed cycle, for eviction-time feedback

    def bind_tracer(self, tracer):
        """Cache the tracer's ``cache``/``feedback`` channels."""
        if tracer is None:
            self._trace_cache = None
            self._trace_feedback = None
        else:
            self._trace_cache = tracer.channel("cache")
            self._trace_feedback = tracer.channel("feedback")

    # ------------------------------------------------------------------
    # internal helpers

    def _on_l1d_eviction(self, addr, line):
        if line.prefetched and not line.used:
            if self.pf_feedback is not None:
                self.pf_feedback(line.meta, "useless")
            trace = self._trace_feedback
            if trace is not None:
                trace.emit("outcome", self._now, outcome="useless",
                           addr=addr)

    def _fill_below_l1(self, addr, now, demand):
        """Serve an L1 miss from L2, the LLC or DRAM; return the latency
        added below L1.

        Each lower level is probed once and, on a miss, allocated in the
        same call.  *demand* is True for a demand miss (an L2 hit also
        refreshes the block in the shared LLC, and DRAM serves it ahead
        of prefetches), False for a prefetch, and None for the perfect
        prefetcher, which never reaches the DRAM channel.
        """
        if self.l2.probe_allocate(addr):
            if demand:
                self.llc.access(addr, now)  # keep shared-LLC LRU warm
            return L2_LATENCY
        latency = L2_LATENCY + LLC_LATENCY
        if self.llc.probe_allocate(addr) or demand is None:
            return latency
        return latency + self.dram.access(now, demand)

    # ------------------------------------------------------------------
    # demand interface

    def load(self, addr, now, pc=None):
        """Demand load; returns ``(latency, l1_hit)``.

        A hit on an in-flight prefetched line waits for its ``ready`` cycle
        (a *late* prefetch -- partial benefit, counted separately).
        """
        self._now = now
        line = self.l1d.access(addr, now)
        if line is not None:
            latency = L1_LATENCY
            if line.ready > now:
                latency += line.ready - now
                self.l1d.stats.late_hits += 1
                if line.prefetched and not line.used:
                    line.used = True
                    self.l1d.stats.prefetch_useful += 1
                    if self.pf_feedback is not None:
                        self.pf_feedback(line.meta, "late")
                    trace = self._trace_feedback
                    if trace is not None:
                        trace.emit("outcome", now, outcome="late",
                                   addr=addr, wait=line.ready - now)
            elif line.prefetched and not line.used:
                line.used = True
                self.l1d.stats.prefetch_useful += 1
                if self.pf_feedback is not None:
                    self.pf_feedback(line.meta, "useful")
                trace = self._trace_feedback
                if trace is not None:
                    trace.emit("outcome", now, outcome="useful", addr=addr)
            return latency, True
        # demand miss: allocate an MSHR (wait for one if all are busy)
        mshr = self._mshr
        earliest = min(mshr)
        start = now if now > earliest else earliest
        miss_latency = self._fill_below_l1(addr, start, True)
        mshr[mshr.index(earliest)] = start + miss_latency
        latency = (start - now) + L1_LATENCY + miss_latency
        self.l1d.fill(addr, now)
        trace = self._trace_cache
        if trace is not None:
            trace.emit("fill", now, level="L1D", addr=addr,
                       latency=latency, demand=True)
        return latency, False

    def access_oracle(self, addr, now):
        """Perfect-prefetcher access: keeps cache contents warm but
        bypasses MSHR and DRAM-channel accounting.

        The Fig. 1 oracle makes every access "complete as if it were a
        first-level cache hit"; letting it also saturate the modelled
        DRAM channel would leak impossible queueing delays into the
        instruction-fetch path.
        """
        if self.l1d.access(addr, now) is None:
            self._fill_below_l1(addr, now, None)
            self.l1d.fill(addr, now)
        return L1_LATENCY

    def store(self, addr, now, pc=None):
        """Demand store (write-allocate); returns ``(latency, l1_hit)``.

        The returned latency models occupancy, not commit stalling -- the
        timing core drains stores through a store buffer.  The written
        line is marked dirty; its eventual eviction is counted as a
        writeback (statistical: writeback bandwidth is not charged to the
        channel, see DESIGN.md non-goals).
        """
        result = self.load(addr, now, pc)
        line = self.l1d.lookup(addr)
        if line is not None:
            line.dirty = True
        return result

    def ifetch(self, addr, now):
        """Instruction fetch for one block; returns latency."""
        line = self.l1i.access(addr, now)
        if line is not None:
            if line.ready > now:
                self.l1i.stats.late_hits += 1
                if line.prefetched and not line.used:
                    line.used = True
                    self.l1i.stats.prefetch_useful += 1
                return L1_LATENCY + (line.ready - now)
            if line.prefetched and not line.used:
                line.used = True
                self.l1i.stats.prefetch_useful += 1
            return L1_LATENCY
        latency = L1_LATENCY + self._fill_below_l1(addr, now, True)
        self.l1i.fill(addr, now)
        return latency

    def ifetch_demand(self, addr, now):
        """Instruction fetch through the I-MSHRs; ``(latency, l1_hit)``.

        The decoupled front end's demand path: unlike :meth:`ifetch`
        it reports hit/miss (the predecoder only scans on fills) and
        bounds I-side memory-level parallelism with its own MSHR file,
        so a burst of FTQ-driven fills cannot overlap without limit.
        """
        self._now = now
        line = self.l1i.access(addr, now)
        if line is not None:
            latency = L1_LATENCY
            if line.ready > now:
                latency += line.ready - now
                self.l1i.stats.late_hits += 1
                if line.prefetched and not line.used:
                    line.used = True
                    self.l1i.stats.prefetch_useful += 1
            elif line.prefetched and not line.used:
                line.used = True
                self.l1i.stats.prefetch_useful += 1
            return latency, True
        imshr = self._imshr
        earliest = min(imshr)
        start = now if now > earliest else earliest
        miss_latency = self._fill_below_l1(addr, start, True)
        imshr[imshr.index(earliest)] = start + miss_latency
        latency = (start - now) + L1_LATENCY + miss_latency
        self.l1i.fill(addr, now)
        trace = self._trace_cache
        if trace is not None:
            trace.emit("fill", now, level="L1I", addr=addr,
                       latency=latency, demand=True)
        return latency, False

    def prefetch_instr(self, addr, now):
        """Prefetch the instruction block holding *addr* into the L1I
        (B-Fetch-I, the paper's instruction-prefetching future work)."""
        l1i = self.l1i
        block = addr >> l1i.block_shift
        if block in l1i.sets[block & l1i._set_mask]:
            return False
        ready = now + self._fill_below_l1(addr, now, False)
        l1i.fill(addr, now, prefetched=True, ready=ready)
        return True

    # ------------------------------------------------------------------
    # prefetch interface

    def prefetch(self, addr, now, meta=None):
        """Issue a prefetch of the block holding *addr* into L1D.

        Returns True if a fill was started, False if the block was already
        resident (duplicate).  The line occupies L1D immediately with
        ``ready`` set to the fill completion time; lower levels fill too.
        """
        l1d = self.l1d
        block = addr >> l1d.block_shift
        if block in l1d.sets[block & l1d._set_mask]:
            return False
        self._now = now
        latency = self._fill_below_l1(addr, now, False)
        l1d.fill(addr, now, prefetched=True, meta=meta, ready=now + latency)
        trace = self._trace_cache
        if trace is not None:
            trace.emit("fill", now, level="L1D", addr=addr,
                       latency=latency, demand=False, ready=now + latency)
        return True

    # ------------------------------------------------------------------

    def caches(self):
        """All cache levels, nearest first."""
        return [self.l1i, self.l1d, self.l2, self.llc]

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self, include_shared=True):
        """Per-level cache state, MSHRs and DRAM as a JSON-safe structure.

        :param include_shared: when False the (possibly shared) LLC and
            DRAM are skipped -- the CMP system snapshots those once at
            the top level instead of once per core.
        """
        state = {
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
            "mshr": list(self._mshr),
            "imshr": list(self._imshr),
            "now": self._now,
        }
        if include_shared:
            state["llc"] = self.llc.snapshot()
            state["dram"] = self.dram.snapshot()
        return state

    def restore(self, state):
        """Restore hierarchy state from :meth:`snapshot` output."""
        self.l1i.restore(state["l1i"])
        self.l1d.restore(state["l1d"])
        self.l2.restore(state["l2"])
        self._mshr = [int(value) for value in state["mshr"]]
        imshr = state.get("imshr")  # absent in pre-front-end snapshots
        if imshr is not None:
            self._imshr = [int(value) for value in imshr]
        self._now = state["now"]
        if "llc" in state:
            self.llc.restore(state["llc"])
        if "dram" in state:
            self.dram.restore(state["dram"])

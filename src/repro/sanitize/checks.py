"""Runtime invariant sanitizer (``REPRO_CHECK``).

The simulator's state lives in plain Python structures that nothing
verifies at runtime; a stray index or a bad restore silently corrupts a
run.  The sanitizer audits the microarchitectural invariants those
structures are supposed to obey, at a configurable cost:

* ``REPRO_CHECK=off``   -- never instantiated; the fast paths are
  untouched (the default);
* ``REPRO_CHECK=cheap`` -- counter-consistency and bound checks every
  :data:`CHEAP_INTERVAL` cycles (O(structures), not O(lines));
* ``REPRO_CHECK=full``  -- everything in *cheap* plus exhaustive walks:
  per-line cache tag/set consistency, policy-cache LRU stamps, clean
  lines below L1, ARF heap ordering and ARF-versus-functional register
  agreement, every :data:`FULL_INTERVAL` cycles.

Violations raise :class:`~repro.sanitize.SanitizerError` carrying the
component, invariant label and cycle; with a snapshot directory
configured the offending state is dumped first (enveloped, atomic) and
the error carries its path.
"""

import json
import os

from repro._validate import require_ints
from repro.cpu.ooo import ROB_ENTRIES
from repro.memory.hierarchy import IMSHR_ENTRIES
from repro.sanitize.errors import SanitizerError

MODES = ("off", "cheap", "full")

ENV_CHECK = "REPRO_CHECK"

CHEAP_INTERVAL = 8192
FULL_INTERVAL = 1024


def mode_from_env(env=None):
    """Parse ``REPRO_CHECK`` into a mode name; ValueError on junk."""
    raw = (env if env is not None else os.environ).get(ENV_CHECK)
    if raw is None:
        return "off"
    mode = raw.strip().lower()
    if mode == "":
        return "off"
    if mode not in MODES:
        raise ValueError(
            "invalid %s value %r (choose from %s)"
            % (ENV_CHECK, raw, ", ".join(MODES))
        )
    return mode


class Sanitizer:
    """Invariant auditor for a :class:`~repro.sim.System`.

    :param mode: ``"cheap"`` or ``"full"`` (``"off"`` builds an inert
        instance with ``active == False``).
    :param interval: cycles between checks, a positive ``int``;
        mode-dependent default when None.
    :param snapshot_dir: when set, the offending system state is dumped
        there (atomic, integrity-enveloped) before the error is raised.
    """

    def __init__(self, mode="cheap", interval=None, snapshot_dir=None):
        if mode not in MODES:
            raise ValueError("invalid sanitizer mode %r (choose from %s)"
                             % (mode, ", ".join(MODES)))
        self.mode = mode
        if interval is None:
            interval = FULL_INTERVAL if mode == "full" else CHEAP_INTERVAL
        require_ints("Sanitizer", (("interval", interval),))
        self.interval = interval
        self.snapshot_dir = snapshot_dir
        self.checks_run = 0
        self.violations = 0

    @property
    def active(self):
        return self.mode != "off"

    @classmethod
    def from_env(cls, env=None, snapshot_dir=None):
        """Build from ``REPRO_CHECK``; None when checking is off."""
        mode = mode_from_env(env)
        if mode == "off":
            return None
        return cls(mode, snapshot_dir=snapshot_dir)

    # ------------------------------------------------------------------

    def _fail(self, system, cycle, component, invariant, detail):
        self.violations += 1
        path = None
        if self.snapshot_dir is not None and system is not None:
            path = self._dump(system, cycle)
        raise SanitizerError(component, invariant, detail, cycle, path)

    def _dump(self, system, cycle):
        """Persist the offending state for post-mortem inspection."""
        try:
            from repro.checkpoint.manager import CHECKPOINT_VERSION
            from repro.obs.io import atomic_write_text
            from repro.resilience.envelope import wrap_envelope
            os.makedirs(self.snapshot_dir, exist_ok=True)
            path = os.path.join(
                self.snapshot_dir,
                "sanitizer-cycle%s.json" % (cycle if cycle is not None
                                            else "unknown"),
            )
            payload = {"cycle": cycle, "state": system.snapshot()}
            atomic_write_text(
                path,
                json.dumps(wrap_envelope(payload, CHECKPOINT_VERSION),
                           sort_keys=True),
            )
            return path
        except Exception:
            # the dump is best-effort: never mask the invariant failure
            return None

    # ------------------------------------------------------------------
    # component invariants

    def check_system(self, system, cycle=None, include_shared=True):
        """Audit one system; raises :class:`SanitizerError` on violation.

        :param include_shared: audit the (possibly shared) LLC/DRAM too;
            CMP callers pass True for exactly one core to avoid walking
            the shared LLC once per core.
        """
        self.checks_run += 1
        full = self.mode == "full"
        self._check_machine(system, cycle)
        self._check_core(system, cycle)
        hierarchy = system.hierarchy
        levels = [("mem.l1i", hierarchy.l1i, False),
                  ("mem.l1d", hierarchy.l1d, False),
                  ("mem.l2", hierarchy.l2, True)]
        if include_shared:
            levels.append(("mem.llc", hierarchy.llc, True))
        for name, cache, lower in levels:
            self._check_cache(system, cycle, name, cache, full, lower)
        self._check_mshr(system, cycle)
        if include_shared:
            self._check_dram(system, cycle)
        self._check_prefetcher(system, cycle, full)
        if hasattr(system.prefetcher, "arf"):
            self._check_arf(system, cycle, full)

    def _check_machine(self, system, cycle):
        machine = system.machine
        if len(machine.regs) != 32:
            self._fail(system, cycle, "machine", "regfile-shape",
                       "expected 32 registers, found %d"
                       % len(machine.regs))
        if not 0 <= machine.index <= len(machine.program):
            self._fail(system, cycle, "machine", "pc-range",
                       "instruction index %d outside program of %d"
                       % (machine.index, len(machine.program)))

    def _check_core(self, system, cycle):
        core = system.core
        rob_len = len(core.rob)
        head = core._rob_head
        if not 0 <= head <= rob_len:
            self._fail(system, cycle, "core", "rob-head-range",
                       "head %d outside ROB of %d" % (head, rob_len))
        in_flight = rob_len - head
        cap = ROB_ENTRIES
        if in_flight > cap:
            self._fail(system, cycle, "core", "rob-size-bound",
                       "%d in flight exceeds %d ROB entries"
                       % (in_flight, cap))
        if core.budget and core.retired > core.budget + core.config.width:
            self._fail(system, cycle, "core", "retire-budget-bound",
                       "retired %d far beyond budget %d"
                       % (core.retired, core.budget))
        if core.cond_branches > core.branches:
            self._fail(system, cycle, "core", "branch-partition",
                       "%d conditional of %d total branches"
                       % (core.cond_branches, core.branches))
        if core.mispredicts > core.branches:
            self._fail(system, cycle, "core", "mispredict-bound",
                       "%d mispredicts of %d branches"
                       % (core.mispredicts, core.branches))
        for name in ("retired", "branches", "cond_branches", "mispredicts",
                     "fetch_cycles", "rob_full_stalls",
                     "flush_stall_cycles"):
            if getattr(core, name) < 0:
                self._fail(system, cycle, "core", "counter-sign",
                           "%s is negative" % name)

    def _check_cache(self, system, cycle, name, cache, full, lower):
        """Counters and occupancy; with *full*, every line too.

        *lower* marks L2 and the LLC, whose default-policy sets file every
        block under one shared line: a line there that is prefetched,
        used, dirty or carries a meta means something wrote through it.
        Fields are checked, not identity, so restored lines pass.
        """
        stats = cache.stats
        if stats.hits + stats.misses != stats.accesses:
            self._fail(system, cycle, name, "hit-miss-partition",
                       "%d hits + %d misses != %d accesses"
                       % (stats.hits, stats.misses, stats.accesses))
        if stats.writebacks > stats.evictions:
            self._fail(system, cycle, name, "writeback-bound",
                       "%d writebacks of %d evictions"
                       % (stats.writebacks, stats.evictions))
        for field in stats.__slots__:
            if getattr(stats, field) < 0:
                self._fail(system, cycle, name, "counter-sign",
                           "%s is negative" % field)
        assoc = cache.assoc
        mask = cache._set_mask
        # only a policy cache stamps its lines; the default path keeps
        # recency in each set's key order
        stamped = cache.policy is not None
        tick = cache._tick
        for index, cache_set in enumerate(cache.sets):
            if len(cache_set) > assoc:
                self._fail(system, cycle, name, "set-occupancy",
                           "set %d holds %d lines with associativity %d"
                           % (index, len(cache_set), assoc))
            if not full:
                continue
            for block, line in cache_set.items():
                if block & mask != index:
                    self._fail(system, cycle, name, "tag-set-consistency",
                               "block %#x filed in set %d, maps to set %d"
                               % (block, index, block & mask))
                if stamped and line.lru > tick:
                    self._fail(system, cycle, name, "lru-monotonic",
                               "line %#x lru %d ahead of tick %d"
                               % (block, line.lru, tick))
                if lower and (line.prefetched or line.used or line.dirty
                              or line.meta is not None):
                    self._fail(system, cycle, name, "lower-level-clean",
                               "line %#x prefetched=%r used=%r dirty=%r "
                               "meta=%r" % (block, line.prefetched,
                                            line.used, line.dirty,
                                            line.meta))

    def _check_mshr(self, system, cycle):
        hierarchy = system.hierarchy
        mshr = hierarchy._mshr
        if len(mshr) != hierarchy.config.mshr_entries:
            self._fail(system, cycle, "mem.mshr", "mshr-shape",
                       "%d slots, configured %d"
                       % (len(mshr), hierarchy.config.mshr_entries))
        for slot, busy_until in enumerate(mshr):
            if busy_until < 0:
                self._fail(system, cycle, "mem.mshr", "mshr-time-sign",
                           "slot %d busy until %r" % (slot, busy_until))
        imshr = hierarchy._imshr
        if len(imshr) != IMSHR_ENTRIES:
            self._fail(system, cycle, "mem.imshr", "imshr-shape",
                       "%d slots, configured %d"
                       % (len(imshr), IMSHR_ENTRIES))
        for slot, busy_until in enumerate(imshr):
            if busy_until < 0:
                self._fail(system, cycle, "mem.imshr", "imshr-time-sign",
                           "slot %d busy until %r" % (slot, busy_until))
        frontend = system.core.frontend
        if frontend is not None:
            ftq = frontend.ftq
            if len(ftq) > ftq.entries:
                self._fail(system, cycle, "core.ftq", "ftq-bound",
                           "%d queued with capacity %d"
                           % (len(ftq), ftq.entries))

    def _check_dram(self, system, cycle):
        dram = system.hierarchy.dram
        if dram.next_free_demand > dram.next_free:
            self._fail(system, cycle, "mem.dram", "channel-ordering",
                       "demand backlog %d ahead of channel backlog %d"
                       % (dram.next_free_demand, dram.next_free))
        if dram.prefetch_accesses > dram.accesses:
            self._fail(system, cycle, "mem.dram", "access-partition",
                       "%d prefetch of %d total accesses"
                       % (dram.prefetch_accesses, dram.accesses))

    def _check_prefetcher(self, system, cycle, full):
        prefetcher = system.prefetcher
        component = "pf.%s" % prefetcher.name
        queue = prefetcher.queue
        if len(queue) > queue.capacity:
            self._fail(system, cycle, component, "queue-bound",
                       "%d queued with capacity %d"
                       % (len(queue), queue.capacity))
        stats = prefetcher.stats
        for field in ("issued", "useful", "useless", "late", "dropped",
                      "duplicate"):
            if getattr(stats, field) < 0:
                self._fail(system, cycle, component, "counter-sign",
                           "%s is negative" % field)
        resolved = stats.useful + stats.late + stats.useless
        if resolved > stats.issued:
            self._fail(system, cycle, component, "outcome-partition",
                       "%d resolved outcomes of %d issued"
                       % (resolved, stats.issued))
        from repro.prefetchers.base import _RECENT_BLOCKS
        if len(prefetcher._recent) > _RECENT_BLOCKS:
            self._fail(system, cycle, component, "dedup-window-bound",
                       "%d blocks in a %d-entry window"
                       % (len(prefetcher._recent), _RECENT_BLOCKS))
        if full:
            for addr, _meta in queue._queue:
                if not isinstance(addr, int) or addr < 0:
                    self._fail(system, cycle, component,
                               "queue-entry-shape",
                               "queued address %r" % (addr,))

    def _check_arf(self, system, cycle, full):
        """B-Fetch ARF: heap ordering, sequence bounds, and (full mode)
        agreement with the functional machine for fully-drained regs."""
        prefetcher = system.prefetcher
        arf = prefetcher.arf
        component = "pf.%s.arf" % prefetcher.name
        commit_seq = getattr(prefetcher, "_commit_seq", None)
        if commit_seq is not None:
            for reg, seq in enumerate(arf.seq):
                if seq > commit_seq:
                    self._fail(system, cycle, component, "arf-seq-bound",
                               "reg %d seq %d ahead of commit seq %d"
                               % (reg, seq, commit_seq))
        pending = arf._pending
        for index in range(1, len(pending)):
            parent = (index - 1) >> 1
            if pending[index] < pending[parent]:
                self._fail(system, cycle, component, "arf-heap-order",
                           "entry %d sorts before its parent" % index)
        if not full:
            return
        # agreement: every committed write to r (r31 excluded) enqueues
        # an ARF write, so once no write for r is pending the ARF holds
        # the youngest committed value -- which is exactly the
        # functional machine's current value of r
        pending_regs = {entry[2] for entry in pending}
        machine_regs = system.machine.regs
        for reg in range(min(len(arf.values), 31)):
            if reg in pending_regs or arf.seq[reg] < 0:
                continue
            if arf.values[reg] != machine_regs[reg]:
                self._fail(system, cycle, component,
                           "arf-functional-agreement",
                           "reg %d: ARF %d != machine %d"
                           % (reg, arf.values[reg], machine_regs[reg]))

"""Chip-multiprocessor simulation: N cores sharing an LLC and DRAM.

Cores advance on a shared clock via an event heap ordered by ``(time,
core index)``; each core is stepped at the times it asked for, so
memory-bound cores skip idle cycles without desynchronising the shared
LLC state.  A popped core runs in a *burst* -- one
:meth:`~repro.cpu.ooo.OutOfOrderCore.run_until` call -- for as long as
its next step would be popped next anyway, i.e. while its next time
orders ahead of the heap head; the burst also stops at a chunk boundary
and at the step that reaches the core's finish target.  Bursts
therefore replay exactly the pop order of stepping one cycle per pop.

Following the paper's methodology, when an application finishes its
instruction budget it *keeps executing* (so contention pressure stays
realistic) and only its first ``budget`` instructions count toward its
IPC; the simulation stops once every application has reached the
budget.

Checkpoint support mirrors the single-core :class:`~repro.sim.System`:
the snapshot captures every per-core system (minus the shared LLC/DRAM,
stored once at the top level) *plus* the scheduler's own state -- the
event heap, per-core finish cycles and the instruction target -- so a
resumed CMP run replays the exact interleaving of the original.
"""

import heapq

from repro.checkpoint.manager import CheckpointError
from repro.cpu.ooo import _NEVER
from repro.sim.config import SystemConfig
from repro.sim.system import _DEFAULT_CHUNK_CYCLES, RunResult, System

_KEEP_RUNNING_FACTOR = 1000  # effectively "until the driver stops us"


class CMPSystem:
    """N-core CMP with a shared last-level cache.

    :param workloads: list of :class:`~repro.workloads.Workload`, one per
        core.
    :param config: shared :class:`~repro.sim.SystemConfig`; the LLC is
        sized at ``llc_size_per_core * len(workloads)`` per Table II.
    """

    def __init__(self, workloads, config=None):
        if not workloads:
            raise ValueError("need at least one workload")
        self.config = config or SystemConfig()
        self.num_cores = len(workloads)
        self.llc = self.config.hierarchy.make_llc(self.num_cores)
        self.dram = self.config.hierarchy.make_dram()
        self.systems = [
            System(workload, self.config, llc=self.llc, dram=self.dram)
            for workload in workloads
        ]

    def run(self, instructions_per_app, checkpointer=None, sanitizer=None,
            interrupt=None, corrupt_at=None):
        """Run until every core retires *instructions_per_app*.

        Returns a list of per-core :class:`~repro.sim.RunResult` whose
        ``cycles`` is the cycle at which that core reached the budget.

        The optional collaborators behave as in
        :meth:`repro.sim.System.run`: an existing checkpoint is resumed,
        state is re-saved every ``checkpointer.every`` cycles of shared
        clock, sanitizer checks run at their cadence, and a tripped
        *interrupt* saves + flushes before re-raising.  With none active
        there are no chunk boundaries, so bursts run until the heap head
        or the finish target stops them.
        """
        target = instructions_per_app
        chunked = (
            checkpointer is not None
            or interrupt is not None
            or corrupt_at is not None
            or (sanitizer is not None and sanitizer.active)
        )
        finish_cycle = [None] * self.num_cores
        remaining = self.num_cores
        heap = []
        resumed = False
        if checkpointer is not None:
            loaded = checkpointer.load()
            if loaded is not None:
                state, _cycle = loaded
                try:
                    run_state = self.restore(state)
                except CheckpointError:
                    checkpointer.clear()
                else:
                    if run_state is not None \
                            and run_state["target"] == target:
                        heap = [tuple(entry)
                                for entry in run_state["heap"]]
                        finish_cycle = [
                            None if cycle is None else int(cycle)
                            for cycle in run_state["finish_cycle"]
                        ]
                        remaining = sum(1 for cycle in finish_cycle
                                        if cycle is None)
                        resumed = True
                    else:
                        checkpointer.clear()
        if not resumed:
            for index, system in enumerate(self.systems):
                system.core.start(target * _KEEP_RUNNING_FACTOR)
                heapq.heappush(heap, (0, index))
        else:
            for system in self.systems:
                system.core.start(target * _KEEP_RUNNING_FACTOR)

        chunk = _DEFAULT_CHUNK_CYCLES
        if checkpointer is not None:
            chunk = min(chunk, checkpointer.every)
        if sanitizer is not None and sanitizer.active:
            chunk = min(chunk, sanitizer.interval)
        if corrupt_at is not None:
            chunk = min(chunk, max(1, corrupt_at))
        # no chunk boundaries on an unchunked run
        next_stop = (heap[0][0] + chunk) if (chunked and heap) else _NEVER
        corrupted = False
        cores = [system.core for system in self.systems]
        while remaining:
            if chunked and heap[0][0] >= next_stop:
                now = heap[0][0]
                if corrupt_at is not None and not corrupted \
                        and now >= corrupt_at:
                    from repro.resilience.faults import (
                        apply_state_corruption,
                    )
                    apply_state_corruption(self.systems[0])
                    corrupted = True
                if sanitizer is not None and sanitizer.active:
                    for index, system in enumerate(self.systems):
                        sanitizer.check_system(
                            system, now, include_shared=(index == 0))
                if checkpointer is not None and checkpointer.due(now):
                    checkpointer.save(
                        self._snapshot_run(target, heap, finish_cycle),
                        now)
                if interrupt is not None and interrupt:
                    if checkpointer is not None:
                        checkpointer.save(
                            self._snapshot_run(target, heap, finish_cycle),
                            now)
                    for system in self.systems:
                        if system.tracer is not None:
                            system.tracer.flush()
                    interrupt.raise_pending()
                next_stop = now + chunk
            now, index = heapq.heappop(heap)
            core = cores[index]
            # burst: keep stepping this core while it would be popped
            # again -- while its next time still orders ahead of the
            # heap head under (time, index) -- and stop at the chunk
            # boundary and at the step that reaches the finish target
            stop = next_stop
            if heap:
                head_time, head_index = heap[0]
                if index < head_index:
                    head_time += 1
                if head_time < stop:
                    stop = head_time
            if core.done:
                # past the keep-running budget: one step per pop
                next_time = core.step_cycle(now)
            elif finish_cycle[index] is None:
                next_time = core.run_until(now, stop, target)
                if core.retired >= target:
                    finish_cycle[index] = max(core.mark_cycle, 1)
                    remaining -= 1
                    if remaining == 0:
                        break
            else:
                next_time = core.run_until(now, stop)
            heapq.heappush(heap, (next_time, index))
        if checkpointer is not None:
            checkpointer.clear()

        results = []
        for index, system in enumerate(self.systems):
            core = system.core
            saved_cycle, saved_retired = core.cycle, core.retired
            core.cycle = finish_cycle[index]
            core.retired = min(core.retired, target)
            result = RunResult.from_core(
                core, system.workload.name, self.config.prefetcher
            )
            result.data["total_retired"] = saved_retired
            core.cycle, core.retired = saved_cycle, saved_retired
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # checkpoint/restore

    def fingerprint(self):
        """Identity of this CMP assembly: per-core workloads + config."""
        return {
            "workloads": [system.workload.name for system in self.systems],
            "config": list(self.config.key()),
        }

    def snapshot(self):
        """Complete CMP state: every core (without the shared levels)
        plus the shared LLC and DRAM exactly once."""
        state = self.fingerprint()
        state.update({
            "cores": [system.snapshot(include_shared=False)
                      for system in self.systems],
            "llc": self.llc.snapshot(),
            "dram": self.dram.snapshot(),
        })
        return state

    def _snapshot_run(self, target, heap, finish_cycle):
        """Snapshot plus the scheduler state needed to resume mid-run."""
        state = self.snapshot()
        state["run"] = {
            "target": target,
            "heap": [list(entry) for entry in heap],
            "finish_cycle": list(finish_cycle),
        }
        return state

    def restore(self, state):
        """Restore CMP state from :meth:`snapshot` output.

        Returns the embedded scheduler state (``state["run"]``) when the
        snapshot was taken mid-run, else None.  Raises
        :class:`~repro.checkpoint.CheckpointError` on a fingerprint
        mismatch.
        """
        expected = self.fingerprint()
        found = {"workloads": state.get("workloads"),
                 "config": state.get("config")}
        if found != expected:
            raise CheckpointError(
                "checkpoint fingerprint mismatch: saved %r, system is %r"
                % (found, expected)
            )
        for system, core_state in zip(self.systems, state["cores"]):
            system.restore(core_state)
        self.llc.restore(state["llc"])
        self.dram.restore(state["dram"])
        return state.get("run")

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

A mix runs through the single-core run loop
(:func:`repro.sim.system.drive`) with this scheduler as its advance
step.  Its checkpoint holds every per-core system (minus the shared
LLC/DRAM, stored once at the top level) *plus* the scheduler's state --
the event heap, per-core finish cycles and the instruction target -- so
a resumed CMP run replays the exact interleaving of the original.
"""

from heapq import heappop, heappush

from repro.checkpoint.manager import CheckpointError
from repro.obs.trace import Tracer
from repro.sim.config import SystemConfig
from repro.sim.system import RunResult, System, drive, flush_traces

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
        tracer = Tracer.from_env()
        self.systems = [
            System(workload, self.config, llc=self.llc, dram=self.dram,
                   tracer=tracer)
            for workload in workloads
        ]

    def run(self, instructions_per_app, checkpointer=None, sanitizer=None,
            interrupt=None, corrupt_at=None):
        """Run until every core retires *instructions_per_app*.

        Returns a list of per-core :class:`~repro.sim.RunResult` whose
        ``cycles`` is the cycle at which that core reached the budget.

        The optional collaborators behave as in
        :meth:`repro.sim.System.run`, through the same loop, on the
        shared clock.  With none active there are no chunk boundaries,
        so bursts run until the heap head or the finish target stops
        them.  All cores share one tracer.
        """
        target = instructions_per_app
        drive(self, target, checkpointer, sanitizer, interrupt, corrupt_at)
        flush_traces(self.systems)
        results = []
        for index, system in enumerate(self.systems):
            core = system.core
            saved_cycle, saved_retired = core.cycle, core.retired
            core.cycle = self._finish_cycle[index]
            core.retired = min(core.retired, target)
            result = RunResult.from_core(
                core, system.workload.name, self.config.prefetcher
            )
            result.data["total_retired"] = saved_retired
            core.cycle, core.retired = saved_cycle, saved_retired
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # the hooks :func:`~repro.sim.system.drive` steps a mix through

    def _arm(self, target, state=None):
        """Start the scheduler, or resume it from a checkpoint's state
        (raising, before anything is restored, for another target's)."""
        run = {"target": target, "finish_cycle": [None] * self.num_cores,
               "heap": [(0, index) for index in range(self.num_cores)]}
        if state is not None:
            saved = state.get("run") or {}
            if saved.get("target") != target:
                raise CheckpointError(
                    "checkpoint was taken for target %r, not %r"
                    % (saved.get("target"), target))
            self.restore(state)
            run = saved
        self._target = target
        self._heap = [tuple(entry) for entry in run["heap"]]
        self._finish_cycle = list(run["finish_cycle"])
        self._remaining = self._finish_cycle.count(None)
        for system in self.systems:
            system.core.start(target * _KEEP_RUNNING_FACTOR)
        return self._heap[0][0]

    def _advance(self, now, stop):
        """The scheduler: pop cores in ``(time, index)`` order until the
        heap head reaches *stop* (returning its time) or every core has
        reached the target (returning the last burst's next time)."""
        heap = self._heap
        finish_cycle = self._finish_cycle
        target = self._target
        cores = [system.core for system in self.systems]
        while heap[0][0] < stop:
            now, index = heappop(heap)
            core = cores[index]
            # burst: keep stepping this core while it would be popped
            # again -- while its next time still orders ahead of the
            # heap head under (time, index) -- and stop at the chunk
            # boundary and at the step that reaches the finish target
            burst_stop = stop
            if heap:
                head_time, head_index = heap[0]
                if index < head_index:
                    head_time += 1
                if head_time < burst_stop:
                    burst_stop = head_time
            if core.done:
                # past the keep-running budget: one step per pop
                next_time = core.step_cycle(now)
            elif finish_cycle[index] is None:
                next_time = core.run_until(now, burst_stop, target)
                if core.retired >= target:
                    finish_cycle[index] = max(core.mark_cycle, 1)
                    self._remaining -= 1
                    if not self._remaining:
                        return next_time
            else:
                next_time = core.run_until(now, burst_stop)
            heappush(heap, (next_time, index))
        return heap[0][0]

    def _done(self):
        return not self._remaining

    def _checkpoint_state(self):
        """Snapshot plus the scheduler state needed to resume mid-run."""
        state = self.snapshot()
        state["run"] = {
            "target": self._target,
            "heap": [list(entry) for entry in self._heap],
            "finish_cycle": list(self._finish_cycle),
        }
        return state

    def _core_systems(self):
        return self.systems

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

    def restore(self, state):
        """Restore CMP state from :meth:`snapshot` output.

        Raises :class:`~repro.checkpoint.CheckpointError` on a
        fingerprint mismatch.  A checkpoint's scheduler state
        (``state["run"]``) is read by the run loop, not here.
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

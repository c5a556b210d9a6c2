"""Alternate Register File (ARF).

A pseudo-architectural copy of the register file, updated by sampling
latches off the execution units (Section IV-B2).  In the trace-driven
model a register write becomes visible in the ARF at the writing
instruction's execute-completion time, so a lookahead walk launched while
the producer is still in flight reads the stale (pre-update) value --
exactly the timeliness error the real hardware has.

Consistency rule from the paper: "only allowing a register to be updated
by an instruction younger than the previous instruction that modified it",
tracked with a per-register sequence number.
"""

import heapq


class AlternateRegisterFile:
    """32-entry delayed register-file copy.

    Pending writes drain by *completion time*, not program order -- the
    execution units complete out of order, and a long-latency load must
    not hide the younger single-cycle adds behind it.  The per-register
    sequence check enforces the paper's youngest-writer consistency rule.

    :param num_regs: register count (32).
    :param delay: extra cycles between a write's completion and its
        visibility in the ARF (sampling-latch depth).

    The pending heap is checkpointed verbatim: a valid heap restores as
    a valid heap (``heapq`` relies only on the array invariant).
    """

    STATE = ("values", "seq", "_pending")

    def __init__(self, num_regs=32, delay=0):
        self.num_regs = num_regs
        self.delay = delay
        self.values = [0] * num_regs
        self.seq = [-1] * num_regs
        self._pending = []

    def write(self, reg, value, seq, ready_time):
        """Enqueue a register write that becomes visible at *ready_time*."""
        heapq.heappush(self._pending, (ready_time + self.delay, seq, reg, value))

    def sync(self, now):
        """Apply all pending writes whose visibility time has arrived."""
        pending = self._pending
        while pending and pending[0][0] <= now:
            _, seq, reg, value = heapq.heappop(pending)
            if seq > self.seq[reg]:
                self.seq[reg] = seq
                self.values[reg] = value

    def read(self, reg):
        """Current ARF value of *reg* (call :meth:`sync` first)."""
        return self.values[reg]

    def storage_bits(self):
        # 32-bit value + 8-bit sequence field per register (Table I: 0.156KB)
        return self.num_regs * (32 + 8)

"""Divergence sentinel and first-bad-cycle auto-bisect.

When a sanitizer check trips mid-run, the check cadence only brackets
the corruption: the invariant broke somewhere in the last
``sanitizer.interval`` cycles.  Determinism turns localisation into a
replay problem -- restore the nearest (pre-violation) checkpoint, rerun
the same cycles with per-cycle full checking, and the first failing
check names the first bad cycle exactly.

:func:`sentinel_run` packages the whole loop: run with checkpoints and
a sanitizer; on a :class:`~repro.sanitize.SanitizerError`, replay from
the last saved checkpoint and return a :class:`DivergenceReport` naming
the first divergent cycle.
"""

from repro.cpu.ooo import _NEVER
from repro.sanitize.checks import Sanitizer
from repro.sanitize.errors import SanitizerError
from repro.sim.system import drive


class DivergenceReport:
    """Outcome of an auto-bisect after a sanitizer violation.

    :param trigger: the original coarse-grained :class:`SanitizerError`.
    :param first_bad_cycle: first cycle at which a per-cycle full check
        fails during replay (None when the replay stayed clean --
        e.g. the corruption was not reproducible from the checkpoint).
    :param first_error: the :class:`SanitizerError` raised at
        ``first_bad_cycle`` during replay.
    :param replay_from: cycle of the checkpoint the replay started from
        (0 = clean start).
    """

    def __init__(self, trigger, first_bad_cycle, first_error, replay_from):
        self.trigger = trigger
        self.first_bad_cycle = first_bad_cycle
        self.first_error = first_error
        self.replay_from = replay_from

    def describe(self):
        lines = ["sanitizer violation: %s" % self.trigger]
        lines.append("replayed from cycle %d with per-cycle full checks"
                     % self.replay_from)
        if self.first_bad_cycle is None:
            lines.append("replay stayed clean -- violation did not "
                         "reproduce from the checkpoint")
        else:
            lines.append("first bad cycle: %d (%s)"
                         % (self.first_bad_cycle, self.first_error))
        return "\n".join(lines)

    def __repr__(self):
        return ("DivergenceReport(first_bad_cycle=%r, replay_from=%r)"
                % (self.first_bad_cycle, self.replay_from))


def bisect_first_bad_cycle(system_factory, instructions,
                           checkpoint_state=None, corrupt_at=None,
                           stop_cycle=None, step=1):
    """Replay with per-*step*-cycle full checks; find the first bad cycle.

    The replay is the run loop itself (:func:`repro.sim.system.drive`)
    with a ``full`` sanitizer at a *step*-cycle cadence, bounded by
    *stop_cycle*.

    :param system_factory: zero-argument callable building a fresh
        :class:`~repro.sim.System` identical to the diverged one.
    :param instructions: the run's instruction budget.
    :param checkpoint_state: snapshot dict to restore before replaying
        (None replays from a clean start).
    :param corrupt_at: re-inject the deterministic ``corrupt-state``
        fault at this cycle, mirroring the original run.
    :param stop_cycle: give up beyond this cycle (None = run to
        completion).
    :returns: ``(cycle, SanitizerError)`` of the first failing check, or
        None when the replay stays clean.
    """
    system = system_factory()
    if checkpoint_state is not None:
        system.restore(checkpoint_state)
    try:
        drive(system, instructions,
              sanitizer=Sanitizer("full", interval=step),
              corrupt_at=corrupt_at,
              until=_NEVER if stop_cycle is None else stop_cycle)
    except SanitizerError as error:
        return error.cycle, error
    return None


def sentinel_run(system_factory, instructions, checkpointer=None,
                 sanitizer=None, corrupt_at=None):
    """Run with a divergence sentinel; auto-bisect on violation.

    Returns ``(result, None)`` on a clean run or ``(None, report)`` with
    a :class:`DivergenceReport` when the sanitizer tripped.  The
    checkpoint written before the violation (checks always precede the
    save, so on-disk state is pre-corruption) seeds the replay.
    """
    system = system_factory()
    try:
        result = system.run(instructions, checkpointer=checkpointer,
                            sanitizer=sanitizer, corrupt_at=corrupt_at)
        return result, None
    except SanitizerError as trigger:
        state = None
        replay_from = 0
        if checkpointer is not None:
            loaded = checkpointer.load()
            if loaded is not None:
                state, replay_from = loaded
        found = bisect_first_bad_cycle(
            system_factory, instructions, checkpoint_state=state,
            corrupt_at=corrupt_at,
            stop_cycle=(trigger.cycle + 1 if trigger.cycle is not None
                        else None),
        )
        if found is None:
            first_bad_cycle, first_error = None, None
        else:
            first_bad_cycle, first_error = found
        return None, DivergenceReport(trigger, first_bad_cycle,
                                      first_error, replay_from)

"""Drivers: the external entity controlling schedule and inputs.

In the paper the *scheduler* orders process steps and the *adversary*
additionally decides which operations processes invoke.  The simulator
unifies both behind one interface: each simulation step the runtime asks
the driver for a :class:`Decision` — step a pending process, invoke an
operation on an idle process (input-enabledness guarantees this is always
allowed), crash a process, or stop.

Plain experiments compose a :class:`~repro.sim.schedulers.Scheduler`
(who moves) with a :class:`~repro.sim.workload.Workload` (what idle
processes invoke next) via :class:`ComposedDriver`.  Adversary strategies
(:mod:`repro.adversaries`) implement :class:`Driver` directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Tuple, TYPE_CHECKING

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.runtime import RuntimeView


@dataclass(frozen=True)
class StepDecision:
    """Advance the pending operation of ``pid`` by one atomic step."""

    pid: int


@dataclass(frozen=True)
class InvokeDecision:
    """Invoke ``operation(*args)`` on the idle process ``pid``."""

    pid: int
    operation: str
    args: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class CrashDecision:
    """Crash process ``pid`` (its in-flight operation is lost)."""

    pid: int


@dataclass(frozen=True)
class StopDecision:
    """End the run.

    ``fair`` asserts that the driver stopped only because no non-crash
    action remained enabled *from the driver's point of view* — i.e. the
    run is a complete finite (fair) execution rather than a truncated
    observation.  The runtime additionally verifies that no process is
    mid-operation before accepting the fairness claim.
    """

    reason: str
    fair: bool = False


Decision = object  # union of the four dataclasses above


class Driver(ABC):
    """The entity that plays schedule and inputs against an
    implementation."""

    name: str = "driver"

    @abstractmethod
    def decide(self, view: "RuntimeView") -> Decision:
        """Pick the next action given the read-only runtime view."""

    def fingerprint(self) -> Optional[Hashable]:
        """Driver part of the lasso fingerprint.

        Must capture *all* driver state that influences future decisions;
        return ``None`` to disable lasso detection for runs under this
        driver (the safe default for stateful drivers that do not
        implement it).
        """
        return None

    def reset(self) -> None:
        """Return to the initial strategy state (fresh runs)."""

    # -- state capture (the branching liveness search) ----------------------

    def capture_state(self) -> Hashable:
        """A restorable copy of the full strategy state.

        The liveness search snapshots driver state alongside the kernel
        configuration so a branch can resume mid-strategy.  The default
        raises: a driver that cannot be captured can only be played
        straight-line (:func:`~repro.sim.runtime.play`, whose search
        never branches, so it never captures).  The adversary
        strategies all implement :meth:`capture_state`/
        :meth:`restore_state`.
        """
        raise NotImplementedError(
            f"driver {self.name!r} does not support state capture"
        )

    def restore_state(self, state: Hashable) -> None:
        """Restore a state captured by :meth:`capture_state`."""
        raise NotImplementedError(
            f"driver {self.name!r} does not support state restore"
        )


class ComposedDriver(Driver):
    """Scheduler × workload × crash-plan composition.

    Each decision: first consult the crash plan; then collect the
    *eligible* processes — pending ones (can step) and idle ones for
    which the workload still has an invocation — and let the scheduler
    pick one.  When nobody is eligible the run stops, fairly if no
    operation is in flight.
    """

    def __init__(self, scheduler, workload, crash_plan=None, name: Optional[str] = None):
        self.scheduler = scheduler
        self.workload = workload
        self.crash_plan = crash_plan
        self.name = name or f"{scheduler.name}+{workload.name}"

    def decide(self, view: "RuntimeView") -> Decision:
        if self.crash_plan is not None:
            victim = self.crash_plan.next_crash(view)
            if victim is not None:
                return CrashDecision(pid=victim)
        eligible: List[int] = []
        for pid in range(view.n_processes):
            if view.is_crashed(pid):
                continue
            if not self.scheduler.admissible(pid):
                continue  # this scheduler delays pid forever
            if view.is_pending(pid):
                eligible.append(pid)
            elif self.workload.has_next(pid, view):
                eligible.append(pid)
        if not eligible:
            # The run ends.  It is a *fair* finite execution iff no
            # operation is in flight anywhere: pending operations of
            # never-scheduled processes would have enabled actions.
            fair = not any(
                view.is_pending(pid) for pid in range(view.n_processes)
            )
            return StopDecision(reason="no eligible process", fair=fair)
        pid = self.scheduler.pick(eligible, view)
        if pid not in eligible:
            raise SimulationError(
                f"scheduler {self.scheduler.name!r} picked ineligible p{pid}"
            )
        if view.is_pending(pid):
            return StepDecision(pid=pid)
        operation, args = self.workload.next_invocation(pid, view)
        return InvokeDecision(pid=pid, operation=operation, args=args)

    def fingerprint(self) -> Optional[Hashable]:
        scheduler_fp = self.scheduler.fingerprint()
        workload_fp = self.workload.fingerprint()
        if scheduler_fp is None or workload_fp is None:
            return None
        crash_fp: Hashable = None
        if self.crash_plan is not None:
            crash_fp = self.crash_plan.fingerprint()
            if crash_fp is None:
                return None
        return (scheduler_fp, workload_fp, crash_fp)

    def reset(self) -> None:
        self.scheduler.reset()
        self.workload.reset()
        if self.crash_plan is not None:
            self.crash_plan.reset()


class ScriptedDriver(Driver):
    """Replay an explicit list of decisions, then stop.

    Used by unit tests to drive a runtime through an exact interleaving.
    """

    def __init__(self, decisions, name: str = "scripted", fair_stop: bool = False):
        self._decisions = list(decisions)
        self._cursor = 0
        self.name = name
        self._fair_stop = fair_stop

    def decide(self, view: "RuntimeView") -> Decision:
        if self._cursor >= len(self._decisions):
            return StopDecision(reason="script exhausted", fair=self._fair_stop)
        decision = self._decisions[self._cursor]
        self._cursor += 1
        return decision

    def fingerprint(self) -> Optional[Hashable]:
        return ("scripted", self._cursor)

    def reset(self) -> None:
        self._cursor = 0

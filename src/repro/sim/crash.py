"""Crash plans: when processes fail.

The model allows any number of crash failures at any time (Section 2's
``crash_i`` input action).  A crash plan decides, before each driver
decision, whether some process crashes now.  Plans are deterministic and
fingerprintable so crashes do not break lasso detection.
"""

from __future__ import annotations

import re

from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Optional, Set, TYPE_CHECKING

from repro.util.errors import UsageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import RuntimeView


class CrashPlan(ABC):
    """Decides crash injections."""

    name: str = "crash-plan"

    @abstractmethod
    def next_crash(self, view: "RuntimeView") -> Optional[int]:
        """Pid to crash before the next decision, or ``None``."""

    def fingerprint(self) -> Optional[Hashable]:
        """Plan state for lasso detection (``None`` disables)."""
        return None

    def reset(self) -> None:
        """Return to the initial state."""


class NoCrashes(CrashPlan):
    """The failure-free plan."""

    name = "no-crashes"

    def next_crash(self, view: "RuntimeView") -> Optional[int]:
        return None

    def fingerprint(self) -> Optional[Hashable]:
        return "no-crashes"


class CrashAtStep(CrashPlan):
    """Crash given processes at given global step numbers.

    ``schedule`` maps step number → pid.  A pid already crashed is
    skipped silently (plans compose with adversarial drivers that may
    have crashed it earlier).
    """

    def __init__(self, schedule: Dict[int, int]):
        self.schedule = dict(schedule)
        self.name = f"crash-at({sorted(schedule.items())})"
        self._done: Set[int] = set()

    def next_crash(self, view: "RuntimeView") -> Optional[int]:
        step = view.step
        if step in self.schedule and step not in self._done:
            self._done.add(step)
            pid = self.schedule[step]
            if not view.is_crashed(pid):
                return pid
        return None

    def fingerprint(self) -> Optional[Hashable]:
        return ("crash-at", tuple(sorted(self._done)))

    def reset(self) -> None:
        self._done = set()


class CrashAfterInvocations(CrashPlan):
    """Crash each listed process once it has issued a number of
    invocations.

    Useful for failure-injection tests: crash a process mid-workload and
    check that safety still holds and that liveness properties treat it
    as faulty rather than starving.
    """

    def __init__(self, thresholds: Dict[int, int]):
        self.thresholds = dict(thresholds)
        self.name = f"crash-after-invocations({sorted(thresholds.items())})"
        self._done: Set[int] = set()

    def next_crash(self, view: "RuntimeView") -> Optional[int]:
        for pid, threshold in sorted(self.thresholds.items()):
            if pid in self._done or view.is_crashed(pid):
                continue
            if view.invocation_count(pid) >= threshold:
                self._done.add(pid)
                return pid
        return None

    def fingerprint(self) -> Optional[Hashable]:
        return ("crash-after", tuple(sorted(self._done)))

    def reset(self) -> None:
        self._done = set()


#: Compact crash-pattern syntax: ``pPID@STEP`` terms joined by ``+``.
_CRASH_TERM = re.compile(r"p(\d+)@(\d+)")


def parse_crash_spec(spec: Optional[str]) -> Optional[Callable[[], CrashPlan]]:
    """Parse a compact crash-pattern string into a plan factory.

    The grammar is the one campaign grids sweep over: ``"none"`` (or
    ``None``/empty) means no crashes and returns ``None``;
    ``"p0@40"`` crashes process 0 at global step 40; terms compose with
    ``+`` (``"p0@40+p1@60"``).  Factories rather than instances so every
    play gets a fresh (resettable) plan.
    """
    if spec is None or spec in ("", "none"):
        return None
    schedule: Dict[int, int] = {}
    for term in str(spec).split("+"):
        match = _CRASH_TERM.fullmatch(term.strip())
        if match is None:
            raise UsageError(
                f"bad crash pattern term {term.strip()!r} in {spec!r}; "
                "expected pPID@STEP terms joined by '+', e.g. 'p0@40+p1@60'"
            )
        pid, step = int(match.group(1)), int(match.group(2))
        if step in schedule:
            raise UsageError(
                f"crash pattern {spec!r} schedules two crashes at step {step}"
            )
        schedule[step] = pid
    return lambda: CrashAtStep(schedule)

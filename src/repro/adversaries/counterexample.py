"""The Section 5.3 three-process adversary against property ``S``.

The strategy exhibiting that ``(1,3)``-freedom excludes the
counterexample property ``S`` (opacity + timestamp abort rule):

1. **Step 1** — processes ``p_0, p_1, p_2`` concurrently invoke
   ``start()`` and each waits for its response;
2. **Step 2** — the processes that were not aborted in Step 1
   concurrently invoke ``tryC()`` and wait; if *every* process received
   an abort the adversary returns to Step 1, otherwise it stops.

Against any implementation ensuring ``S``, Step 2 can never produce a
commit: the three current transactions are the ``t``-th of their
processes, pairwise concurrent, and each ``tryC`` is invoked after the
other two ``start`` responses — the timestamp rule forces all three to
abort.  The loop therefore runs forever and no process ever commits,
violating ``(1,3)``-freedom (three steppers, three correct, zero
progressors).

Concurrency realisation: invocations are issued back-to-back (no steps
in between) and the awaiting is round-robin, so all group members'
transactions overlap — which is all "concurrent" means in the
interleaving model.

Against ``I(1,2)`` the run is certified by a proved lasso: the
adversary state is a small machine and ``I(1,2)``'s timestamp-shift
abstraction repeats each cycle.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.objects.tm import ABORTED, COMMITTED, OK
from repro.sim.drivers import InvokeDecision, StepDecision, StopDecision
from repro.util.errors import AdversaryError
from repro.adversaries.base import AdversaryDriver

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import RuntimeView


class CounterexampleAdversary(AdversaryDriver):
    """Concurrent start / concurrent tryC, repeated forever."""

    def __init__(self, group: Sequence[int] = (0, 1, 2)):
        if len(group) < 3:
            raise ValueError("the Section 5.3 strategy needs at least 3 processes")
        self.group = tuple(group)
        self.name = f"counterexample-s({','.join('p%d' % p for p in self.group)})"
        self._phase = "start-invoke"
        self._cursor = 0  # next group member to invoke in the current batch
        self._turn = 0  # round-robin pointer for awaiting
        self._ok: Tuple[int, ...] = ()  # members whose start returned OK
        self._stopped = False

    # -- decision loop ---------------------------------------------------------

    def decide(self, view: "RuntimeView"):
        if self._stopped:
            return StopDecision(reason="adversary finished", fair=False)
        if self._phase == "start-invoke":
            if self._cursor < len(self.group):
                pid = self.group[self._cursor]
                self._cursor += 1
                return InvokeDecision(pid, "start", ())
            self._phase = "start-await"
            self._cursor = 0
        if self._phase == "start-await":
            pending = [p for p in self.group if view.is_pending(p)]
            if pending:
                return self._round_robin_step(pending)
            self._ok = tuple(
                p
                for p in self.group
                if view.last_response(p) is not None
                and view.last_response(p).value is OK
            )
            if not self._ok:
                # Everyone aborted at start: repeat Step 1.
                self._phase = "start-invoke"
                return self.decide(view)
            self._phase = "tryc-invoke"
        if self._phase == "tryc-invoke":
            if self._cursor < len(self._ok):
                pid = self._ok[self._cursor]
                self._cursor += 1
                return InvokeDecision(pid, "tryC", ())
            self._phase = "tryc-await"
            self._cursor = 0
        if self._phase == "tryc-await":
            pending = [p for p in self._ok if view.is_pending(p)]
            if pending:
                return self._round_robin_step(pending)
            outcomes = [view.last_response(p).value for p in self._ok]
            if any(value is COMMITTED for value in outcomes):
                self.escaped = True
                self._stopped = True
                return StopDecision(reason="a transaction committed", fair=False)
            if any(value is not ABORTED for value in outcomes):
                raise AdversaryError(f"unexpected tryC outcomes {outcomes!r}")
            # All aborted: back to Step 1.
            self._phase = "start-invoke"
            self._ok = ()
            return self.decide(view)
        raise AdversaryError(f"unknown phase {self._phase!r}")  # pragma: no cover

    def _round_robin_step(self, pending: List[int]) -> StepDecision:
        for offset in range(len(self.group)):
            index = (self._turn + offset) % len(self.group)
            pid = self.group[index]
            if pid in pending:
                self._turn = (index + 1) % len(self.group)
                return StepDecision(pid)
        raise AdversaryError("no pending process to step")  # pragma: no cover

    # -- fingerprints / reset ------------------------------------------------------

    def machine_state(self) -> Optional[Hashable]:
        return (self._phase, self._cursor, self._turn, self._ok, self._stopped)

    def reset(self) -> None:
        super().reset()
        self._phase = "start-invoke"
        self._cursor = 0
        self._turn = 0
        self._ok = ()
        self._stopped = False

"""The three-step TM adversary of Section 4.1 (from [4]).

The strategy starves process ``victim`` while keeping the history
opaque, defeating local progress — and with it every biprogressing
liveness property, in particular ``(2,2)``-freedom (Theorem 5.3's
negative half) — against *any* opaque TM:

1. **Step 1** — ``victim`` starts a transaction and reads ``x``
   (retrying whole-step on abort), obtaining ``v'``.
2. **Step 2** — ``helper`` starts, reads ``x`` (``v''``), writes
   ``v' + 1``, and commits (retrying whole-step on abort).
3. **Step 3** — ``victim`` writes ``v'' + 1`` and tries to commit; on
   abort the adversary returns to Step 1.  If the commit *succeeds*
   the adversary stops and records that the implementation escaped
   (possible only for implementations that are not opaque, or not
   defeated by this strategy — the paper's theorem says opaque ones
   always abort here, which the experiments confirm empirically).

The paper builds two intensional adversary sets from this strategy:
``F1`` (as above) and the process-swapped ``F2``.  Every ``F1`` history
begins with ``start_victim`` and every ``F2`` history with
``start_helper``, so the sets are disjoint and Corollary 4.6 follows.
:func:`play_adversary_set` materialises the finite fragments (one
history per registered implementation) used by the ``cor46``
experiment.

Fingerprinting: the machine state includes the stored read values,
which grow by one per cycle against a committing TM — so such runs end
at the horizon (the ``agp-local-progress`` scenario's verdict is horizon
evidence, not a lasso).  Against the trivial always-abort TM the stored
values never change and runs end in a proved lasso.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple, TYPE_CHECKING

from repro.objects.tm import ABORTED, COMMITTED
from repro.sim.drivers import InvokeDecision, StepDecision, StopDecision
from repro.util.errors import AdversaryError
from repro.util.freeze import freeze
from repro.adversaries.base import AdversaryDriver

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import RuntimeView

#: (pc, pid-role, operation, args-builder) rows of the strategy table.
#: Transitions are encoded in :meth:`TMLocalProgressAdversary._advance`.
_PCS = (
    "1-start",
    "1-read",
    "2-start",
    "2-read",
    "2-write",
    "2-tryC",
    "3-write",
    "3-tryC",
)


class TMLocalProgressAdversary(AdversaryDriver):
    """Explicit state machine for the three-step strategy."""

    def __init__(self, victim: int = 0, helper: int = 1, variable: Any = 0):
        self.victim = victim
        self.helper = helper
        self.variable = variable
        self.name = f"tm-local-progress(victim=p{victim})"
        self._pc = "1-start"
        self._awaiting: Optional[int] = None
        self._v_prime: Any = None  # victim's Step-1 read
        self._v_second: Any = None  # helper's Step-2 read
        self._stopped = False

    # -- decision loop ---------------------------------------------------------

    def decide(self, view: "RuntimeView"):
        if self._stopped:
            return StopDecision(reason="adversary finished", fair=False)
        if self._awaiting is not None:
            pid = self._awaiting
            if view.is_pending(pid):
                return StepDecision(pid)
            response = view.last_response(pid)
            if response is None:
                raise AdversaryError("awaited process has no response")
            self._awaiting = None
            self._advance(response.value)
            if self._stopped:
                return StopDecision(reason="victim committed", fair=False)
        pid, operation, args = self._current_invocation()
        self._awaiting = pid
        return InvokeDecision(pid, operation, args)

    def _current_invocation(self) -> Tuple[int, str, Tuple[Any, ...]]:
        x = self.variable
        pc = self._pc
        if pc == "1-start":
            return (self.victim, "start", ())
        if pc == "1-read":
            return (self.victim, "read", (x,))
        if pc == "2-start":
            return (self.helper, "start", ())
        if pc == "2-read":
            return (self.helper, "read", (x,))
        if pc == "2-write":
            return (self.helper, "write", (x, _plus_one(self._v_prime)))
        if pc == "2-tryC":
            return (self.helper, "tryC", ())
        if pc == "3-write":
            return (self.victim, "write", (x, _plus_one(self._v_second)))
        if pc == "3-tryC":
            return (self.victim, "tryC", ())
        raise AdversaryError(f"unknown pc {pc!r}")  # pragma: no cover

    def _advance(self, value: Any) -> None:
        """Strategy transition on the response just received."""
        pc = self._pc
        if value is ABORTED:
            if pc in ("1-start", "1-read"):
                self._pc = "1-start"  # repeat Step 1
            elif pc in ("2-start", "2-read", "2-write", "2-tryC"):
                self._pc = "2-start"  # repeat Step 2
            else:  # Step 3 aborted: back to Step 1
                self._pc = "1-start"
            return
        if pc == "1-start":
            self._pc = "1-read"
        elif pc == "1-read":
            self._v_prime = value
            self._pc = "2-start"
        elif pc == "2-start":
            self._pc = "2-read"
        elif pc == "2-read":
            self._v_second = value
            self._pc = "2-write"
        elif pc == "2-write":
            self._pc = "2-tryC"
        elif pc == "2-tryC":
            if value is not COMMITTED:
                raise AdversaryError(f"tryC returned {value!r}")
            self._pc = "3-write"
        elif pc == "3-write":
            self._pc = "3-tryC"
        elif pc == "3-tryC":
            if value is not COMMITTED:
                raise AdversaryError(f"tryC returned {value!r}")
            # The victim committed: the strategy's game is over and the
            # implementation escaped (cannot happen for opaque TMs, per
            # the impossibility of [4]).
            self.escaped = True
            self._stopped = True

    # -- fingerprints / reset ------------------------------------------------------

    def machine_state(self) -> Optional[Hashable]:
        return (
            self._pc,
            self._awaiting,
            freeze(self._v_prime),
            freeze(self._v_second),
            self._stopped,
        )

    def capture_state(self) -> Hashable:
        # Deliberately NOT machine_state(): that freeze()s the stored
        # read values for hashing, and restoring frozen encodings would
        # corrupt the strategy's later writes for non-scalar values.
        # Capture the raw values, shared: they are TM read responses,
        # which are immutable, hashable values by the kernel contract.
        return (
            self._pc,
            self._awaiting,
            self._v_prime,
            self._v_second,
            self._stopped,
            self.escaped,
        )

    def restore_state(self, state: Hashable) -> None:
        (self._pc, self._awaiting, self._v_prime, self._v_second,
         self._stopped, self.escaped) = state

    def reset(self) -> None:
        super().reset()
        self._pc = "1-start"
        self._awaiting = None
        self._v_prime = None
        self._v_second = None
        self._stopped = False


def _plus_one(value: Any) -> Any:
    """The paper's ``v + 1`` on read values (integers in our runs)."""
    if value is None:
        raise AdversaryError("strategy wrote before reading")
    return value + 1

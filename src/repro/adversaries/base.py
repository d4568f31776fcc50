"""Adversary drivers: strategies that play against implementations.

An adversary (Section 4) "decides on a sequence of steps produced by a
scheduler and on invocations sent to implementation I" — in simulator
terms, it is a :class:`~repro.sim.drivers.Driver` with a goal: force a
fair run whose history stays inside the safety property while the
execution violates the target liveness property.

The adversaries shipped here are explicit finite state machines rather
than coroutines, for one load-bearing reason: their *entire* strategy
state is a small tuple, so :meth:`~repro.sim.drivers.Driver.fingerprint`
can expose it and runs can be certified by the lasso detector whenever
the implementation side cooperates (constant or shift-normalisable
state).  Horizon verdicts remain the fallback when stored response
values grow without bound (e.g. the ``v'+1`` writes of the TM
strategy).

This module provides the shared small-step helpers: invoke-then-await
bookkeeping for driving one process's operation to completion, and
round-robin awaiting for concurrent batches.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Hashable, Optional, TYPE_CHECKING

from repro.sim.drivers import Driver
from repro.util.errors import AdversaryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import RuntimeView


class AdversaryDriver(Driver):
    """Base class for adversary strategies.

    Subclasses implement :meth:`decide` using the helpers below and
    expose their machine state via :meth:`machine_state` (folded into
    the driver fingerprint).
    """

    #: Set by subclasses when the implementation escaped the strategy
    #: (e.g. the target process committed): the play is then *not* a
    #: defeat, which the exclusion reports surface explicitly.
    escaped: bool = False

    @abstractmethod
    def machine_state(self) -> Optional[Hashable]:
        """The full strategy state, or ``None`` to disable lassos."""

    def restore_machine_state(self, state: Hashable) -> None:
        """Inverse of :meth:`machine_state` (branch restore).

        Subclasses that participate in the branching liveness search
        implement this; the default refuses so a missing implementation
        fails loudly instead of silently resuming a stale strategy.
        """
        raise NotImplementedError(
            f"adversary {self.name!r} does not support state restore"
        )

    def fingerprint(self) -> Optional[Hashable]:
        state = self.machine_state()
        if state is None:
            return None
        return (type(self).__name__, state)

    def reset(self) -> None:
        self.escaped = False

    # -- capture/restore (Driver contract) ----------------------------------

    def capture_state(self) -> Hashable:
        """Machine state plus the :attr:`escaped` flag, restorable."""
        return (self.machine_state(), self.escaped)

    def restore_state(self, state: Hashable) -> None:
        machine_state, escaped = state
        self.restore_machine_state(machine_state)
        self.escaped = escaped

    # -- small-step helpers -------------------------------------------------

    @staticmethod
    def await_one(view: "RuntimeView", pid: int) -> Optional[Any]:
        """If ``pid`` is mid-operation, return ``None`` (caller should
        emit a step); once the response arrived, return its value."""
        if view.is_pending(pid):
            return None
        response = view.last_response(pid)
        if response is None:
            raise AdversaryError(
                f"await_one(p{pid}) called before any invocation completed"
            )
        return response.value

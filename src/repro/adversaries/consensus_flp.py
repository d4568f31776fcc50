"""Consensus adversaries (Section 4.1's corollary and Theorem 5.2).

Three artifacts:

* :func:`f1_adversary_set` / :func:`f2_adversary_set` — the paper's
  explicit six-history adversary sets w.r.t. wait-freedom and
  agreement & validity for register-based consensus.  ``F1`` contains
  the histories in which two processes propose different values with
  ``p_a`` invoking first and at least one of the two not deciding;
  ``F2`` is the process-swapped twin.  Their disjointness (every
  ``F1`` history begins with an event of ``p_a``, every ``F2`` history
  with one of ``p_b``) gives ``Gmax = ∅`` and Corollary 4.5.

* :class:`LockstepConsensusAdversary` — the concrete strategy behind
  the impossibility cited from Chor–Israeli–Li [5]: make both processes
  propose different values and advance them in strict alternation.
  Against the shipped register-only consensus this drives the run into
  a provable lasso in which neither process decides, witnessing that
  ``(1,2)``-freedom (and everything stronger) excludes agreement &
  validity (Theorem 5.2's negative half).  The adversary state is a
  two-value machine, so runs are exactly fingerprintable.

* :func:`histories_match_f1` — the predicate form of ``F1`` that
  recognises *prefixes*: used to validate that concrete plays populate
  the paper's adversary set.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, TYPE_CHECKING

from repro.core.adversary import FiniteAdversarySet
from repro.core.events import Invocation, Response, is_invocation
from repro.core.history import History, history_of
from repro.sim.drivers import InvokeDecision, StepDecision, StopDecision
from repro.adversaries.base import AdversaryDriver

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import RuntimeView


def f1_adversary_set(
    first: int = 0, second: int = 1, v: Any = 0, v_prime: Any = 1, name: str = "F1"
) -> FiniteAdversarySet:
    """The paper's ``F1``: six histories, ``p_first`` invokes first.

    Verbatim from Section 4.1 (with the paper's ``p1, p2`` rendered as
    ``p_first, p_second`` and decisions as ``propose`` responses)::

        propose_1(v) . propose_2(v')
        propose_1(v) . v_1 . propose_2(v')
        propose_1(v) . propose_2(v') . v_1
        propose_1(v) . propose_2(v') . v'_1
        propose_1(v) . propose_2(v') . v_2
        propose_1(v) . propose_2(v') . v'_2
    """
    inv_first = Invocation(first, "propose", (v,))
    inv_second = Invocation(second, "propose", (v_prime,))

    def decide(pid: int, value: Any) -> Response:
        return Response(pid, "propose", value)

    histories = (
        history_of(inv_first, inv_second),
        history_of(inv_first, decide(first, v), inv_second),
        history_of(inv_first, inv_second, decide(first, v)),
        history_of(inv_first, inv_second, decide(first, v_prime)),
        history_of(inv_first, inv_second, decide(second, v)),
        history_of(inv_first, inv_second, decide(second, v_prime)),
    )
    return FiniteAdversarySet(histories, name=name)


def f2_adversary_set(v: Any = 0, v_prime: Any = 1) -> FiniteAdversarySet:
    """The process-swapped twin ``F2`` (``p2`` invokes first)."""
    return f1_adversary_set(first=1, second=0, v=v, v_prime=v_prime, name="F2")


def histories_match_f1(history: History, first: int = 0, second: int = 1) -> bool:
    """True if ``history`` extends the ``F1`` shape.

    The shape: the first two invocations are proposals by ``first``
    then ``second`` with different argument values, and at most one of
    the two processes has decided.  Concrete adversary plays are
    validated against this predicate (a play that stops inside ``F1``
    has a prefix literally in the six-history set).
    """
    invocations = [e for e in history if is_invocation(e)]
    if len(invocations) < 2:
        return False
    head, nxt = invocations[0], invocations[1]
    if (head.process, nxt.process) != (first, second):
        return False
    if head.operation != "propose" or nxt.operation != "propose":
        return False
    if head.args == nxt.args:
        return False
    deciders = {e.process for e in history.responses()}
    return len(deciders & {first, second}) <= 1


class LockstepConsensusAdversary(AdversaryDriver):
    """Propose different values, then alternate the two processes.

    Phases: invoke ``propose(v)`` on ``first``; invoke ``propose(v')``
    on ``second``; then strict alternation of steps, forever (the run
    ends by lasso or budget).  If either process ever decides, the
    strategy keeps playing — the liveness verdict on the resulting
    summary is what decides whether the implementation escaped.
    """

    def __init__(self, first: int = 0, second: int = 1, v: Any = 0, v_prime: Any = 1):
        self.first = first
        self.second = second
        self.v = v
        self.v_prime = v_prime
        self.name = f"lockstep-consensus(p{first} first)"
        self._phase = 0  # 0: invoke first, 1: invoke second, 2+: alternate
        self._turn = 0

    def decide(self, view: "RuntimeView"):
        if self._phase == 0:
            self._phase = 1
            return InvokeDecision(self.first, "propose", (self.v,))
        if self._phase == 1:
            self._phase = 2
            return InvokeDecision(self.second, "propose", (self.v_prime,))
        order = (self.first, self.second)
        for offset in range(2):
            pid = order[(self._turn + offset) % 2]
            if view.is_pending(pid):
                self._turn = (self._turn + offset + 1) % 2
                return StepDecision(pid)
        # Both processes decided: the implementation escaped the
        # adversary (expected for CAS/TAS-based consensus).
        self.escaped = True
        return StopDecision(reason="both processes decided", fair=True)

    def machine_state(self) -> Optional[Hashable]:
        return (self._phase, self._turn)

    def restore_machine_state(self, state: Hashable) -> None:
        self._phase, self._turn = state

    def reset(self) -> None:
        super().reset()
        self._phase = 0
        self._turn = 0

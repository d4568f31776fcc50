"""Consensus object type and its safety property (agreement + validity).

Each process proposes a value with ``propose(v)`` and receives a decided
value.  The safety property of Section 4.1's consensus corollary:

* **agreement** — all decided values are equal;
* **validity** — the decided value was proposed by one of the processes
  (before the decision, which in a well-formed history is implied by its
  proposer having invoked ``propose``).

Both clauses are violation-monotone, so the checker is prefix-closed.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.core.events import is_invocation, is_response
from repro.core.history import History
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode, SequentialSpec
from repro.core.properties import SafetyProperty, Verdict
from repro.util.errors import SpecificationError


class ConsensusSpec(SequentialSpec):
    """Sequential consensus: the first proposal wins.

    State is the decided value (``None`` before any proposal).
    """

    def initial_state(self) -> Any:
        return None

    def apply(self, state: Any, operation: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if operation != "propose" or len(args) != 1:
            raise SpecificationError(
                f"consensus spec has only propose(v); got {operation}{args!r}"
            )
        decided = args[0] if state is None else state
        return decided, decided


def consensus_object_type(values: Sequence[Any] = (0, 1)) -> ObjectType:
    """Build the consensus object type over a finite proposal domain."""
    values = tuple(values)
    return ObjectType(
        name="consensus",
        operations=(
            OperationSignature(
                name="propose",
                argument_domains=(values,),
                response_domain=values,
            ),
        ),
        good_response=lambda response: True,  # any decision is progress
        progress_mode=ProgressMode.EVENTUAL,
    )


class AgreementValidity(SafetyProperty):
    """Agreement and validity of consensus histories."""

    name = "agreement-validity"

    def check_history(self, history: History) -> Verdict:
        proposed = set()
        decided: Optional[Any] = None
        for event in history:
            if is_invocation(event) and event.operation == "propose":
                if len(event.args) != 1:
                    return Verdict.failed(
                        f"malformed propose invocation {event}", witness=history
                    )
                proposed.add(event.args[0])
            elif is_response(event) and event.operation == "propose":
                value = event.value
                if value not in proposed:
                    return Verdict.failed(
                        f"validity violation: p{event.process} decided "
                        f"{value!r}, which no process proposed",
                        witness=history,
                    )
                if decided is None:
                    decided = value
                elif value != decided:
                    return Verdict.failed(
                        f"agreement violation: decisions {decided!r} and "
                        f"{value!r} both occur",
                        witness=history,
                    )
        return Verdict.passed("all decisions agree and are proposed values")

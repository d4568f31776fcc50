"""k-set agreement: the paper's "other contexts" example (Section 4).

After the consensus and TM corollaries the paper notes that the
impossibility results "can be applied to many other contexts, such as
k-set agreement [3]".  This module supplies the context: the object
type (identical interface to consensus), its safety property —

* **k-agreement**: at most ``k`` distinct values are decided;
* **validity**: every decided value was proposed —

and two implementations marking the boundary:

* :class:`OwnValueSetAgreement` — every process decides its own
  proposal immediately; wait-free, and safe exactly for ``k >= n``
  (the degenerate end where safety stops excluding anything);
* register-based consensus (``k = 1``) reused from
  :mod:`repro.algorithms.consensus`, where the lockstep adversary's
  exclusion applies verbatim — the tests replay it against
  1-set-agreement safety.

The Borowsky–Gafni generalized impossibility (no wait-free k-set
agreement from registers for n > k) is out of scope to *prove*
mechanically, but the k-parameterised checker lets the adversary
machinery express the corollaries' pattern in this context too.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.base_objects.base import ObjectPool
from repro.base_objects.register import AtomicRegister
from repro.core.events import is_invocation, is_response
from repro.core.history import History
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.core.properties import SafetyProperty, Verdict
from repro.sim.kernel import Algorithm, Implementation, Op
from repro.util.errors import SimulationError


def set_agreement_object_type(values: Sequence[Any] = (0, 1, 2)) -> ObjectType:
    """The k-set agreement object type (interface equals consensus)."""
    values = tuple(values)
    return ObjectType(
        name="set-agreement",
        operations=(
            OperationSignature(
                name="propose",
                argument_domains=(values,),
                response_domain=values,
            ),
        ),
        good_response=lambda response: True,
        progress_mode=ProgressMode.EVENTUAL,
    )


class KSetAgreement(SafetyProperty):
    """k-agreement + validity.

    ``k = 1`` is consensus agreement & validity (the checker is tested
    to coincide with :class:`~repro.objects.consensus.AgreementValidity`
    on random histories).
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.name = f"{k}-set-agreement"

    def check_history(self, history: History) -> Verdict:
        proposed = set()
        decided = set()
        for event in history:
            if is_invocation(event) and event.operation == "propose":
                proposed.add(event.args[0])
            elif is_response(event) and event.operation == "propose":
                if event.value not in proposed:
                    return Verdict.failed(
                        f"validity violation: {event.value!r} was never proposed",
                        witness=history,
                    )
                decided.add(event.value)
                if len(decided) > self.k:
                    return Verdict.failed(
                        f"{self.k}-agreement violation: decided values "
                        f"{sorted(map(repr, decided))}",
                        witness=history,
                    )
        return Verdict.passed(
            f"at most {self.k} distinct valid decisions"
        )


class OwnValueSetAgreement(Implementation):
    """Decide your own proposal: wait-free, n-set-agreement-safe.

    The degenerate positive corner: with ``k >= n`` the safety property
    excludes no liveness property at all — even ``Lmax`` is ensured.
    For any ``k < n`` it is a *negative* fixture (n distinct proposals
    violate k-agreement), which the checker tests exploit.
    """

    name = "own-value-set-agreement"

    def __init__(self, n_processes: int, object_type: Optional[ObjectType] = None):
        super().__init__(object_type or set_agreement_object_type(), n_processes)

    def create_pool(self) -> ObjectPool:
        return ObjectPool([AtomicRegister("scratch", initial=None)])

    def algorithm(
        self, pid: int, operation: str, args, memory
    ) -> Algorithm:
        if operation != "propose" or len(args) != 1:
            raise SimulationError(f"unsupported {operation}{args!r}")
        return self._propose(args[0], memory)

    @staticmethod
    def _propose(proposal: Any, memory) -> Algorithm:
        memory["pc"] = "announce"
        yield Op("scratch", "write", (proposal,))
        return proposal

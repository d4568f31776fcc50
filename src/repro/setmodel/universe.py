"""Building micro models: bounded history universes and policy families.

The finite-model layer (:mod:`repro.setmodel.model`) consumes explicit
sets; this module produces them from actual
:class:`~repro.core.object_type.ObjectType` declarations:

* :func:`enumerate_universe` — every well-formed crash-free history over
  ``ext(Tp)`` with at most ``per_process_ops`` operations per process
  (breadth-first extension, so the result is prefix-closed by
  construction);
* :func:`lmax_of` — the model's ``Lmax``: the histories in which every
  invoked operation has received a good response (the bounded-universe
  reading of "every correct process makes progress"; with crash-free
  micro models every process is correct);
* :class:`ResponsePolicy` and :func:`enumerate_policies` — deterministic
  implementations as response policies.  A policy maps a *context* —
  ``(process, its pending invocation, the set of invocations issued so
  far)`` — to a response value or :data:`SILENT`.  Policies cover the
  implementation behaviours the theorems quantify over while keeping
  the family finite; the history and fair-history sets of each policy
  are computed by intersection with the universe:

  - a history is consistent with policy ``P`` iff every response in it
    is the one ``P`` prescribes at its position;
  - a consistent history is *fair* iff no pending process has a
    prescribed (non-silent) response — i.e. no output action of the
    implementation automaton is enabled at its end (Section 3.2's
    finite-fairness clause; input actions are never required to occur).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.events import Invocation, is_response
from repro.core.history import EMPTY_HISTORY, History
from repro.core.object_type import ObjectType
from repro.setmodel.model import FiniteModel, ImplementationModel
from repro.util.errors import ModelError

#: Policy verdict: never respond to this invocation.
SILENT = ("silent",)

#: A policy context: (pid, pending invocation, invocations issued so far).
Context = Tuple[int, Invocation, FrozenSet[Invocation]]


def enumerate_universe(
    object_type: ObjectType,
    processes: Sequence[int],
    per_process_ops: int = 1,
    max_events: Optional[int] = None,
) -> FrozenSet[History]:
    """All bounded well-formed crash-free histories over ``ext(Tp)``."""
    limit = max_events if max_events is not None else 2 * per_process_ops * len(processes)
    universe = {EMPTY_HISTORY}
    frontier = [EMPTY_HISTORY]
    while frontier:
        history = frontier.pop()
        if len(history) >= limit:
            continue
        pending = history.pending_invocations()
        for pid in processes:
            if pid in pending:
                invocation = pending[pid]
                for response in object_type.responses_to(invocation):
                    extended = history.append(response)
                    if extended not in universe:
                        universe.add(extended)
                        frontier.append(extended)
            else:
                if len(history.invocations(pid)) >= per_process_ops:
                    continue
                for invocation in object_type.invocation_alphabet([pid]):
                    extended = history.append(invocation)
                    if extended not in universe:
                        universe.add(extended)
                        frontier.append(extended)
    return frozenset(universe)


def lmax_of(
    object_type: ObjectType, universe: Iterable[History]
) -> FrozenSet[History]:
    """The histories in which every invoked operation got a good
    response (the strongest liveness requirement over the bounded
    universe)."""
    satisfied = set()
    for history in universe:
        pending = history.pending_invocations()
        if pending:
            continue
        good = True
        for response in history.responses():
            if not object_type.is_good(response):
                good = False
                break
        if good:
            satisfied.add(history)
    return frozenset(satisfied)


class ResponsePolicy:
    """A deterministic implementation given by a response rule."""

    def __init__(self, name: str, rule: Callable[[Context], Any]):
        self.name = name
        self._rule = rule

    def response_for(self, context: Context) -> Any:
        """The prescribed response value, or :data:`SILENT`."""
        return self._rule(context)

    @staticmethod
    def context_at(history: History, position: int) -> Context:
        """The context of the response event at ``position``."""
        event = history[position]
        if not is_response(event):
            raise ModelError("context_at expects a response position")
        prefix = history[:position]
        pending = prefix.pending_invocations()
        invocation = pending[event.process]
        issued = frozenset(prefix.invocations())
        return (event.process, invocation, issued)

    def histories_in(self, universe: Iterable[History]) -> FrozenSet[History]:
        """Universe histories consistent with this policy."""
        consistent = set()
        for history in universe:
            if self._consistent(history):
                consistent.add(history)
        return frozenset(consistent)

    def _consistent(self, history: History) -> bool:
        for position, event in enumerate(history):
            if not is_response(event):
                continue
            context = self.context_at(history, position)
            prescribed = self.response_for(context)
            if prescribed is SILENT or prescribed != event.value:
                return False
        return True

    def fair_in(self, histories: Iterable[History]) -> FrozenSet[History]:
        """Consistent histories at which no response is enabled."""
        fair = set()
        for history in histories:
            enabled = False
            for pid, invocation in history.pending_invocations().items():
                issued = frozenset(history.invocations())
                if self.response_for((pid, invocation, issued)) is not SILENT:
                    enabled = True
                    break
            if not enabled:
                fair.add(history)
        return frozenset(fair)

    def as_implementation(
        self, universe: Iterable[History]
    ) -> ImplementationModel:
        """Materialise the policy over a universe."""
        histories = self.histories_in(universe)
        return ImplementationModel(
            name=self.name, histories=histories, fair=self.fair_in(histories)
        )


def silent_policy(name: str = "silent") -> ResponsePolicy:
    """The trivial implementation of Theorem 4.9's proof: never
    responds."""
    return ResponsePolicy(name, lambda context: SILENT)


def constant_policy(value: Any, name: Optional[str] = None) -> ResponsePolicy:
    """Respond ``value`` to every invocation, immediately."""
    return ResponsePolicy(name or f"const({value!r})", lambda context: value)


def enumerate_policies(
    object_type: ObjectType,
    processes: Sequence[int],
    universe: Iterable[History],
    include_silent_choice: bool = True,
    max_policies: int = 4096,
) -> List[ResponsePolicy]:
    """Every deterministic context-based policy over the universe.

    Contexts are collected from the universe; each context independently
    picks one declared response value (or :data:`SILENT` when
    ``include_silent_choice``).  Raises :class:`ModelError` when the
    space exceeds ``max_policies`` — shrink the object type instead of
    waiting.
    """
    contexts: List[Context] = []
    seen = set()
    for history in sorted(universe, key=lambda h: (len(h), repr(h))):
        for pid, invocation in history.pending_invocations().items():
            context = (pid, invocation, frozenset(history.invocations()))
            if context not in seen:
                seen.add(context)
                contexts.append(context)
    choice_lists: List[List[Any]] = []
    for pid, invocation, _issued in contexts:
        values = [r.value for r in object_type.responses_to(invocation)]
        if include_silent_choice:
            values.append(SILENT)
        choice_lists.append(values)
    total = 1
    for values in choice_lists:
        total *= len(values)
    if total > max_policies:
        raise ModelError(
            f"policy space has {total} members (> {max_policies}); "
            "shrink the object type or the universe"
        )
    policies: List[ResponsePolicy] = []
    for assignment in itertools.product(*choice_lists):
        table = dict(zip(contexts, assignment))

        def rule(context: Context, _table=table) -> Any:
            return _table.get(context, SILENT)

        label = ",".join(
            "s" if value is SILENT else repr(value) for value in assignment
        )
        policies.append(ResponsePolicy(f"policy[{label}]", rule))
    return policies


def safety_is_admissible(
    object_type: ObjectType,
    processes: Sequence[int],
    safety: Iterable[History],
) -> bool:
    """Section 3.1's standing assumption on safety properties.

    "For each ``inv ∈ Inv`` and each process ``p_i`` there exists
    ``res ∈ Res`` such that ``inv_i · res_i ∈ S``" — a safety property
    must allow at least one response for every invocation executed
    sequentially from the initial state.  Theorem 4.9's proof uses
    this, and :func:`repro.setmodel.theorem49.negative_model` documents
    what happens without it.
    """
    safety_set = frozenset(safety)
    for pid in processes:
        for invocation in object_type.invocation_alphabet([pid]):
            if not any(
                History((invocation, response)) in safety_set
                for response in object_type.responses_to(invocation)
            ):
                return False
    return True


def build_model(
    object_type: ObjectType,
    processes: Sequence[int],
    policies: Sequence[ResponsePolicy],
    per_process_ops: int = 1,
    name: str = "micro-model",
    max_exponent: int = 18,
) -> FiniteModel:
    """Assemble a :class:`FiniteModel` from an object type and policies."""
    universe = enumerate_universe(object_type, processes, per_process_ops)
    lmax = lmax_of(object_type, universe)
    implementations = tuple(
        policy.as_implementation(universe) for policy in policies
    )
    return FiniteModel(
        universe=universe,
        lmax=lmax,
        implementations=implementations,
        name=name,
        max_exponent=max_exponent,
    )

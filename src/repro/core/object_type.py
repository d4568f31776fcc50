"""Shared object types ``Tp = (St, Inv, Res, Seq)`` (Section 2).

An object type bundles the invocation and response alphabets of a shared
object with the *progress semantics*
used by liveness properties (Section 5.1): the set ``G_Tp`` of "good"
responses that constitute progress, and whether progress means receiving a
good response *eventually* (one-shot objects such as consensus) or
*repeatedly* (long-lived objects such as transactional memory).  The
sequential specification ``Seq`` is not part of the bundle: each object's
safety checker decides its histories.
"""

from __future__ import annotations

import enum
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.core.events import Invocation, Response
from repro.util.errors import SpecificationError, unknown_choice


class ProgressMode(enum.Enum):
    """How 'process p makes progress' is interpreted for an object type.

    Section 5.1 defines progress as receiving infinitely many good
    responses.  That reading only makes sense for long-lived objects; for
    one-shot objects such as consensus the literature (and the paper's own
    consensus corollaries) read progress as *eventually deciding*.  The
    object type records which reading applies.
    """

    EVENTUAL = "eventual"
    REPEATED = "repeated"


class SequentialSpec(ABC):
    """A sequential specification ``Seq ⊆ Inv × St × St × Res``.

    Modeled as a (possibly nondeterministic) labelled transition system
    over specification states.  Deterministic specs implement
    :meth:`apply`; nondeterministic specs may instead override
    :meth:`successors`.
    """

    @abstractmethod
    def initial_state(self) -> Any:
        """The initial specification state (must be hashable)."""

    def apply(self, state: Any, operation: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        """Deterministically apply an operation.

        Returns ``(new_state, response_value)``.  Raises
        :class:`SpecificationError` if the operation is not applicable.
        The default implementation picks the unique successor.
        """
        options = list(self.successors(state, operation, args))
        if not options:
            raise SpecificationError(
                f"no transition for {operation}{args!r} from state {state!r}"
            )
        if len(options) > 1:
            raise SpecificationError(
                f"spec is nondeterministic for {operation}{args!r}; "
                "use successors() instead of apply()"
            )
        return options[0]

    def successors(
        self, state: Any, operation: str, args: Tuple[Any, ...]
    ) -> Iterable[Tuple[Any, Any]]:
        """All ``(new_state, response_value)`` pairs for an operation.

        The default implementation delegates to :meth:`apply`, so
        deterministic specs only implement that method.
        """
        yield self.apply(state, operation, args)

    def accepts(self, operations: Sequence[Tuple[str, Tuple[Any, ...], Any]]) -> bool:
        """Check a sequential run ``[(op, args, response_value), ...]``.

        Returns True iff there is a path through the specification whose
        response values match.  Handles nondeterminism by breadth-first
        search over reachable states.
        """
        states = {self._freeze(self.initial_state())}
        frontier: List[Any] = [self.initial_state()]
        for operation, args, expected in operations:
            next_frontier: List[Any] = []
            seen = set()
            for state in frontier:
                try:
                    options = self.successors(state, operation, args)
                except SpecificationError:
                    continue
                for new_state, value in options:
                    if value != expected:
                        continue
                    key = self._freeze(new_state)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append(new_state)
            if not next_frontier:
                return False
            frontier = next_frontier
            states = seen
        return True

    @staticmethod
    def _freeze(state: Any) -> Any:
        """Best-effort hashable form of a state for visited-set tracking."""
        if isinstance(state, dict):
            return tuple(sorted((k, SequentialSpec._freeze(v)) for k, v in state.items()))
        if isinstance(state, (list, tuple)):
            return tuple(SequentialSpec._freeze(v) for v in state)
        if isinstance(state, set):
            return frozenset(SequentialSpec._freeze(v) for v in state)
        return state


@dataclass
class OperationSignature:
    """Finite description of one operation of an object type.

    ``argument_domains`` gives, per positional argument, the finite set of
    values that may be passed; ``response_domain`` is the finite set of
    response values the object may return.  Both are only needed by the
    finite set-theoretic model and the exhaustive explorers; the simulator
    does not restrict arguments.
    """

    name: str
    argument_domains: Tuple[Tuple[Any, ...], ...] = ()
    response_domain: Tuple[Any, ...] = ()

    def invocations_for(self, process: int) -> Iterator[Invocation]:
        """Enumerate every invocation of this operation by ``process``."""
        for args in itertools.product(*self.argument_domains):
            yield Invocation(process=process, operation=self.name, args=args)

    def responses_for(self, process: int) -> Iterator[Response]:
        """Enumerate every response to this operation for ``process``."""
        for value in self.response_domain:
            yield Response(process=process, operation=self.name, value=value)


@dataclass
class ObjectType:
    """The alphabets of a shared object type plus its progress data.

    Attributes
    ----------
    name:
        Human-readable type name (``"consensus"``, ``"tm"``, ...).
    operations:
        Signatures of the operations in ``Inv``.
    good_response:
        Predicate selecting ``G_Tp ⊆ Res`` — the responses that constitute
        progress (Section 5.1).  Defaults to "every response is good".
    progress_mode:
        See :class:`ProgressMode`.
    """

    name: str
    operations: Tuple[OperationSignature, ...]
    good_response: Callable[[Response], bool] = field(default=lambda response: True)
    progress_mode: ProgressMode = ProgressMode.REPEATED

    def operation_names(self) -> Tuple[str, ...]:
        """The names of all operations."""
        return tuple(sig.name for sig in self.operations)

    def signature(self, operation: str) -> OperationSignature:
        """Look up the signature of ``operation``."""
        for sig in self.operations:
            if sig.name == operation:
                return sig
        raise unknown_choice(
            f"operation on type {self.name!r}", operation,
            self.operation_names(),
        )

    # -- finite alphabets (used by repro.setmodel and the explorers) --------

    def invocation_alphabet(self, processes: Sequence[int]) -> List[Invocation]:
        """All invocations over declared argument domains."""
        out: List[Invocation] = []
        for pid in processes:
            for sig in self.operations:
                out.extend(sig.invocations_for(pid))
        return out

    def responses_to(self, invocation: Invocation) -> List[Response]:
        """All declared responses that may answer ``invocation``."""
        sig = self.signature(invocation.operation)
        return list(sig.responses_for(invocation.process))

    def is_good(self, response: Response) -> bool:
        """True if the response belongs to ``G_Tp``."""
        return bool(self.good_response(response))

"""Histories: finite sequences of external actions (Section 2).

A history is the externally visible part of an execution.  Following the
paper we only ever manipulate *well-formed* histories: the projection
``h | p_i`` of a history onto each process is an alternating sequence of
invocations and responses beginning with an invocation, and no event of a
process follows that process's crash.

:class:`History` is an immutable value object.  All derived views
(projections, pending processes, operations) are computed lazily and
cached, so a history can be extended event-by-event by the simulator
without quadratic recomputation: :meth:`History.append` shares no mutable
state with its parent.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.events import (
    Event,
    Invocation,
    Operation,
    Response,
    is_crash,
    is_invocation,
    is_response,
)
from repro.util.errors import IllFormedHistoryError


class History:
    """An immutable finite history of invocation/response/crash events."""

    __slots__ = ("_events", "_cache")

    def __init__(self, events: Iterable[Event] = (), validate: bool = True):
        self._events: Tuple[Event, ...] = tuple(events)
        self._cache: Dict[str, Any] = {}
        if validate:
            self.check_well_formed()

    # -- basic sequence protocol -------------------------------------------

    @property
    def events(self) -> Tuple[Event, ...]:
        """The underlying event tuple."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        picked = self._events[index]
        if isinstance(index, slice):
            return History(picked, validate=False)
        return picked

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return f"History({list(map(str, self._events))})"

    def __str__(self) -> str:
        return " . ".join(str(e) for e in self._events) if self._events else "<empty>"

    # -- well-formedness ----------------------------------------------------

    def check_well_formed(self) -> None:
        """Raise :class:`IllFormedHistoryError` unless well-formed.

        Well-formedness (Section 2): for every process, events alternate
        invocation/response starting with an invocation, responses match
        the preceding invocation's operation, and nothing follows a crash.
        """
        pending: Dict[int, Invocation] = {}
        crashed: Set[int] = set()
        for position, event in enumerate(self._events):
            pid = event.process
            if pid in crashed:
                raise IllFormedHistoryError(
                    f"event {event} at index {position} follows crash of p{pid}"
                )
            if is_invocation(event):
                if pid in pending:
                    raise IllFormedHistoryError(
                        f"process p{pid} invokes {event} at index {position} "
                        f"while {pending[pid]} is pending"
                    )
                pending[pid] = event  # type: ignore[assignment]
            elif is_response(event):
                if pid not in pending:
                    raise IllFormedHistoryError(
                        f"response {event} at index {position} has no pending "
                        f"invocation for p{pid}"
                    )
                invocation = pending.pop(pid)
                if invocation.operation != event.operation:  # type: ignore[union-attr]
                    raise IllFormedHistoryError(
                        f"response {event} at index {position} does not match "
                        f"pending invocation {invocation}"
                    )
            elif is_crash(event):
                pending.pop(pid, None)
                crashed.add(pid)
            else:  # pragma: no cover - defensive
                raise IllFormedHistoryError(f"unknown event type: {event!r}")

    @staticmethod
    def is_well_formed(events: Sequence[Event]) -> bool:
        """Return True if ``events`` forms a well-formed history."""
        try:
            History(events)
        except IllFormedHistoryError:
            return False
        return True

    # -- derived views -------------------------------------------------------

    def _cached(self, key: str, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def processes(self) -> Tuple[int, ...]:
        """Sorted identifiers of processes that appear in the history."""
        return self._cached(
            "processes",
            lambda: tuple(sorted({e.process for e in self._events})),
        )

    def project(self, pid: int) -> "History":
        """The projection ``h | p_i``: events of process ``pid`` only."""
        key = f"project:{pid}"
        return self._cached(
            key,
            lambda: History(
                (e for e in self._events if e.process == pid), validate=False
            ),
        )

    def crashed_processes(self) -> Set[int]:
        """Processes with a crash event in the history."""
        return self._cached(
            "crashed",
            lambda: {e.process for e in self._events if is_crash(e)},
        )

    def correct_processes(self) -> Set[int]:
        """Processes appearing in the history that never crash in it."""
        crashed = self.crashed_processes()
        return {p for p in self.processes if p not in crashed}

    def pending_invocations(self) -> Dict[int, Invocation]:
        """Mapping from pending process id to its pending invocation."""

        def compute() -> Dict[int, Invocation]:
            pending: Dict[int, Invocation] = {}
            for event in self._events:
                if is_invocation(event):
                    pending[event.process] = event  # type: ignore[assignment]
                elif is_response(event):
                    pending.pop(event.process, None)
                elif is_crash(event):
                    pending.pop(event.process, None)
            return pending

        return dict(self._cached("pending", compute))

    def is_pending(self, pid: int) -> bool:
        """True if process ``pid`` has an invocation without a response."""
        return pid in self.pending_invocations()

    def operations(self, pid: Optional[int] = None) -> List[Operation]:
        """Operation instances in invocation order.

        Each invocation is paired with its matching response (or ``None``
        if pending).  If ``pid`` is given, restrict to that process.
        """

        def compute() -> List[Operation]:
            open_ops: Dict[int, Tuple[Invocation, int]] = {}
            finished: List[Operation] = []
            for position, event in enumerate(self._events):
                if is_invocation(event):
                    open_ops[event.process] = (event, position)  # type: ignore[assignment]
                elif is_response(event):
                    invocation, start = open_ops.pop(event.process)
                    finished.append(
                        Operation(
                            invocation=invocation,
                            response=event,  # type: ignore[arg-type]
                            index=start,
                            response_index=position,
                        )
                    )
                elif is_crash(event):
                    if event.process in open_ops:
                        invocation, start = open_ops.pop(event.process)
                        finished.append(
                            Operation(
                                invocation=invocation,
                                response=None,
                                index=start,
                                response_index=None,
                            )
                        )
            for invocation, start in open_ops.values():
                finished.append(
                    Operation(
                        invocation=invocation,
                        response=None,
                        index=start,
                        response_index=None,
                    )
                )
            finished.sort(key=lambda op: op.index)
            return finished

        ops: List[Operation] = self._cached("operations", compute)
        if pid is None:
            return list(ops)
        return [op for op in ops if op.process == pid]

    def responses(self, pid: Optional[int] = None) -> List[Response]:
        """All response events, optionally restricted to one process."""
        return [
            e  # type: ignore[misc]
            for e in self._events
            if is_response(e) and (pid is None or e.process == pid)
        ]

    def invocations(self, pid: Optional[int] = None) -> List[Invocation]:
        """All invocation events, optionally restricted to one process."""
        return [
            e  # type: ignore[misc]
            for e in self._events
            if is_invocation(e) and (pid is None or e.process == pid)
        ]

    # -- structural operations ------------------------------------------------

    def append(self, event: Event) -> "History":
        """Return a new history extending this one by ``event``.

        The single-event extension is validated incrementally (O(1) given
        the cached pending/crash views), so the simulator can build long
        histories in linear total time.
        """
        pid = event.process
        if pid in self.crashed_processes():
            raise IllFormedHistoryError(
                f"cannot extend: process p{pid} already crashed"
            )
        pending = self.pending_invocations()
        if is_invocation(event) and pid in pending:
            raise IllFormedHistoryError(
                f"cannot extend: p{pid} already has pending {pending[pid]}"
            )
        if is_response(event):
            if pid not in pending:
                raise IllFormedHistoryError(
                    f"cannot extend with {event}: p{pid} has no pending invocation"
                )
            if pending[pid].operation != event.operation:  # type: ignore[union-attr]
                raise IllFormedHistoryError(
                    f"cannot extend with {event}: pending operation is "
                    f"{pending[pid].operation}"
                )
        return History(self._events + (event,), validate=False)

    def extend(self, events: Iterable[Event]) -> "History":
        """Return a new history extended by each event in order."""
        history = self
        for event in events:
            history = history.append(event)
        return history

    def concat(self, other: "History") -> "History":
        """Concatenate two histories (re-validating the result)."""
        return History(self._events + other._events)

    def is_prefix_of(self, other: "History") -> bool:
        """True if this history is a (not necessarily proper) prefix of
        ``other``."""
        if len(self) > len(other):
            return False
        return other._events[: len(self)] == self._events

    def prefixes(self) -> Iterator["History"]:
        """Yield every prefix, from the empty history to the full one."""
        for end in range(len(self._events) + 1):
            yield History(self._events[:end], validate=False)

    def drop_crashes(self) -> "History":
        """The history with crash events removed.

        Useful when feeding a history to a safety checker that reasons only
        about invocations and responses (crashes never violate safety: a
        safety property is prefix-closed and crashes add no responses).
        """
        return History(
            (e for e in self._events if not is_crash(e)), validate=False
        )

    def without_pending(self) -> "History":
        """The history restricted to completed operations.

        Invocations that never receive a response (including those cut off
        by a crash) are removed, as are crash events.  This is one of the
        simplest *completions* in the sense of Section 4.1; richer,
        type-aware completions live with the per-type checkers.
        """
        keep: Set[int] = set()
        for op in self.operations():
            if op.response is not None and op.response_index is not None:
                keep.add(op.index)
                keep.add(op.response_index)
        return History(
            (e for i, e in enumerate(self._events) if i in keep),
            validate=False,
        )


EMPTY_HISTORY = History(())


def history_of(*events: Event) -> History:
    """Convenience constructor: ``history_of(e1, e2, ...)``."""
    return History(events)

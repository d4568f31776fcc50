"""Events of shared-memory histories.

Section 2 of the paper models an implementation as an I/O automaton whose
external actions are *invocations* ``inv_i`` and *responses* ``res_i``
(subscripted by process), plus a special ``crash_i`` input action per
process.  A history is the subsequence of an execution consisting only of
these external actions.

This module defines the three event kinds as immutable tuples: each
event is a tuple subclass whose first item, ``tag``, is its class name,
so events of different kinds never compare or hash equal, and equality
and hashing are the tuple's own C code.  A verification builds and
hashes events millions of times; a frozen dataclass costs about 1.4
times as much to build and 2.5–3.5 times as much to hash
(``docs/architecture.md``, "Value types on the step path").  Events are
hashable and totally ordered (by a stable sort key) so they can be used
as alphabet symbols in the finite set-theoretic model
(``repro.setmodel``) as well as as trace entries in the simulator
(``repro.sim``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, Tuple, Union

_tuple_new = tuple.__new__

# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------


class Invocation(namedtuple("Invocation", ("tag", "process", "operation", "args"))):
    """An invocation action ``inv_i`` of the shared object.

    Attributes
    ----------
    process:
        Identifier of the invoking process ``p_i`` (0-based integer).
    operation:
        Operation name drawn from the object type's invocation alphabet,
        e.g. ``"propose"`` for consensus or ``"tryC"`` for TM.
    args:
        Operation arguments; must be hashable.
    """

    __slots__ = ()
    __match_args__ = ("process", "operation", "args")

    def __new__(cls, process: int, operation: str, args: Tuple[Any, ...] = ()):
        return _tuple_new(cls, ("Invocation", process, operation, args))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return self[1:]

    def __repr__(self) -> str:
        return (
            f"Invocation(process={self[1]!r}, operation={self[2]!r}, "
            f"args={self[3]!r})"
        )

    def sort_key(self) -> Tuple[Any, ...]:
        """A stable total-order key used by the finite model."""
        return (0, self.process, self.operation, repr(self.args))

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.operation}({rendered})_{self.process}"


class Response(namedtuple("Response", ("tag", "process", "operation", "value"))):
    """A response action ``res_i`` of the shared object.

    Attributes
    ----------
    process:
        Identifier of the responding process ``p_i``.
    operation:
        The operation name of the invocation this response completes.  The
        paper's histories carry only the response value; we additionally
        record the operation for readability and checking, since in a
        well-formed history the operation is uniquely determined anyway.
    value:
        The response value (must be hashable).  Object types interpret the
        value: for consensus it is the decided value, for TM it is one of
        the sentinels in :mod:`repro.objects.tm` (``OK``, ``COMMITTED``,
        ``ABORTED``) or a read value.
    """

    __slots__ = ()
    __match_args__ = ("process", "operation", "value")

    def __new__(cls, process: int, operation: str, value: Any = None):
        return _tuple_new(cls, ("Response", process, operation, value))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return self[1:]

    def __repr__(self) -> str:
        return (
            f"Response(process={self[1]!r}, operation={self[2]!r}, "
            f"value={self[3]!r})"
        )

    def sort_key(self) -> Tuple[Any, ...]:
        return (1, self.process, self.operation, repr(self.value))

    def __str__(self) -> str:
        return f"{self.operation}->{self.value!r}_{self.process}"


class Crash(namedtuple("Crash", ("tag", "process"))):
    """The special input action ``crash_i`` (Section 2).

    After ``crash_i`` occurs, process ``p_i`` takes no further steps; a
    history containing an event of ``p_i`` after ``crash_i`` is ill-formed.
    """

    __slots__ = ()
    __match_args__ = ("process",)

    def __new__(cls, process: int):
        return _tuple_new(cls, ("Crash", process))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return self[1:]

    def __repr__(self) -> str:
        return f"Crash(process={self[1]!r})"

    def sort_key(self) -> Tuple[Any, ...]:
        return (2, self.process, "", "")

    def __str__(self) -> str:
        return f"crash_{self.process}"


Event = Union[Invocation, Response, Crash]

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def is_invocation(event: Event) -> bool:
    """Return True if ``event`` is an :class:`Invocation`."""
    return isinstance(event, Invocation)


def is_response(event: Event) -> bool:
    """Return True if ``event`` is a :class:`Response`."""
    return isinstance(event, Response)


def is_crash(event: Event) -> bool:
    """Return True if ``event`` is a :class:`Crash`."""
    return isinstance(event, Crash)


def matches(invocation: Invocation, response: Response) -> bool:
    """Return True if ``response`` may complete ``invocation``.

    In a well-formed history per-process events alternate, so a response
    matches the immediately preceding invocation of the same process; this
    predicate additionally checks process and operation agreement, which is
    useful as a defensive assertion in the simulator.
    """
    return (
        invocation.process == response.process
        and invocation.operation == response.operation
    )


@dataclass(frozen=True)
class Operation:
    """A (possibly pending) operation instance reconstructed from a history.

    ``response`` is ``None`` while the operation is pending.  ``index`` is
    the position of the invocation event within the source history, which
    gives operations a stable identity and a real-time order:  operation A
    precedes operation B iff A's response index is smaller than B's
    invocation index.
    """

    invocation: Invocation
    response: Union[Response, None]
    index: int
    response_index: Union[int, None] = field(default=None)

    @property
    def process(self) -> int:
        """The invoking process."""
        return self.invocation.process

    @property
    def is_pending(self) -> bool:
        """True while the operation has no response."""
        return self.response is None

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this operation completed before ``other``
        was invoked."""
        if self.response_index is None:
            return False
        return self.response_index < other.index

    def __str__(self) -> str:
        left = str(self.invocation)
        right = "pending" if self.response is None else str(self.response)
        return f"[{left} .. {right}]"

"""Test-and-set base object.

A one-shot synchronization primitive with consensus number 2: it solves
consensus for two processes but not three.  Used by the two-process
consensus algorithm and the test-and-set lock.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError

_CLEAR = ("tas", False)
_SET = ("tas", True)


class TestAndSet(BaseObject):
    """A test-and-set bit; its state is ``("tas", bit)``.

    (``__test__ = False`` below only tells pytest this is not a test
    class, despite the Test- prefix.)

    Primitives:

    * ``test_and_set()`` — atomically set the bit and return its
      *previous* value (``False`` exactly once: the winner);
    * ``read()`` — current value;
    * ``clear()`` — reset the bit (used by locks for release).
    """

    __test__ = False

    def methods(self) -> Tuple[str, ...]:
        return ("test_and_set", "read", "clear")

    def initial_state(self) -> Hashable:
        return _CLEAR

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "test_and_set":
            if args:
                raise SimulationError("test_and_set takes no arguments")
            return state[1], _SET
        if method == "read":
            if args:
                raise SimulationError("read takes no arguments")
            return state[1], state
        if method == "clear":
            if args:
                raise SimulationError("clear takes no arguments")
            return None, _CLEAR
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        return ("read" if method == "read" else "write", None)

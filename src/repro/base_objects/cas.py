"""Compare-and-swap base object.

Algorithm 1 of the paper (``I(1,2)``) uses a single compare-and-swap
object ``C`` that holds a version number and the values of every
transactional variable; the AGP TM uses the same object.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError


class CompareAndSwap(BaseObject):
    """A compare-and-swap register; its state is ``("cas", value)``.

    Primitives:

    * ``read()`` — current value;
    * ``write(value)`` — unconditional store;
    * ``compare_and_swap(expected, new)`` — atomically: if the current
      value equals ``expected``, store ``new`` and return ``True``;
      otherwise leave the value unchanged and return ``False``.
    """

    def __init__(self, name: str, initial: Any = None):
        super().__init__(name)
        self._initial = initial

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write", "compare_and_swap")

    def initial_state(self) -> Hashable:
        return ("cas", self._initial)

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "read":
            if args:
                raise SimulationError("read takes no arguments")
            return state[1], state
        if method == "write":
            if len(args) != 1:
                raise SimulationError("write takes exactly one argument")
            return None, ("cas", args[0])
        if method == "compare_and_swap":
            if len(args) != 2:
                raise SimulationError(
                    "compare_and_swap takes (expected, new)"
                )
            expected, new = args
            if state[1] == expected:
                return True, ("cas", new)
            return False, state
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        # compare_and_swap is conservatively a write even when it would
        # fail: whether it fails depends on the value, which a concurrent
        # write changes — so it must conflict with everything.
        return ("read" if method == "read" else "write", None)

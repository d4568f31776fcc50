"""Fetch-and-increment counter base object."""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError


class FetchAndIncrement(BaseObject):
    """An atomic counter; its state is ``("counter", value)``.

    Primitives:

    * ``fetch_and_increment()`` — return the current value and add one;
    * ``read()`` — current value.
    """

    def __init__(self, name: str, initial: int = 0):
        super().__init__(name)
        self._initial = initial

    def methods(self) -> Tuple[str, ...]:
        return ("fetch_and_increment", "read")

    def initial_state(self) -> Hashable:
        return ("counter", self._initial)

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "fetch_and_increment":
            if args:
                raise SimulationError("fetch_and_increment takes no arguments")
            value = state[1]
            return value, ("counter", value + 1)
        if method == "read":
            if args:
                raise SimulationError("read takes no arguments")
            return state[1], state
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        return ("read" if method == "read" else "write", None)

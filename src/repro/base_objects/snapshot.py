"""Atomic snapshot object.

Algorithm 1 of the paper uses "a shared snapshot object of n registers":
process ``p_i`` may update component ``i`` and any process may ``scan``
all components atomically.  Atomic snapshots are implementable from
read/write registers in a wait-free way (Afek et al.), so granting them
as a base object does not change computability; we model them directly
as one atomic primitive for clarity and speed, as the paper's pseudocode
does.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError


class AtomicSnapshot(BaseObject):
    """A single-writer-per-component atomic snapshot object; its state
    is ``("snapshot", components)``.

    Primitives:

    * ``update(i, value)`` — store ``value`` into component ``i``;
    * ``scan()`` — return a tuple of all components, atomically;
    * ``read(i)`` — read a single component (a plain register read).
    """

    def __init__(self, name: str, size: int, initial: Any = 0):
        super().__init__(name)
        if size < 1:
            raise ValueError("snapshot size must be positive")
        self.size = size
        self._initial = initial

    def methods(self) -> Tuple[str, ...]:
        return ("update", "scan", "read")

    def initial_state(self) -> Hashable:
        return ("snapshot", (self._initial,) * self.size)

    def _check_index(self, index: Any) -> int:
        if not isinstance(index, int) or not 0 <= index < self.size:
            raise SimulationError(
                f"component {index!r} out of range for snapshot {self.name!r} "
                f"of size {self.size}"
            )
        return index

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "update":
            if len(args) != 2:
                raise SimulationError("update takes (component, value)")
            components = list(state[1])
            components[self._check_index(args[0])] = args[1]
            return None, ("snapshot", tuple(components))
        if method == "scan":
            if args:
                raise SimulationError("scan takes no arguments")
            return state[1], state
        if method == "read":
            if len(args) != 1:
                raise SimulationError("read takes exactly one component index")
            components = state[1]
            return components[self._check_index(args[0])], state
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        if method == "scan":
            return ("read", None)  # whole-object read
        key = args[0] if args else None
        return ("read" if method == "read" else "write", key)

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

from typing import Any, Hashable, List, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError


class AtomicSnapshot(BaseObject):
    """A single-writer-per-component atomic snapshot object.

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
        self._components: List[Any] = [initial] * size

    def methods(self) -> Tuple[str, ...]:
        return ("update", "scan", "read")

    def _check_index(self, index: Any) -> int:
        if not isinstance(index, int) or not 0 <= index < self.size:
            raise SimulationError(
                f"component {index!r} out of range for snapshot {self.name!r} "
                f"of size {self.size}"
            )
        return index

    def apply(self, method: str, args: Tuple[Any, ...]) -> Any:
        if method == "update":
            if len(args) != 2:
                raise SimulationError("update takes (component, value)")
            self._components[self._check_index(args[0])] = args[1]
            return None
        if method == "scan":
            if args:
                raise SimulationError("scan takes no arguments")
            return tuple(self._components)
        if method == "read":
            if len(args) != 1:
                raise SimulationError("read takes exactly one component index")
            return self._components[self._check_index(args[0])]
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        if method == "scan":
            return ("read", None)  # whole-object read
        key = args[0] if args else None
        return ("read" if method == "read" else "write", key)

    def snapshot_state(self) -> Hashable:
        return ("snapshot", tuple(self._components))

    def capture_state(self) -> Any:
        return tuple(self._components)

    def restore_state(self, state: Any) -> None:
        self._components = list(state)

    def reset(self) -> None:
        self._components = [self._initial] * self.size

"""Atomic read/write registers and register arrays.

The weakest base objects of the model — and the only ones permitted in
the consensus corollaries (Corollaries 4.5 and 4.10 restrict consensus
implementations to read/write registers).
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError


class AtomicRegister(BaseObject):
    """A single multi-reader multi-writer atomic register; its state is
    ``("register", value)``.

    Primitives: ``read()`` and ``write(value)``.
    """

    def __init__(self, name: str, initial: Any = None):
        super().__init__(name)
        self._initial = initial

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write")

    def initial_state(self) -> Hashable:
        return ("register", self._initial)

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "read":
            if args:
                raise SimulationError("read takes no arguments")
            return state[1], state
        if method == "write":
            if len(args) != 1:
                raise SimulationError("write takes exactly one argument")
            return None, ("register", args[0])
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        return ("read" if method == "read" else "write", None)


class RegisterArray(BaseObject):
    """A fixed-size array of atomic registers addressed by index; its
    state is ``("register-array", cells)``.

    Primitives: ``read(i)`` and ``write(i, value)``.  Each primitive
    touches one cell — the array provides *no* multi-cell atomicity
    (that is what :class:`~repro.base_objects.snapshot.AtomicSnapshot`
    is for).
    """

    def __init__(self, name: str, size: int, initial: Any = None):
        super().__init__(name)
        if size < 1:
            raise ValueError("array size must be positive")
        self.size = size
        self._initial = initial

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write")

    def initial_state(self) -> Hashable:
        return ("register-array", (self._initial,) * self.size)

    def _check_index(self, index: Any) -> int:
        if not isinstance(index, int) or not 0 <= index < self.size:
            raise SimulationError(
                f"index {index!r} out of range for array {self.name!r} "
                f"of size {self.size}"
            )
        return index

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "read":
            if len(args) != 1:
                raise SimulationError("array read takes exactly one index")
            cells = state[1]
            return cells[self._check_index(args[0])], state
        if method == "write":
            if len(args) != 2:
                raise SimulationError("array write takes an index and a value")
            cells = list(state[1])
            cells[self._check_index(args[0])] = args[1]
            return None, ("register-array", tuple(cells))
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        # Each primitive touches one cell, addressed by its index
        # argument; a malformed call falls back to the whole object.
        key = args[0] if args else None
        return ("read" if method == "read" else "write", key)

"""Atomic read/write registers and register arrays.

The weakest base objects of the model — and the only ones permitted in
the consensus corollaries (Corollaries 4.5 and 4.10 restrict consensus
implementations to read/write registers).
"""

from __future__ import annotations

from typing import Any, Hashable, List, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError


class AtomicRegister(BaseObject):
    """A single multi-reader multi-writer atomic register.

    Primitives: ``read()`` and ``write(value)``.
    """

    def __init__(self, name: str, initial: Any = None):
        super().__init__(name)
        self._initial = initial
        self._value = initial

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write")

    def apply(self, method: str, args: Tuple[Any, ...]) -> Any:
        if method == "read":
            if args:
                raise SimulationError("read takes no arguments")
            return self._value
        if method == "write":
            if len(args) != 1:
                raise SimulationError("write takes exactly one argument")
            self._value = args[0]
            return None
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        return ("read" if method == "read" else "write", None)

    def snapshot_state(self) -> Hashable:
        return ("register", self._value)

    def reset(self) -> None:
        self._value = self._initial

    @property
    def value(self) -> Any:
        """Current value (for assertions in tests; not an atomic step)."""
        return self._value


class RegisterArray(BaseObject):
    """A fixed-size array of atomic registers addressed by index.

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
        self._cells: List[Any] = [initial] * size

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write")

    def _check_index(self, index: Any) -> int:
        if not isinstance(index, int) or not 0 <= index < self.size:
            raise SimulationError(
                f"index {index!r} out of range for array {self.name!r} "
                f"of size {self.size}"
            )
        return index

    def apply(self, method: str, args: Tuple[Any, ...]) -> Any:
        if method == "read":
            if len(args) != 1:
                raise SimulationError("array read takes exactly one index")
            return self._cells[self._check_index(args[0])]
        if method == "write":
            if len(args) != 2:
                raise SimulationError("array write takes an index and a value")
            self._cells[self._check_index(args[0])] = args[1]
            return None
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        # Each primitive touches one cell, addressed by its index
        # argument; a malformed call falls back to the whole object.
        key = args[0] if args else None
        return ("read" if method == "read" else "write", key)

    def snapshot_state(self) -> Hashable:
        return ("register-array", tuple(self._cells))

    def capture_state(self) -> Any:
        return tuple(self._cells)

    def restore_state(self, state: Any) -> None:
        self._cells = list(state)

    def reset(self) -> None:
        self._cells = [self._initial] * self.size

"""Register file: an unbounded family of atomic registers.

Round-based algorithms (commit-adopt consensus) use a fresh set of
registers per round.  A register file models an infinite array of
atomic registers addressed by hashable keys — each primitive touches a
single cell, so the object grants no atomicity beyond a plain register
(the standard unbounded-register idiom of wait-free computability).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError
from repro.util.freeze import freeze


class RegisterFileState:
    """The written cells of a register file, as a value.

    :attr:`cells` is a dict that is never mutated (a write copies it).
    The state equals, hashes and reprs as its canonical form
    ``("register-file", items)``, the frozen items sorted by their repr,
    which is built on first use only: stepping a register file never
    sorts, and only a state that is hashed or compared pays for it.
    """

    __slots__ = ("cells", "_canonical", "_hash")

    def __init__(self, cells: Dict[Hashable, Any]):
        self.cells = cells
        self._canonical: Optional[Tuple[str, Tuple[Any, ...]]] = None
        self._hash: Optional[int] = None

    def canonical(self) -> Tuple[str, Tuple[Any, ...]]:
        """The frozen, sorted form this state compares as."""
        canonical = self._canonical
        if canonical is None:
            items = ((freeze(k), freeze(v)) for k, v in self.cells.items())
            canonical = ("register-file", tuple(sorted(items, key=repr)))
            self._canonical = canonical
        return canonical

    def cells_matching(self, predicate: Callable[[Any], bool]) -> Dict[Hashable, Any]:
        """Cells whose key satisfies ``predicate`` (used by liveness
        abstractions to project away dead rounds)."""
        return {k: v for k, v in self.cells.items() if predicate(k)}

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is RegisterFileState:
            return self.canonical() == other.canonical()
        return self.canonical() == other

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self.canonical())
        return value

    def __repr__(self) -> str:
        return repr(self.canonical())


class RegisterFile(BaseObject):
    """Atomic registers addressed by arbitrary hashable keys; its state
    is a :class:`RegisterFileState`.

    Primitives: ``read(key)`` (initial value for untouched cells) and
    ``write(key, value)``.
    """

    def __init__(self, name: str, initial: Any = None):
        super().__init__(name)
        self._initial = initial

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write")

    def initial_state(self) -> Hashable:
        return RegisterFileState({})

    def step(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Hashable]:
        if method == "read":
            if len(args) != 1:
                raise SimulationError("register-file read takes one key")
            return state.cells.get(args[0], self._initial), state
        if method == "write":
            if len(args) != 2:
                raise SimulationError("register-file write takes (key, value)")
            cells = dict(state.cells)
            cells[args[0]] = args[1]
            return None, RegisterFileState(cells)
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        key = freeze(args[0]) if args else None
        return ("read" if method == "read" else "write", key)

"""Register file: an unbounded family of atomic registers.

Round-based algorithms (commit-adopt consensus) use a fresh set of
registers per round.  A register file models an infinite array of
atomic registers addressed by hashable keys — each primitive touches a
single cell, so the object grants no atomicity beyond a plain register
(the standard unbounded-register idiom of wait-free computability).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.base_objects.base import BaseObject
from repro.util.errors import SimulationError
from repro.util.freeze import freeze


class RegisterFile(BaseObject):
    """Atomic registers addressed by arbitrary hashable keys.

    Primitives: ``read(key)`` (initial value for untouched cells) and
    ``write(key, value)``.
    """

    def __init__(self, name: str, initial: Any = None):
        super().__init__(name)
        self._initial = initial
        self._cells: Dict[Hashable, Any] = {}

    def methods(self) -> Tuple[str, ...]:
        return ("read", "write")

    def apply(self, method: str, args: Tuple[Any, ...]) -> Any:
        if method == "read":
            if len(args) != 1:
                raise SimulationError("register-file read takes one key")
            return self._cells.get(args[0], self._initial)
        if method == "write":
            if len(args) != 2:
                raise SimulationError("register-file write takes (key, value)")
            self._cells[args[0]] = args[1]
            return None
        return self._reject(method)

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        key = freeze(args[0]) if args else None
        return ("read" if method == "read" else "write", key)

    def snapshot_state(self) -> Hashable:
        return (
            "register-file",
            tuple(sorted(((freeze(k), freeze(v)) for k, v in self._cells.items()),
                         key=repr)),
        )

    def capture_state(self) -> Any:
        return tuple(self._cells.items())

    def restore_state(self, state: Any) -> None:
        self._cells = dict(state)

    def cells_matching(self, predicate) -> Dict[Hashable, Any]:
        """Cells whose key satisfies ``predicate`` (used by liveness
        abstractions to project away dead rounds)."""
        return {k: v for k, v in self._cells.items() if predicate(k)}

    def reset(self) -> None:
        self._cells = {}

"""A blocking global-lock TM.

Serialises every transaction behind one test-and-set lock: ``start``
spins until it acquires the lock, ``tryC`` publishes the write set and
releases.  Opaque (fully serialised, so trivially so) and — in
crash-free fair executions — starvation-free at the transaction level,
but **blocking**: a process that crashes inside a transaction leaves
the lock taken and every other process spins forever.

The paper's liveness space deliberately targets *non-blocking* systems;
this implementation exists to mark the boundary — the test suite shows
a single crash turning every ``(l,k)``-freedom property false, which no
crash can do to the non-blocking implementations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.base_objects.base import ObjectPool
from repro.base_objects.register import AtomicRegister
from repro.base_objects.tas import TestAndSet
from repro.core.object_type import ObjectType
from repro.objects.tm import COMMITTED, OK, tm_object_type
from repro.sim.kernel import Algorithm, Implementation, Op
from repro.util.errors import SimulationError


class GlobalLockTransactionalMemory(Implementation):
    """Blocking TM: one big lock around every transaction."""

    name = "global-lock-tm"

    def __init__(
        self,
        n_processes: int,
        variables: Sequence[int] = (0, 1),
        initial_value: Any = 0,
        object_type: Optional[ObjectType] = None,
    ):
        super().__init__(
            object_type or tm_object_type(variables=variables), n_processes
        )
        self.variables = tuple(variables)
        self.initial_value = initial_value

    def create_pool(self) -> ObjectPool:
        return ObjectPool(
            [
                TestAndSet("lock"),
                AtomicRegister(
                    "store",
                    initial=tuple(self.initial_value for _ in self.variables),
                ),
            ]
        )

    def _index(self, variable: Any) -> int:
        try:
            return self.variables.index(variable)
        except ValueError:
            raise SimulationError(
                f"unknown transactional variable {variable!r}"
            ) from None

    def algorithm(
        self,
        pid: int,
        operation: str,
        args: Tuple[Any, ...],
        memory: Dict[str, Any],
    ) -> Algorithm:
        if operation == "start":
            return self._start(memory)
        if operation == "read":
            return self._read(args[0], memory)
        if operation == "write":
            return self._write(args[0], args[1], memory)
        if operation == "tryC":
            return self._try_commit(memory)
        raise SimulationError(f"TM has start/read/write/tryC; got {operation!r}")

    def _start(self, memory: Dict[str, Any]) -> Algorithm:
        memory["pc"] = "spin"
        while True:
            taken = yield Op("lock", "test_and_set")
            if not taken:
                break
        memory["pc"] = "load"
        values = yield Op("store", "read")
        memory["values"] = values
        memory["in_tx"] = True
        return OK

    def _read(self, variable: Any, memory: Dict[str, Any]) -> Algorithm:
        self._require_tx(memory)
        return memory["values"][self._index(variable)]
        yield  # pragma: no cover - makes this a generator

    def _write(self, variable: Any, value: Any, memory: Dict[str, Any]) -> Algorithm:
        self._require_tx(memory)
        values = list(memory["values"])
        values[self._index(variable)] = value
        memory["values"] = tuple(values)
        return OK
        yield  # pragma: no cover - makes this a generator

    def _try_commit(self, memory: Dict[str, Any]) -> Algorithm:
        self._require_tx(memory)
        memory["pc"] = "publish"
        yield Op("store", "write", (memory["values"],))
        memory["pc"] = "unlock"
        yield Op("lock", "clear")
        memory["in_tx"] = False
        return COMMITTED

    @staticmethod
    def _require_tx(memory: Dict[str, Any]) -> None:
        if not memory.get("in_tx"):
            raise SimulationError(
                "transactional operation outside a transaction (no start)"
            )

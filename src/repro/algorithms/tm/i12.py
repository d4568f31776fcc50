"""Algorithm 1 of the paper: ``I(1,2)``, line for line.

The paper's Section 5.3 implementation, a modification of AGP
(:mod:`repro.algorithms.tm.agp`) that additionally enforces the
timestamp abort rule of the counterexample safety property ``S``:

* shared objects: one compare-and-swap object ``C`` holding
  ``(version, values)`` and one atomic snapshot object ``R[1..n]`` of
  per-process timestamps;
* ``start()_i``: ``timestamp ← timestamp + 1``; ``R[i] ← timestamp``;
  ``(version, oldval) ← C.read``; ``values ← oldval``; return ``ok``;
* ``read``/``write``: local memory only;
* ``tryC()_i``: ``snapshot ← R.scan()``; count the components with
  ``snapshot[j] ≥ timestamp`` (the component ``j = i`` always counts,
  so ``count ≥ 3`` means at least two *other* processes started their
  current transaction no earlier); abort if ``count ≥ 3``; otherwise
  attempt ``C.cas((version, oldval), (version+1, values))`` and return
  ``C`` on success, ``A`` on failure.

Lemma 5.4 (reproduced by the ``lem54`` experiment and the test suite):
``I(1,2)`` ensures ``S`` (opacity + timestamp rule) and
``(1,2)``-freedom.

Lasso support: all state is in ``memory``; the liveness abstraction
normalises every timestamp by the minimum current timestamp.  The
shift is a bisimulation because the algorithm consumes timestamps only
through order comparisons (``snapshot[j] ≥ timestamp``) and covariant
writes (``R[i] ← timestamp``), both invariant under a common shift.
Version numbers and values are left exact, so the abstraction repeats
only in commit-free loops — exactly the loops the Section 5.3 adversary
produces — and never certifies a spurious cycle through committing
behaviour.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from repro.base_objects.base import ObjectPool
from repro.base_objects.cas import CompareAndSwap
from repro.base_objects.snapshot import AtomicSnapshot
from repro.core.object_type import ObjectType
from repro.objects.tm import ABORTED, COMMITTED, OK, tm_object_type
from repro.sim.kernel import Algorithm, Implementation, Op
from repro.util.errors import SimulationError
from repro.util.freeze import freeze


class I12TransactionalMemory(Implementation):
    """The paper's Algorithm 1 (``I(1,2)``)."""

    name = "i12-tm"

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
        initial = (1, tuple(self.initial_value for _ in self.variables))
        return ObjectPool(
            [
                CompareAndSwap("C", initial=initial),
                AtomicSnapshot("R", size=self.n_processes, initial=0),
            ]
        )

    def initial_memory(self, pid: int) -> Dict[str, Any]:
        # Matches the algorithm's "initially": version = ⊥, timestamp = 0,
        # count = 0 at every process.
        return {"timestamp": 0, "version": None, "count": 0, "in_tx": False}

    def _index(self, variable: Any) -> int:
        try:
            return self.variables.index(variable)
        except ValueError:
            raise SimulationError(
                f"unknown transactional variable {variable!r}; "
                f"declared: {self.variables}"
            ) from None

    def algorithm(
        self,
        pid: int,
        operation: str,
        args: Tuple[Any, ...],
        memory: Dict[str, Any],
    ) -> Algorithm:
        if operation == "start":
            return self._start(pid, memory)
        if operation == "read":
            return self._read(args[0], memory)
        if operation == "write":
            return self._write(args[0], args[1], memory)
        if operation == "tryC":
            return self._try_commit(memory)
        raise SimulationError(f"TM has start/read/write/tryC; got {operation!r}")

    # -- operations (paper's pseudocode order) ---------------------------------

    def _start(self, pid: int, memory: Dict[str, Any]) -> Algorithm:
        memory["timestamp"] = memory["timestamp"] + 1
        memory["pc"] = "start-update-R"
        yield Op("R", "update", (pid, memory["timestamp"]))
        memory["pc"] = "start-read-C"
        version, old_values = yield Op("C", "read")
        memory["version"] = version
        memory["oldval"] = old_values
        memory["values"] = old_values
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
        memory["pc"] = "tryC-scan"
        snapshot = yield Op("R", "scan")
        for component in snapshot:
            if component >= memory["timestamp"]:
                memory["count"] = memory["count"] + 1
        if memory["count"] >= 3:
            memory["count"] = 0
            memory["in_tx"] = False
            return ABORTED
        memory["count"] = 0
        memory["pc"] = "tryC-cas"
        expected = (memory["version"], memory["oldval"])
        replacement = (memory["version"] + 1, memory["values"])
        swapped = yield Op("C", "compare_and_swap", (expected, replacement))
        memory["version"] = None
        memory["in_tx"] = False
        return COMMITTED if swapped else ABORTED

    @staticmethod
    def _require_tx(memory: Dict[str, Any]) -> None:
        if not memory.get("in_tx"):
            raise SimulationError(
                "transactional operation outside a transaction (no start)"
            )

    # -- lasso support -------------------------------------------------------------

    def liveness_abstraction(
        self, pool: ObjectPool, memories: Tuple[Dict[str, Any], ...]
    ) -> Optional[Hashable]:
        """Timestamp-shift quotient (see module docstring)."""
        timestamps = [m.get("timestamp", 0) for m in memories]
        base = min(timestamps)
        shifted_snapshot = tuple(
            component - base for component in pool.state_of("R")[1]
        )
        cas_state = pool.state_of("C")
        shifted_memories = tuple(
            freeze(
                {
                    key: (value - base if key == "timestamp" else value)
                    for key, value in memory.items()
                }
            )
            for memory in memories
        )
        return (shifted_snapshot, cas_state, shifted_memories)

"""The trivial always-abort TM.

Aborting every transaction ensures opacity vacuously (Section 4.1 notes
that "requiring that each operation returns a response ... can be
trivially ensured simply by aborting every transaction") — which is why
TM progress is defined through commit events.  This implementation
anchors that observation and serves as the degenerate corner of the
implementation registry: it ensures every TM safety property shipped
here, and no liveness property demanding a single commit.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.base_objects.base import ObjectPool
from repro.core.object_type import ObjectType
from repro.objects.tm import ABORTED, tm_object_type
from repro.sim.kernel import Algorithm, Implementation
from repro.util.errors import SimulationError


class TrivialTransactionalMemory(Implementation):
    """Aborts every transaction at its first call."""

    name = "trivial-tm"

    def __init__(
        self,
        n_processes: int,
        variables: Sequence[int] = (0, 1),
        object_type: Optional[ObjectType] = None,
    ):
        super().__init__(
            object_type or tm_object_type(variables=variables), n_processes
        )

    def create_pool(self) -> ObjectPool:
        return ObjectPool([])

    def algorithm(
        self,
        pid: int,
        operation: str,
        args: Tuple[Any, ...],
        memory: Dict[str, Any],
    ) -> Algorithm:
        if operation not in ("start", "read", "write", "tryC"):
            raise SimulationError(f"TM has start/read/write/tryC; got {operation!r}")
        return self._abort()

    @staticmethod
    def _abort() -> Algorithm:
        return ABORTED
        yield  # pragma: no cover - makes this a generator

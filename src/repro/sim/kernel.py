"""Simulation kernel primitives: steps, implementations, process frames.

Algorithms are written as Python *generator coroutines*: the algorithm
for one operation yields :class:`Op` requests (one atomic primitive on a
named base object per yield) and finally ``return``s the operation's
response value.  The runtime advances exactly one process per scheduler
decision, so the interleaving of primitive applications — the only thing
concurrency can affect in the asynchronous shared-memory model — is
totally controlled by the driver.

One *step* of a process is: resume the generator with the result of its
previously issued primitive, run local computation until the next
primitive request, and apply that primitive atomically.  This matches the
model's step granularity (local computation is free; shared-memory
primitives are the atomic unit).

Determinism/lasso contract
--------------------------
The lasso detector certifies an infinite execution by fingerprinting the
global configuration.  A process frame is fingerprinted as
``(operation, args, primitives_issued, last_result, memory)``; for the
fingerprint to determine future behaviour, algorithms that opt into
exact lasso detection must keep all mutable operation-local state in the
``memory`` mapping (rather than in generator-local variables that
survive across yields).  All algorithms shipped in
:mod:`repro.algorithms` follow this contract.

Memory *values*, operation arguments and primitive results are
immutable, hashable values (numbers, strings, ``None``, tuples,
frozensets, frozen dataclasses): an algorithm rebinds a memory key,
never mutates what it holds.  That is what lets the engine share a
memory's values between snapshots with a one-level ``dict`` copy and
fingerprint a memory as its sorted items, no structural walk needed.
A memory value that is not hashable raises
:class:`~repro.util.errors.SimulationError` naming the process and the
key, at the process's next invocation or fingerprint.

The same contract is what lets the exploration engine snapshot and
restore configurations (:mod:`repro.engine.config` rebuilds a generator
by fast-forwarding a fresh one through its recorded primitive results);
``docs/architecture.md`` states the full determinism/fingerprint
contract in one place.

Value types
-----------
Everything the step path builds once per step, event or invocation is
a named tuple (:class:`Op`, :class:`Footprint`, the history events of
:mod:`repro.core.events`) or a ``__slots__`` record
(:class:`ProcessFrame`), never a dataclass: the named tuples build in
0.5–0.6 µs where the frozen dataclasses they replace took 0.7–1.2 µs,
and hashing an event is the tuple's C hash (``docs/architecture.md``,
"Value types on the step path").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Hashable, NamedTuple, Optional, Tuple

from repro.base_objects.base import ObjectPool
from repro.core.events import Invocation
from repro.core.object_type import ObjectType
from repro.obs.recorder import active as _obs_active
from repro.util.errors import SimulationError
from repro.util.freeze import unhashable_item
from repro.util.slots import SlotsRecord

#: Type alias for algorithm coroutines.
Algorithm = Generator["Op", Any, Any]


class Op(NamedTuple):
    """One atomic primitive request: ``pool[obj].method(*args)``."""

    obj: str
    method: str
    args: Tuple[Any, ...] = ()

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.obj}.{self.method}({rendered})"


class Footprint(NamedTuple):
    """What one applied scheduler decision touched.

    The dynamic half of the partial-order reduction
    (:mod:`repro.engine.dpor`): the runtime records, per decision, the
    acting process, the decision's *kind* (``invoke`` and ``response``
    emit a visible history event; a non-completing ``step`` applies
    exactly one pool primitive and emits nothing; ``crash`` is treated
    as globally dependent), and the pool cells the decision read or
    wrote as ``(object name, key)`` pairs — keys come from each base
    object's :meth:`~repro.base_objects.base.BaseObject.footprint`
    declaration, where ``None`` means the whole object.

    A completing step has an *empty* pool footprint by construction:
    the step body of :meth:`~repro.sim.runtime.Runtime.apply_decision`
    sees the generator's ``StopIteration`` before any new primitive is
    applied.
    """

    pid: int
    kind: str  # "invoke" | "step" | "response" | "crash"
    reads: Tuple[Tuple[str, Any], ...] = ()
    writes: Tuple[Tuple[str, Any], ...] = ()

    @property
    def visible(self) -> bool:
        """Whether the decision emitted a history event."""
        return self.kind != "step"


class Implementation(ABC):
    """An implementation ``I = {I_1, ..., I_n}`` of a shared object type.

    Subclasses provide the base objects and the per-process algorithm.
    One instance describes the *code*; each run gets a fresh
    :class:`~repro.base_objects.base.ObjectPool` and fresh per-process
    memories, so an implementation instance may be reused across runs.
    """

    #: Human-readable name used in reports and registries.
    name: str = "implementation"

    def __init__(self, object_type: ObjectType, n_processes: int):
        if n_processes < 1:
            raise ValueError("n_processes must be at least 1")
        self.object_type = object_type
        self.n_processes = n_processes

    @abstractmethod
    def create_pool(self) -> ObjectPool:
        """Fresh base objects for one run."""

    @abstractmethod
    def algorithm(
        self,
        pid: int,
        operation: str,
        args: Tuple[Any, ...],
        memory: Dict[str, Any],
    ) -> Algorithm:
        """The algorithm ``I_pid`` run for one invocation.

        ``memory`` is the process's persistent local memory: it survives
        across operations of the same process within a run (Algorithm 1
        keeps ``timestamp`` there) and is included in fingerprints.
        """

    def initial_memory(self, pid: int) -> Dict[str, Any]:
        """Initial persistent local memory of process ``pid``."""
        return {}

    def liveness_abstraction(
        self, pool: ObjectPool, memories: Tuple[Dict[str, Any], ...]
    ) -> Optional[Hashable]:
        """Optional quotient fingerprint for lasso detection.

        Implementations whose state grows monotonically (round counters,
        timestamps) can override this to return an abstraction under
        which the repeating behaviour *is* a repetition of state.  The
        overriding class is responsible for the abstraction being a
        bisimulation quotient of the real state w.r.t. the adversary in
        play; each shipped override documents its argument.  Returning
        ``None`` (the default) makes the detector use the exact state.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} n={self.n_processes}>"


class ProcessFrame(SlotsRecord):
    """Execution state of one in-flight operation of one process.

    When the owning runtime records replay logs (the exploration
    engine's snapshot mode), ``result_log`` accumulates every primitive
    result fed to the generator and ``memory_at_invoke`` holds a copy of
    the process memory as it was *before* the invocation.  Together with
    the determinism contract above they let :mod:`repro.engine.config`
    rebuild an equivalent generator by fast-forwarding a fresh one
    through the recorded results — the only part of a configuration that
    cannot be copied directly.  One frame is built per invocation, so it
    is a ``__slots__`` record, not a dataclass.
    """

    __slots__ = (
        "invocation",
        "generator",
        "primitives_issued",
        "last_result",
        "pending_op",
        "result_log",
        "memory_at_invoke",
    )

    def __init__(
        self,
        invocation: Invocation,
        generator: Algorithm,
        primitives_issued: int = 0,
        last_result: Any = None,
        pending_op: Optional[Op] = None,
        result_log: Optional[list] = None,
        memory_at_invoke: Optional[Dict[str, Any]] = None,
    ):
        self.invocation = invocation
        self.generator = generator
        self.primitives_issued = primitives_issued
        self.last_result = last_result
        self.pending_op = pending_op
        self.result_log = result_log
        self.memory_at_invoke = memory_at_invoke

    def fingerprint(self) -> Hashable:
        """Frame part of the global configuration fingerprint."""
        pending = self.pending_op
        return (
            self.invocation.operation,
            self.invocation.args,
            self.primitives_issued,
            self.last_result,
            pending.args if pending else None,
            (pending.obj, pending.method) if pending else None,
        )


@dataclass
class ProcessState:
    """Runtime state of one simulated process."""

    pid: int
    memory: Dict[str, Any] = field(default_factory=dict)
    frame: Optional[ProcessFrame] = None
    crashed: bool = False
    steps: int = 0
    last_step: int = -1
    good_response_steps: list = field(default_factory=list)
    response_count: int = 0
    invocation_count: int = 0

    @property
    def idle(self) -> bool:
        """True when the process has no pending operation (and may be
        invoked, by input-enabledness)."""
        return self.frame is None and not self.crashed

    @property
    def pending(self) -> bool:
        """True when an operation is in flight."""
        return self.frame is not None and not self.crashed

    def fingerprint(self) -> Hashable:
        """Process part of the global configuration fingerprint."""
        # This is the O(memory) hash the engine's incremental caches
        # exist to avoid; counting it here (not at cached call sites)
        # measures the real hashing work.  The step body
        # (`Runtime.apply_decision`, about 2-3 µs a decision on a 2-core
        # VM) stays uninstrumented: the drivers flush step totals in
        # aggregate instead.
        rec = _obs_active()
        if rec is not None:
            rec.count("kernel/state_hashes")
        return (
            self.pid,
            self.crashed,
            tuple(sorted(self.memory.items())),
            self.frame.fingerprint() if self.frame else None,
        )

    def check_hashable(self) -> None:
        """Raise :class:`SimulationError` if a memory value is not
        hashable, naming the process and the key."""
        culprit = unhashable_item(self.memory)
        if culprit is not None:
            key, value = culprit
            raise SimulationError(
                f"p{self.pid} memory[{key!r}] holds an unhashable "
                f"{type(value).__name__} ({value!r}); process memory values "
                "must be immutable, hashable values (use a tuple or "
                "frozenset and rebind the key)"
            )

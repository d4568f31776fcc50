"""Simulation kernel primitives: steps, implementations, operation nodes.

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
never mutates what it holds.  That is what lets an operation work on
a one-level ``dict`` copy of its memory while nodes and snapshots share
the values, and lets a fingerprint read a memory as its sorted items,
no structural walk needed.
A memory value that is not hashable raises
:class:`~repro.util.errors.SimulationError` naming the process and the
key, at the process's next invocation or fingerprint.

Operations as values
--------------------
The same contract is what lets an in-flight operation be a value.  A
process's current point in its operation is an :class:`OpNode`,
identified by the invocation, the idle memory it was invoked on and
the primitive results fed so far; it never changes once built, so the
exploration engine snapshots a configuration by sharing nodes and
restores one by assigning them (:mod:`repro.engine.config`).  Each node
memoises the step out of it (the primitive it applies or the value it
returns, and the memory after), so
:meth:`~repro.sim.runtime.Runtime.apply_decision` resumes a generator
only for a step no runtime has taken before, and rebuilds one, by
fast-forwarding a fresh generator through the node's results, only
when the node has none.  The memo is keyed by the full result path, not
by the weaker frame fingerprint; results and memories compare by value,
as fingerprints compare them.  ``docs/architecture.md`` states the full
determinism/fingerprint contract in one place.

Value types
-----------
Everything the step path builds once per step, event or invocation is
a named tuple (:class:`Op`, :class:`Footprint`, the history events of
:mod:`repro.core.events`) or a ``__slots__`` object (:class:`OpNode`,
built once per new operation point), never a dataclass: the named
tuples build in 0.5–0.6 µs where the frozen dataclasses they replace
took 0.7–1.2 µs, and hashing an event is the tuple's C hash
(``docs/architecture.md``, "Value types on the step path").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Hashable, NamedTuple, Optional, Tuple

from repro.base_objects.base import ObjectPool
from repro.core.events import Invocation, Response
from repro.core.object_type import ObjectType
from repro.obs.recorder import active as _obs_active
from repro.util.errors import SimulationError
from repro.util.freeze import HashedKey, unhashable_item

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
    finds the operation's return (memoised, or the generator's
    ``StopIteration``) before any new primitive is applied.
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


class OpNode:
    """One point of one in-flight operation, as a value.

    A node is identified by what a fresh generator would need to reach
    the same point: the :attr:`invocation`, the idle process memory it
    was invoked on (:attr:`memory_at_invoke`) and the primitive results
    fed to the generator so far (:attr:`path`, a cons list
    ``(r_k, (r_k-1, ... ()))`` whose tails are shared with the node's
    ancestors).  Nodes compare equal by exactly that value, so the same
    point reached in two runtimes is the same node for snapshot
    equality; they are unhashable, as :attr:`memory_at_invoke` is a
    dict.

    The node also holds what the frame fingerprint reads
    (:attr:`primitives_issued`, :attr:`last_result`, :attr:`pending_op`)
    and the process :attr:`memory` at this point.  None of these, nor
    any memory a node refers to, is ever mutated after the node is
    built: the live generator works on a dict of its own.

    The rest is a write-once memo of the step out of this point, filled
    the first time any runtime takes it: :attr:`next_memory` (``None``
    until then), and either :attr:`next_op` (the primitive the step
    applies) or, when ``next_op`` is ``None``, the :attr:`response`
    event of the operation's return.  Children are keyed by the
    primitive result: the
    first inline in :attr:`child`, any further ones in :attr:`children`.
    Links run only downward (a child holds its parent's *path*, never
    its parent), so a trie of nodes is free of reference cycles.

    The step out of a node is the same in every runtime, so the node
    also keeps the step's :attr:`footprint`, built the first time a
    runtime records one.

    :attr:`process_fingerprint` caches the owning process's fingerprint
    at this point (:meth:`ProcessState.fingerprint`) as a hash-once
    key, so every configuration holding the node shares one key.

    :attr:`generator` is a live generator suspended exactly at this
    point, working on :attr:`working_memory`; a node has one only until
    some runtime steps from it (the generator moves to the child) or
    crashes its process (the generator is closed).  Stepping an
    unmemoised node without one rebuilds it
    (:meth:`~repro.sim.runtime.Runtime.apply_decision`).
    """

    __slots__ = (
        "invocation",
        "memory_at_invoke",
        "path",
        "primitives_issued",
        "last_result",
        "pending_op",
        "memory",
        "next_op",
        "response",
        "next_memory",
        "child",
        "children",
        "generator",
        "working_memory",
        "process_fingerprint",
        "footprint",
    )

    def __init__(
        self,
        invocation: Invocation,
        memory_at_invoke: Dict[str, Any],
        memory: Dict[str, Any],
        path: Tuple[Any, ...] = (),
        primitives_issued: int = 0,
        last_result: Any = None,
        pending_op: Optional[Op] = None,
    ):
        self.invocation = invocation
        self.memory_at_invoke = memory_at_invoke
        self.memory = memory
        self.path = path
        self.primitives_issued = primitives_issued
        self.last_result = last_result
        self.pending_op = pending_op
        self.next_op: Optional[Op] = None
        self.response: Optional[Response] = None
        self.next_memory: Optional[Dict[str, Any]] = None
        self.child: Optional[OpNode] = None
        self.children: Optional[Dict[Any, OpNode]] = None
        self.generator: Optional[Algorithm] = None
        self.working_memory: Optional[Dict[str, Any]] = None
        self.process_fingerprint: Optional[HashedKey] = None
        self.footprint: Optional[Footprint] = None

    def results(self) -> Tuple[Any, ...]:
        """The primitive results fed so far, oldest first."""
        results = []
        path = self.path
        while path:
            results.append(path[0])
            path = path[1]
        results.reverse()
        return tuple(results)

    def child_for(self, result: Any) -> "OpNode":
        """The node after :attr:`next_op` returned ``result``.

        Built on first use; a live generator this node holds (suspended
        just after yielding :attr:`next_op`) moves to the new child.
        Results are told apart by value, as the fingerprint does.
        """
        child = self.child
        if child is not None and child.last_result == result:
            return child
        children = self.children
        if children is not None:
            child = children.get(result)
            if child is not None:
                return child
        child = OpNode(
            self.invocation,
            self.memory_at_invoke,
            self.next_memory,  # type: ignore[arg-type]
            (result, self.path),
            self.primitives_issued + 1,
            result,
            self.next_op,
        )
        if self.generator is not None:
            child.generator, child.working_memory = self.generator, self.working_memory
            self.generator = self.working_memory = None
        if self.child is None:
            self.child = child
        else:
            if children is None:
                children = self.children = {}
            children[result] = child
        return child

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

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not OpNode:
            return NotImplemented
        if (
            self.primitives_issued != other.primitives_issued  # type: ignore[attr-defined]
            or self.invocation != other.invocation  # type: ignore[attr-defined]
            or self.memory_at_invoke != other.memory_at_invoke  # type: ignore[attr-defined]
        ):
            return False
        # Equal lengths, so both paths reach () together; walked
        # iteratively, since a long operation's path nests deeply.
        mine, theirs = self.path, other.path  # type: ignore[attr-defined]
        while mine is not theirs and mine:
            if mine[0] != theirs[0]:
                return False
            mine, theirs = mine[1], theirs[1]
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"OpNode(invocation={self.invocation!r}, "
            f"primitives_issued={self.primitives_issued!r}, "
            f"last_result={self.last_result!r}, "
            f"pending_op={self.pending_op!r}, memory={self.memory!r})"
        )


@dataclass
class ProcessState:
    """Runtime state of one simulated process."""

    pid: int
    memory: Dict[str, Any] = field(default_factory=dict)
    #: The in-flight operation's current point, ``None`` when idle.
    frame: Optional[OpNode] = None
    crashed: bool = False

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
        """Process part of the global configuration fingerprint.

        In flight (a crash clears the frame), the node's memory is this
        process's memory, so the fingerprint is the node's: built and
        hashed once per node, then returned as that hash-once key.  An
        idle or crashed process's fingerprint is a plain tuple, built
        per call (:class:`~repro.engine.config.KernelConfig` keeps one
        key per idle memory).
        """
        # Counted only where a fingerprint is built (the O(memory) work
        # the node and idle-memory keys exist to avoid), not at cached
        # call sites.  The step body (`Runtime.apply_decision`, about
        # 2-3 µs a decision on a 2-core VM) stays uninstrumented: the
        # drivers flush step totals in aggregate instead.
        node = self.frame
        if node is not None:
            fingerprint = node.process_fingerprint
            if fingerprint is not None:
                return fingerprint
        rec = _obs_active()
        if rec is not None:
            rec.count("kernel/state_hashes")
        if node is None:
            return (self.pid, self.crashed, tuple(sorted(self.memory.items())), None)
        fingerprint = node.process_fingerprint = HashedKey(
            (self.pid, False, tuple(sorted(node.memory.items())), node.fingerprint())
        )
        return fingerprint

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

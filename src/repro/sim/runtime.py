"""The simulation engine: plays a driver against an implementation.

:class:`Runtime` owns the per-run state (base-object pool, process
states, history, statistics) and executes the decision loop:

1. ask the driver for a :class:`~repro.sim.drivers.Decision`;
2. apply it — invoke (record the invocation event and move the process
   to the operation's root :class:`~repro.sim.kernel.OpNode`), step
   (apply one atomic primitive and move to the node its result leads
   to, recording the response event if the operation completed), or
   crash;
3. stop on budget or driver stop.

:func:`play` does not use this loop: it runs a play as the
straight-line case of the liveness search
(:class:`~repro.sim.liveness_search.LivenessSearch`), the one place
that judges whether a run is a lasso.  :meth:`Runtime.run` is the plain
scripted loop the independent replays use.

A runtime keeps the nodes its operations reached as a trie: the roots,
keyed by invocation and idle memory, and below each node the memoised
step out of it.  A step the trie already holds replays the memo; only
a new one resumes the operation's generator (rebuilt by fast-forward
when no node holds it live).  A step whose algorithm raises memoises
nothing, so it raises again every time it is taken.  Memories the
operations produce are shared by value, one dict per value per
runtime, so equal idle memories lead to one root.  The trie lives and
dies with the runtime.

The runtime enforces the model's rules: input-enabledness (only idle
processes are invoked), one outstanding operation per process, no steps
after a crash.  Violations raise
:class:`~repro.util.errors.SimulationError` — they indicate a buggy
driver, never a legal behaviour.
"""

from __future__ import annotations


from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.events import Crash, Invocation, Response
from repro.core.history import History
from repro.obs.recorder import active as _obs_active
from repro.sim.drivers import (
    CrashDecision,
    Decision,
    Driver,
    InvokeDecision,
    StepDecision,
    StopDecision,
)
from repro.sim.kernel import (
    Footprint,
    Implementation,
    Op,
    OpNode,
    ProcessState,
)
from repro.sim.record import ProcessStats, RunResult
from repro.util.errors import SimulationError


class RuntimeView:
    """Read-only facade over a runtime, handed to drivers and workloads."""

    def __init__(self, runtime: "Runtime"):
        self._runtime = runtime

    @property
    def n_processes(self) -> int:
        return self._runtime.implementation.n_processes

    @property
    def step(self) -> int:
        """Number of decisions applied so far."""
        return self._runtime.step_count

    def is_idle(self, pid: int) -> bool:
        return self._runtime.processes[pid].idle

    def is_pending(self, pid: int) -> bool:
        return self._runtime.processes[pid].pending

    def is_crashed(self, pid: int) -> bool:
        return self._runtime.processes[pid].crashed

    def pending_operation(self, pid: int) -> Optional[str]:
        frame = self._runtime.processes[pid].frame
        return frame.invocation.operation if frame else None

    def invocation_count(self, pid: int) -> int:
        return self._runtime.stats[pid].invocations

    def response_count(self, pid: int) -> int:
        return self._runtime.stats[pid].responses

    def last_response(self, pid: int) -> Optional[Response]:
        return self._runtime.last_response.get(pid)

    @property
    def history(self) -> History:
        """The history so far (materialised on demand)."""
        return History(self._runtime.events, validate=False)


def kernel_state_fingerprint(runtime: "Runtime") -> Hashable:
    """The kernel half of an exact lasso fingerprint: pool state plus
    per-process frames/memories.

    THE one definition of the exact repetition key.  Both consumers —
    the liveness search
    (:meth:`repro.engine.config.KernelConfig.kernel_fingerprint` is the
    incremental-cached equivalent and must compute the same value) and
    the certificate replay (:mod:`repro.sim.lasso_shrink`) — must agree
    byte-for-byte, or engine-found lassos would fail their independent
    replay.
    """
    return (
        runtime.pool.snapshot_state(),
        tuple(state.fingerprint() for state in runtime.processes),
    )


def abstract_state_fingerprint(runtime: "Runtime") -> Optional[Hashable]:
    """The kernel half of an abstract lasso fingerprint, or ``None``
    when the implementation offers no quotient.

    Frames are folded in as the pending operation name only: the
    intra-operation position is deliberately *not* included (it grows
    without bound in looping operations).  Implementations providing an
    abstraction must therefore encode their control position in process
    memory (a ``pc`` key); the shipped abstractions all do.  Shared by
    the liveness search and certificate replay for the same
    agree-byte-for-byte reason as :func:`kernel_state_fingerprint`.
    """
    abstraction = runtime.implementation.liveness_abstraction(
        runtime.pool, tuple(state.memory for state in runtime.processes)
    )
    if abstraction is None:
        return None
    pending = tuple(
        state.frame.invocation.operation if state.frame is not None else None
        for state in runtime.processes
    )
    crashed = tuple(state.crashed for state in runtime.processes)
    return (abstraction, pending, crashed)


class Runtime:
    """One playable instance of driver-vs-implementation.

    Parameters
    ----------
    implementation:
        The shared-object implementation under test.
    driver:
        The schedule-and-input strategy.
    max_steps:
        Decision budget; hitting it yields a horizon run.
    """

    def __init__(
        self,
        implementation: Implementation,
        driver: Driver,
        max_steps: int = 100_000,
    ):
        self.implementation = implementation
        self.driver = driver
        self.max_steps = max_steps
        self.pool = implementation.create_pool()
        self.processes: List[ProcessState] = [
            ProcessState(pid=pid, memory=implementation.initial_memory(pid))
            for pid in range(implementation.n_processes)
        ]
        self.stats: Dict[int, ProcessStats] = {
            pid: ProcessStats(pid=pid) for pid in range(implementation.n_processes)
        }
        self.events: List[object] = []
        self.last_response: Dict[int, Response] = {}
        self.step_count = 0
        # Off by default: recording costs a pool lookup per step, and
        # only the DPOR-enabled exploration engine consumes footprints.
        self.record_footprints = False
        self.last_footprint: Optional[Footprint] = None
        self._is_good = implementation.object_type.is_good
        # The root node of every operation this runtime invoked, keyed
        # by the invocation and the identity of the idle memory it was
        # invoked on (the root holds that memory, so the identity stays
        # unique for as long as the entry lives).  An idle memory is
        # never mutated, so equal keys mean the same starting point.
        self._roots: Dict[Tuple[Invocation, int], OpNode] = {}
        # One dict per memory value this runtime's operations produced
        # (see _share), so equal idle memories are one key above.
        self._memories: Dict[FrozenSet[Tuple[str, Any]], Dict[str, Any]] = {}

    @property
    def view(self) -> RuntimeView:
        """A read-only facade for drivers, schedulers, and crash plans.
        Exposed publicly so external decision loops (the exploration
        engine, the schedule fuzzer) can consult the same components a
        :class:`~repro.sim.drivers.ComposedDriver` would.

        Each call builds a fresh view, which its caller keeps for as
        long as it steps: the runtime holds no view, so a runtime is not
        a reference cycle and is freed as soon as its last user drops
        it, without waiting for the cyclic collector."""
        return RuntimeView(self)

    # -- decision application ---------------------------------------------------

    def apply_decision(self, decision: Decision) -> None:
        """Apply one non-stop decision: the one step path of the kernel.

        Every stepping client goes through here: :meth:`run`, the
        exploration engine (via
        :meth:`~repro.engine.config.KernelConfig.apply`), the fuzzer's
        walks, the liveness search (and so :func:`play`) and
        certificate replay.  The same validity rules apply everywhere
        and ``step_count`` advances by one per decision.  Dispatch is on
        the decision's exact class, steps first (they are nearly every
        decision), and each kind is one flat body: a step is the
        kernel's hot loop.

        An in-flight operation is an :class:`~repro.sim.kernel.OpNode`.
        A step out of a node some runtime has already stepped from
        replays the node's memo (the recorded primitive, or the return
        value) and moves to the child for the primitive's result; only
        a step out of a new point resumes a generator
        (:meth:`_advance`).
        """
        kind = type(decision)
        if kind is StepDecision:
            pid = decision.pid
            state = self.processes[pid]
            node = state.frame
            if node is None or state.crashed:
                if state.crashed:
                    raise SimulationError(f"cannot step crashed p{pid}")
                raise SimulationError(f"cannot step p{pid}: no pending operation")
            stats = self.stats[pid]
            stats.steps += 1
            stats.last_step = self.step_count
            memory = node.next_memory
            if memory is None:
                memory = self._advance(pid, node)
            op = node.next_op
            if op is None:
                response = Response(pid, node.invocation.operation, node.value)
                state.frame = None
                state.memory = memory
                self.events.append(response)
                self.last_response[pid] = response
                stats.responses += 1
                if self._is_good(response):
                    stats.good_responses += 1
                    stats.good_response_steps.append(self.step_count)
                if self.record_footprints:
                    # The operation returned before requesting a
                    # primitive, so a completing step touches no cell.
                    self.last_footprint = Footprint(pid, "response")
                self.step_count += 1
                return
            # Apply the step's primitive atomically and move to the
            # point its result leads to.
            result = self.pool.apply(op.obj, op.method, op.args)
            child = node.child
            if child is None or child.last_result != result:
                child = node.child_for(result)
            state.frame = child
            state.memory = memory
            if self.record_footprints:
                mode, key = self.pool.footprint(op.obj, op.method, op.args)
                cells = ((op.obj, key),)
                self.last_footprint = Footprint(
                    pid,
                    "step",
                    reads=cells if mode == "read" else (),
                    writes=cells if mode == "write" else (),
                )
        elif kind is InvokeDecision:
            pid = decision.pid
            state = self.processes[pid]
            if state.crashed:
                raise SimulationError(f"cannot invoke on crashed p{pid}")
            if state.frame is not None:
                raise SimulationError(
                    f"cannot invoke on p{pid}: operation already pending"
                )
            invocation = Invocation(pid, decision.operation, decision.args)
            root = self._roots.get((invocation, id(state.memory)))
            if root is None:
                root = self._invoke_root(state, invocation)
            state.frame = root
            state.memory = root.memory
            self.events.append(invocation)
            self.stats[pid].invocations += 1
            if self.record_footprints:
                # Creating the generator runs no algorithm code (the
                # body starts on the first step) and touches no pool.
                self.last_footprint = Footprint(pid, "invoke")
        elif kind is CrashDecision:
            pid = decision.pid
            state = self.processes[pid]
            if state.crashed:
                raise SimulationError(f"p{pid} is already crashed")
            node = state.frame
            if node is not None:
                generator = node.generator
                if generator is not None:
                    node.generator = node.working_memory = None
                    generator.close()
                state.frame = None
            state.crashed = True
            self.stats[pid].crashed = True
            self.events.append(Crash(pid))
            if self.record_footprints:
                self.last_footprint = Footprint(pid, "crash")
        else:
            raise SimulationError(f"unknown decision {decision!r}")
        self.step_count += 1

    def _invoke_root(self, state: ProcessState, invocation: Invocation) -> OpNode:
        """The root node of an operation not yet invoked on this idle
        memory: call the algorithm and keep its generator on the root."""
        # Memory values are immutable (the kernel contract), checked
        # once per idle memory: a mutable value left behind by the
        # previous operation would be shared between nodes and
        # snapshots.
        state.check_hashable()
        idle = state.memory
        # The operation works on a copy: implementations may mutate
        # memory when algorithm() is called, and an idle memory is
        # never mutated, which is what lets nodes and snapshots share
        # it.  A one-level copy suffices, since an operation rebinds
        # keys and never mutates the values they hold.
        working = dict(idle)
        generator = self.implementation.algorithm(
            state.pid, invocation.operation, invocation.args, working
        )
        root = OpNode(invocation, idle, self._share(working, idle))
        root.generator, root.working_memory = generator, working
        self._roots[(invocation, id(idle))] = root
        return root

    def _advance(self, pid: int, node: OpNode) -> Dict[str, Any]:
        """Take the first step out of ``node`` and memoise it.

        Resumes the node's live generator with the node's last result
        (``None`` starts a fresh one), or, when the node has none, first
        rebuilds one by fast-forwarding a fresh generator through the
        node's recorded results.  Records the primitive the generator
        requests (or its return value) and the memory after, and
        returns that memory.  The generator is left on the node, just
        past the recorded primitive, for :meth:`OpNode.child_for` to
        hand to the first child.

        An algorithm that raises leaves the node unmemoised and without
        a generator (the raising one is finished), so the next step out
        of the node rebuilds and raises again.
        """
        generator = node.generator
        if generator is None:
            generator = self._rebuild(pid, node)
        working = node.working_memory
        try:
            op = generator.send(node.last_result)
        except StopIteration as stop:
            node.generator = node.working_memory = None
            node.value = stop.value
        except BaseException:
            node.generator = node.working_memory = None
            raise
        else:
            if not isinstance(op, Op):
                node.generator = node.working_memory = None
                raise SimulationError(
                    f"algorithm for {node.invocation} yielded {op!r}; expected Op"
                )
            node.next_op = op
        memory = node.next_memory = self._share(working, node.memory)
        return memory

    def _share(self, working: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
        """A never-mutated dict equal to the operation's ``working``
        memory: ``before`` when nothing changed, else the one dict this
        runtime keeps for that value.  Sharing by value keeps the trie
        small: every point of an operation invoked on an equal idle
        memory is then one node.  Values compare by value, as the
        fingerprint compares them.  A memory holding an unhashable value
        (a contract violation, named by the next invocation's check) is
        copied instead."""
        if working == before:
            return before
        try:
            key = frozenset(working.items())
        except TypeError:
            return dict(working)
        memory = self._memories.get(key)
        if memory is None:
            memory = self._memories[key] = dict(working)
        return memory

    def _rebuild(self, pid: int, node: OpNode) -> Any:
        """Rebuild the generator of a node that has none, by creating a
        fresh one on a copy of the invoke-time memory and feeding it the
        node's recorded results.  Sound by the determinism contract of
        :mod:`repro.sim.kernel`: an algorithm's behaviour is a function
        of its invocation, its memory and the results fed so far."""
        rec = _obs_active()
        if rec is not None:
            rec.count("kernel/frame_rebuilds")
        invocation = node.invocation
        working = dict(node.memory_at_invoke)
        generator = self.implementation.algorithm(
            pid, invocation.operation, invocation.args, working
        )
        results = node.results()
        if results:
            try:
                next(generator)
                for result in results[:-1]:
                    generator.send(result)
            except StopIteration as stop:
                raise SimulationError(
                    f"fast-forward of {invocation} terminated early: the "
                    "algorithm is not deterministic in its recorded results "
                    f"({stop.value!r})"
                ) from None
        node.generator, node.working_memory = generator, working
        return generator

    # -- the loop -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Play the driver until stop or budget.  No lasso detection:
        this is the scripted loop of the independent replays."""
        stop_reason = "max-steps"
        fairness_complete = False
        view = RuntimeView(self)
        while self.step_count < self.max_steps:
            decision = self.driver.decide(view)
            if isinstance(decision, StopDecision):
                stop_reason = f"driver-stop: {decision.reason}"
                fairness_complete = decision.fair and not any(
                    state.pending for state in self.processes
                )
                break
            self.apply_decision(decision)
        for state in self.processes:
            self.stats[state.pid].pending_at_end = state.pending
        return RunResult(
            history=History(self.events, validate=False),
            n_processes=self.implementation.n_processes,
            total_steps=self.step_count,
            stop_reason=stop_reason,
            fairness_complete=fairness_complete,
            stats=self.stats,
            driver_name=self.driver.name,
            implementation_name=self.implementation.name,
        )


def play(
    implementation: Implementation,
    driver: Driver,
    max_steps: int = 100_000,
) -> RunResult:
    """One-call convenience: fresh driver state, one run, classified.

    The straight-line case of the liveness search: the driver is a
    fan-out-1 policy, so the search walks one run and stops it on
    driver stop, lasso, or the ``max_steps`` horizon.  Its configuration
    budget equals the horizon and each decision is one configuration,
    so the budget never cuts a run short.
    """
    # Imported here: the search builds on the engine, which builds on
    # this module.
    from repro.sim.liveness_search import AdversaryPolicy, LivenessSearch

    search = LivenessSearch(
        lambda: implementation,
        AdversaryPolicy(driver),
        max_depth=max_steps,
        max_configurations=max_steps,
    )
    (run,) = search.runs()
    return run.result

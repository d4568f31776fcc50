"""The simulation engine: plays a driver against an implementation.

:class:`Runtime` owns the per-run state (base-object pool, process
states, history, statistics) and executes the decision loop:

1. ask the driver for a :class:`~repro.sim.drivers.Decision`;
2. apply it — invoke (record the invocation event and create the
   operation frame), step (advance one frame by one atomic primitive,
   recording the response event if the operation completed), or crash;
3. feed the lasso detector; stop on budget, lasso, or driver stop.

The runtime enforces the model's rules: input-enabledness (only idle
processes are invoked), one outstanding operation per process, no steps
after a crash.  Violations raise
:class:`~repro.util.errors.SimulationError` — they indicate a buggy
driver, never a legal behaviour.
"""

from __future__ import annotations


from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.events import Crash, Invocation, Response
from repro.core.history import History
from repro.core.object_type import ProgressMode
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
    ProcessFrame,
    ProcessState,
    run_step,
)
from repro.sim.lasso import LassoDetector
from repro.sim.record import ProcessStats, RunResult
from repro.util.errors import SimulationError
from repro.util.plaincopy import plain_copy


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

    def good_response_count(self, pid: int) -> int:
        return self._runtime.stats[pid].good_responses

    def last_response(self, pid: int) -> Optional[Response]:
        return self._runtime.last_response.get(pid)

    def last_event(self) -> Optional[object]:
        events = self._runtime.events
        return events[-1] if events else None

    @property
    def history(self) -> History:
        """The history so far (materialised on demand)."""
        return History(self._runtime.events, validate=False)


def kernel_state_fingerprint(runtime: "Runtime") -> Hashable:
    """The kernel half of an exact lasso fingerprint: pool state plus
    per-process frames/memories.

    THE one definition of the exact repetition key.  Every consumer —
    the runtime's own detector, the liveness search
    (:meth:`repro.engine.config.KernelConfig.kernel_fingerprint` is the
    incremental-cached equivalent and must compute the same value), and
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
    the runtime's detector, the liveness search, and certificate replay
    for the same agree-byte-for-byte reason as
    :func:`kernel_state_fingerprint`.
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
    detect_lasso:
        Enable the repeated-configuration detector.
    lasso_stride:
        Fingerprint every n-th step (see
        :class:`~repro.sim.lasso.LassoDetector`).
    record_replay_log:
        Record, on every frame, the primitive results fed to its
        generator and the process memory as of the invocation.  This is
        what makes a configuration snapshot/restorable by the
        exploration engine (:mod:`repro.engine.config`); plain
        simulation runs leave it off and pay nothing.
    """

    def __init__(
        self,
        implementation: Implementation,
        driver: Driver,
        max_steps: int = 100_000,
        detect_lasso: bool = True,
        lasso_stride: int = 1,
        record_replay_log: bool = False,
    ):
        self.implementation = implementation
        self.driver = driver
        self.max_steps = max_steps
        self.detect_lasso = detect_lasso
        self.record_replay_log = record_replay_log
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
        self._view = RuntimeView(self)
        self._detector = LassoDetector(check_every=lasso_stride)

    def reset_lasso(self) -> None:
        """Forget every configuration the lasso detector has observed.

        Every *restart* path — anything that rewinds this runtime to an
        earlier (or different) configuration, such as
        :meth:`repro.engine.config.KernelConfig.restore_from` — must
        call this: fingerprints left over from before the rewind would
        match configurations of the new run and fabricate a bogus
        cross-run "lasso"."""
        self._detector.reset()

    @property
    def view(self) -> RuntimeView:
        """The read-only facade handed to drivers, schedulers, and crash
        plans.  Exposed publicly so external decision loops (the
        exploration engine, the schedule fuzzer) can consult the same
        components a :class:`~repro.sim.drivers.ComposedDriver` would."""
        return self._view

    # -- decision application ---------------------------------------------------

    def _apply_invoke(self, decision: InvokeDecision) -> None:
        state = self.processes[decision.pid]
        if state.crashed:
            raise SimulationError(f"cannot invoke on crashed p{decision.pid}")
        if not state.idle:
            raise SimulationError(
                f"cannot invoke on p{decision.pid}: operation already pending"
            )
        invocation = Invocation(
            process=decision.pid, operation=decision.operation, args=decision.args
        )
        # Memory is copied *before* algorithm() runs: implementations may
        # mutate memory at generator-creation time, and the snapshot
        # restore path replays that mutation by calling algorithm() again.
        # The operation works on the copy and the pre-invoke dict is kept
        # untouched: an idle process's memory is never mutated, which is
        # what lets snapshots share it instead of copying it.
        memory_before = None
        if self.record_replay_log:
            memory_before = state.memory
            state.memory = plain_copy(memory_before)
        generator = self.implementation.algorithm(
            decision.pid, decision.operation, decision.args, state.memory
        )
        state.frame = ProcessFrame(invocation=invocation, generator=generator)
        if self.record_replay_log:
            state.frame.result_log = []
            state.frame.memory_at_invoke = memory_before
        self.events.append(invocation)
        self.stats[decision.pid].invocations += 1

    def _apply_step(self, decision: StepDecision) -> None:
        state = self.processes[decision.pid]
        if state.crashed:
            raise SimulationError(f"cannot step crashed p{decision.pid}")
        if state.frame is None:
            raise SimulationError(
                f"cannot step p{decision.pid}: no pending operation"
            )
        stats = self.stats[decision.pid]
        stats.steps += 1
        stats.last_step = self.step_count
        frame = state.frame
        finished, value = run_step(frame, self.pool)
        if self.record_footprints:
            if finished:
                # StopIteration precedes any primitive application in
                # run_step, so a completing step touches no pool cell.
                self.last_footprint = Footprint(decision.pid, "response")
            else:
                op = frame.pending_op
                mode, key = self.pool.footprint(op.obj, op.method, op.args)
                cells = ((op.obj, key),)
                self.last_footprint = Footprint(
                    decision.pid,
                    "step",
                    reads=cells if mode == "read" else (),
                    writes=cells if mode == "write" else (),
                )
        if finished:
            response = Response(
                process=decision.pid,
                operation=state.frame.invocation.operation,
                value=value,
            )
            state.frame = None
            self.events.append(response)
            self.last_response[decision.pid] = response
            stats.responses += 1
            if self.implementation.object_type.is_good(response):
                stats.good_responses += 1
                stats.good_response_steps.append(self.step_count)

    def _apply_crash(self, decision: CrashDecision) -> None:
        state = self.processes[decision.pid]
        if state.crashed:
            raise SimulationError(f"p{decision.pid} is already crashed")
        if state.frame is not None:
            state.frame.generator.close()
            state.frame = None
        state.crashed = True
        self.stats[decision.pid].crashed = True
        self.events.append(Crash(process=decision.pid))

    def apply_decision(self, decision: Decision) -> None:
        """Apply one non-stop decision outside the driver loop.

        The exploration engine drives a runtime decision-by-decision
        (there is no driver to consult); the same validity rules apply
        and ``step_count`` advances exactly as in :meth:`run`.
        """
        if isinstance(decision, InvokeDecision):
            self._apply_invoke(decision)
            if self.record_footprints:
                # Creating the generator runs no algorithm code (the
                # body starts on the first step) and touches no pool.
                self.last_footprint = Footprint(decision.pid, "invoke")
        elif isinstance(decision, StepDecision):
            self._apply_step(decision)
        elif isinstance(decision, CrashDecision):
            self._apply_crash(decision)
            if self.record_footprints:
                self.last_footprint = Footprint(decision.pid, "crash")
        else:
            raise SimulationError(f"unknown decision {decision!r}")
        self.step_count += 1

    # -- fingerprints ------------------------------------------------------------

    def _exact_fingerprint(self) -> Optional[Hashable]:
        driver_fp = self.driver.fingerprint()
        if driver_fp is None:
            return None
        return (driver_fp, kernel_state_fingerprint(self))

    def _abstract_fingerprint(self) -> Optional[Hashable]:
        driver_fp = self.driver.fingerprint()
        if driver_fp is None:
            return None
        abstraction = abstract_state_fingerprint(self)
        if abstraction is None:
            return None
        return (driver_fp, abstraction)

    # -- the loop -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Play the driver until stop, budget, or lasso."""
        stop_reason = "max-steps"
        fairness_complete = False
        lasso = None
        while self.step_count < self.max_steps:
            decision = self.driver.decide(self._view)
            if isinstance(decision, StopDecision):
                stop_reason = f"driver-stop: {decision.reason}"
                fairness_complete = decision.fair and not any(
                    state.pending for state in self.processes
                )
                break
            self.apply_decision(decision)
            if self.detect_lasso:
                lasso = self._detector.observe(
                    self.step_count,
                    self._exact_fingerprint(),
                    self._abstract_fingerprint(),
                )
                if lasso is not None:
                    stop_reason = "lasso"
                    break
        for state in self.processes:
            self.stats[state.pid].pending_at_end = state.pending
        return RunResult(
            history=History(self.events, validate=False),
            n_processes=self.implementation.n_processes,
            total_steps=self.step_count,
            stop_reason=stop_reason,
            fairness_complete=fairness_complete,
            stats=self.stats,
            lasso=lasso,
            driver_name=self.driver.name,
            implementation_name=self.implementation.name,
        )


def play(
    implementation: Implementation,
    driver: Driver,
    max_steps: int = 100_000,
    detect_lasso: bool = True,
    lasso_stride: int = 1,
) -> RunResult:
    """One-call convenience: fresh runtime, fresh driver state, one run."""
    driver.reset()
    runtime = Runtime(
        implementation,
        driver,
        max_steps=max_steps,
        detect_lasso=detect_lasso,
        lasso_stride=lasso_stride,
    )
    return runtime.run()

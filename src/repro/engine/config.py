"""Snapshot/restore of kernel configurations (the engine's state store).

The kernel runs algorithms as Python generators, which cannot be copied
or pickled — the reason the seed's exploration layers identified every
configuration with the *schedule* reaching it and re-executed the whole
run per DAG edge (O(depth) per node).  This module removes that cost.

A configuration is restorable from three ingredients, all plain data:

* the base-object pool state (``ObjectPool.capture``);
* each process's memory **as of its in-flight invocation**, plus the log
  of primitive results its generator has consumed so far (recorded by
  the runtime under ``record_replay_log``);
* the external event list and per-process statistics.

Restoring rebuilds each in-flight generator by creating a fresh one and
*fast-forwarding* it through the recorded results — re-running only the
local computation of the one in-flight operation (bounded by the
operation's primitive count), never touching the pool and never
re-executing the rest of the schedule.  Soundness is exactly the
determinism contract of :mod:`repro.sim.kernel`: an algorithm's
behaviour is a function of ``(operation, args, memory, results so
far)``, and primitive results are hashable (hence value-like) by the
fingerprint contract.

Snapshots are copy-on-write in the practical sense: the immutable parts
(events, invocations, result logs, invoke-time and idle memories) are
shared by reference between a snapshot and every configuration
restored from it; only the genuinely mutable parts (pool state, the
memory of an in-flight operation, stats) are copied per restore.  And
restores are deltas: a process or base object the scratch configuration
already holds, untouched, in exactly the snapshot's state is skipped
(see :meth:`KernelConfig.restore_from`).
"""

from __future__ import annotations


from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.events import Invocation
from repro.core.history import History
from repro.obs.recorder import active as _obs_active
from repro.sim.drivers import Decision, ScriptedDriver
from repro.sim.kernel import Implementation, ProcessFrame, ProcessState
from repro.sim.record import ProcessStats
from repro.sim.runtime import Runtime
from repro.util.errors import SimulationError
from repro.util.freeze import HashedKey
from repro.util.plaincopy import plain_copy

#: Factory producing a fresh implementation instance per restore/replay.
ImplementationFactory = Callable[[], Implementation]


class ProcessSnapshot(NamedTuple):
    """Restorable state of one simulated process.

    ``memory`` is the live memory for idle processes, and the
    *invoke-time* memory for processes with an operation in flight (the
    fast-forward replays the operation's mutations on top).  Neither
    dict is ever mutated (an invoke hands the operation a copy), so
    snapshots and live idle processes share them.  Snapshots are
    immutable named tuples (one is built per explored edge, several
    times cheaper than a frozen dataclass) and are shared by identity
    between snapshots.
    """

    pid: int
    crashed: bool
    memory: Dict[str, Any]
    #: ``None`` when idle, else ``(invocation, primitive results so far)``.
    frame: Optional[Tuple[Invocation, Tuple[Any, ...]]]
    stats: Tuple[int, int, int, int, int, Tuple[int, ...], bool]
    #: The process's fingerprint at capture time if one was already
    #: cached (capture never hashes); restoring seeds the
    #: configuration's incremental-fingerprint cache with it, and a
    #: ``None`` seed is recomputed on first use.
    fingerprint: Optional[HashedKey] = None


class KernelSnapshot(NamedTuple):
    """A restorable global configuration of one kernel run."""

    step_count: int
    events: Tuple[object, ...]
    pool_state: Dict[str, Any]
    processes: Tuple[ProcessSnapshot, ...]
    #: The pool's ``snapshot_state()`` at capture time (cache seed).
    pool_fingerprints: Optional[Tuple[Tuple[str, Hashable], ...]] = None
    #: ``events`` as a hash-once key, when one was built (cache seed).
    events_key: Optional[HashedKey] = None


def _capture_stats(stats: ProcessStats) -> Tuple:
    return (
        stats.steps,
        stats.last_step,
        stats.invocations,
        stats.responses,
        stats.good_responses,
        tuple(stats.good_response_steps),
        stats.crashed,
    )


def _restore_stats(stats: ProcessStats, captured: Tuple) -> None:
    (
        stats.steps,
        stats.last_step,
        stats.invocations,
        stats.responses,
        stats.good_responses,
        good_steps,
        stats.crashed,
    ) = captured
    stats.good_response_steps = list(good_steps)


def _fast_forward_frame(
    implementation: Implementation,
    pid: int,
    invocation: Invocation,
    memory: Dict[str, Any],
    results: Tuple[Any, ...],
    memory_at_invoke: Dict[str, Any],
) -> ProcessFrame:
    """Rebuild an in-flight frame by replaying recorded primitive results.

    ``memory`` must already hold the invoke-time state (the generator
    re-applies the operation's mutations while being fed), and stays the
    process's live memory afterwards.
    """
    generator = implementation.algorithm(
        pid, invocation.operation, invocation.args, memory
    )
    frame = ProcessFrame(invocation=invocation, generator=generator)
    frame.result_log = list(results)
    frame.memory_at_invoke = memory_at_invoke
    if not results:
        return frame
    frame.started = True
    try:
        op = next(generator)
        for result in results[:-1]:
            op = generator.send(result)
    except StopIteration as stop:  # pragma: no cover - contract violation
        raise SimulationError(
            f"fast-forward of {invocation} terminated early: the algorithm "
            f"is not deterministic in its recorded results ({stop.value!r})"
        ) from None
    frame.pending_op = op
    frame.last_result = results[-1]
    frame.primitives_issued = len(results)
    return frame


class KernelConfig:
    """A live, steppable kernel configuration.

    Thin wrapper around a :class:`~repro.sim.runtime.Runtime` in
    replay-log-recording mode, exposing exactly what exploration needs:
    apply one decision, capture a snapshot, fingerprint, and read the
    externally visible state.  Configurations are cheap to create from a
    snapshot and are mutated in place by :meth:`apply` — the engine
    restores one per explored edge.
    """

    def __init__(self, implementation: Implementation):
        self.implementation = implementation
        self.runtime = Runtime(
            implementation,
            ScriptedDriver([], name="engine-config"),
            detect_lasso=False,
            record_replay_log=True,
        )
        # Incremental caches, all keyed by the same invariant: an entry
        # for process pid is valid unless a decision touched pid since it
        # was computed.  Restores seed them from the snapshot; apply()
        # invalidates exactly one process (and the events tuple).  This
        # is what makes a child snapshot share everything with its
        # parent except the one process and object the step touched —
        # and what lets a restore skip every process whose snapshot part
        # is the very one the scratch already holds.
        n = implementation.n_processes
        self._process_fps: List[Optional[HashedKey]] = [None] * n
        self._process_snaps: List[Optional[ProcessSnapshot]] = [None] * n
        self._events_tuple: Optional[Tuple[object, ...]] = None
        self._events_key: Optional[HashedKey] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def initial(cls, factory: ImplementationFactory) -> "KernelConfig":
        """The configuration before any decision."""
        return cls(factory())

    @classmethod
    def from_snapshot(
        cls, factory: ImplementationFactory, snapshot: KernelSnapshot
    ) -> "KernelConfig":
        """Restore a live configuration from a snapshot."""
        config = cls(factory())
        config.restore_from(snapshot)
        return config

    def restore_from(self, snapshot: KernelSnapshot) -> None:
        """Overwrite this configuration with a snapshot's state.

        Every piece of per-run state is replaced, so the same
        ``KernelConfig`` may be restored over and over — the engine
        keeps one scratch configuration and re-restores it per explored
        edge, paying zero allocation for runtimes and pools.
        Implementations are stateless across runs (see
        :class:`~repro.sim.kernel.Implementation`), which is also why
        one implementation instance serves every restore.

        The restore is a delta: a process whose snapshot part *is* (by
        identity) the one this configuration was last restored from or
        captured into, and which no decision has touched since, already
        holds exactly that state and is skipped — no memory copy, no
        generator fast-forward.  The pool skips clean objects the same
        way (:meth:`~repro.base_objects.base.ObjectPool.restore`).
        """
        runtime = self.runtime
        runtime.pool.restore(snapshot.pool_state, snapshot.pool_fingerprints)
        runtime.step_count = snapshot.step_count
        runtime.events = list(snapshot.events)
        runtime.last_response.clear()
        # A restore is a restart: fingerprints the lasso detector saw
        # before the rewind belong to a different run and would fabricate
        # bogus cross-run lassos (engine configurations keep detection
        # off, so this is insurance for detection-enabled embeddings).
        runtime.reset_lasso()
        # Same restart rule for footprint state: the last recorded
        # footprint describes a decision of the pre-rewind run; the DPOR
        # layer must only ever see footprints of decisions applied to
        # *this* restored configuration.
        runtime.last_footprint = None
        self._events_tuple = snapshot.events
        self._events_key = snapshot.events_key
        held = self._process_snaps
        for process_snapshot in snapshot.processes:
            pid = process_snapshot.pid
            if held[pid] is process_snapshot:
                continue
            held[pid] = process_snapshot
            self._process_fps[pid] = process_snapshot.fingerprint
            state = runtime.processes[pid]
            state.crashed = process_snapshot.crashed
            _restore_stats(runtime.stats[pid], process_snapshot.stats)
            if process_snapshot.frame is not None:
                invocation, results = process_snapshot.frame
                state.memory = plain_copy(process_snapshot.memory)
                state.frame = _fast_forward_frame(
                    self.implementation,
                    pid,
                    invocation,
                    state.memory,
                    results,
                    memory_at_invoke=process_snapshot.memory,
                )
            else:
                # Idle memory is never mutated (an invoke hands the
                # operation a copy), so the snapshot's dict is shared.
                state.memory = process_snapshot.memory
                state.frame = None

    @classmethod
    def replay(
        cls, factory: ImplementationFactory, decisions: Sequence[Decision]
    ) -> "KernelConfig":
        """Rebuild a configuration by re-executing a whole schedule.

        The engine's replay fallback: same interface, O(schedule) cost.
        """
        config = cls.initial(factory)
        for decision in decisions:
            config.apply(decision)
        return config

    def apply_all(self, decisions: Sequence[Decision]) -> "KernelConfig":
        """Apply a decision sequence; returns self for chaining."""
        for decision in decisions:
            self.apply(decision)
        return self

    # -- stepping and capture ----------------------------------------------

    def apply(self, decision: Decision) -> None:
        """Apply one scheduler decision to this configuration."""
        rec = _obs_active()
        if rec is not None:
            rec.count("kernel/decisions")
        self.runtime.apply_decision(decision)
        pid = decision.pid
        self._process_fps[pid] = None
        self._process_snaps[pid] = None
        self._events_tuple = None
        self._events_key = None

    def invalidate(self, pids: Iterable[int]) -> None:
        """Drop the cached state of processes stepped behind our back.

        Callers that apply decisions straight to :attr:`runtime` (the
        fuzzer's fast walk) must report every process they moved before
        the next :meth:`capture`, :meth:`fingerprint` or
        :meth:`restore_from` — a delta restore would otherwise skip the
        stale process as if it still held its snapshot state.
        """
        for pid in pids:
            self._process_fps[pid] = None
            self._process_snaps[pid] = None
        self._events_tuple = None
        self._events_key = None

    def capture(self) -> KernelSnapshot:
        """Snapshot the current configuration.

        A process untouched since the last restore or capture
        contributes the very :class:`ProcessSnapshot` it holds, so a
        child snapshot shares every process part but the stepped one
        with its parent (and later restores can skip it by identity).
        """
        runtime = self.runtime
        held = self._process_snaps
        processes = []
        for state in runtime.processes:
            pid = state.pid
            process_snapshot = held[pid]
            if process_snapshot is None:
                process_snapshot = self._capture_process(state)
                held[pid] = process_snapshot
            processes.append(process_snapshot)
        return KernelSnapshot(
            step_count=runtime.step_count,
            events=self._events(),
            pool_state=runtime.pool.capture(),
            processes=tuple(processes),
            pool_fingerprints=runtime.pool.snapshot_state(),
            events_key=self._events_key,
        )

    def _capture_process(self, state: ProcessState) -> ProcessSnapshot:
        pid = state.pid
        if state.frame is None:
            frame = None
            memory = state.memory  # idle: never mutated, safe to share
        else:
            if state.frame.result_log is None:  # pragma: no cover - guard
                raise SimulationError(
                    "cannot snapshot a frame without a replay log; "
                    "the configuration was not built by KernelConfig"
                )
            frame = (state.frame.invocation, tuple(state.frame.result_log))
            memory = state.frame.memory_at_invoke or {}
        return ProcessSnapshot(
            pid=pid,
            crashed=state.crashed,
            memory=memory,
            frame=frame,
            stats=_capture_stats(self.runtime.stats[pid]),
            fingerprint=self._process_fps[pid],
        )

    # -- views -------------------------------------------------------------

    def fingerprint(self) -> HashedKey:
        """Exact configuration-and-history dedup key.

        The same key whether the configuration was restored from a
        snapshot or rebuilt by replay — the parity the engine's
        ``parity`` mode asserts.  See
        :meth:`repro.sim.explore.explore_histories` for why the event
        sequence is included.  The key hashes its value once (the
        search looks each key up in several dicts) and compares by
        exact value, so dedup is that of the value itself.  Its large
        parts — each process fingerprint and the event sequence — are
        hash-once keys too, cached until a decision touches them, so
        building a key after one decision hashes only what it changed.
        """
        runtime = self.runtime
        pids = range(self.n_processes)
        events = self._events_key
        if events is None:
            events = self._events_key = HashedKey(self._events())
        return HashedKey(
            (
                tuple([(pid, runtime.stats[pid].invocations) for pid in pids]),
                runtime.pool.snapshot_state(),
                tuple([self._process_fingerprint(pid) for pid in pids]),
                events,
            )
        )

    def kernel_fingerprint(self) -> Hashable:
        """The configuration fingerprint *without* the event history.

        :meth:`fingerprint` includes the event sequence because safety
        verdicts depend on real-time order — but along any infinite run
        the history grows monotonically, so a repeated-configuration
        (lasso) detector must key on the forward-determining state only:
        pool state plus per-process frames/memories.  This is the
        incremental-cached equivalent of
        :func:`repro.sim.runtime.kernel_state_fingerprint` and must
        compute the same value — certificate replay compares against
        that shared definition (its process parts are hash-once keys,
        which equal, hash and repr as their values).
        """
        runtime = self.runtime
        return (
            runtime.pool.snapshot_state(),
            tuple(
                self._process_fingerprint(pid)
                for pid in range(self.n_processes)
            ),
        )

    def _events(self) -> Tuple[object, ...]:
        events = self._events_tuple
        if events is None:
            events = tuple(self.runtime.events)
            self._events_tuple = events
        return events

    def _process_fingerprint(self, pid: int) -> HashedKey:
        fp = self._process_fps[pid]
        if fp is None:
            # Cache miss: the only place exploration actually pays the
            # O(memory) hash — the hit rate is what the incremental
            # caches buy, so it is the number worth watching.
            rec = _obs_active()
            if rec is not None:
                rec.count("kernel/fingerprint_misses")
            fp = HashedKey(self.runtime.processes[pid].fingerprint())
            self._process_fps[pid] = fp
        return fp

    def history(self) -> History:
        return History(self.runtime.events, validate=False)

    @property
    def view(self):
        """The runtime's read-only view.

        Lets schedulers and crash plans (which consult a
        :class:`~repro.sim.runtime.RuntimeView`) participate in
        engine-driven decision loops such as the schedule fuzzer.
        """
        return self.runtime.view

    @property
    def n_processes(self) -> int:
        return self.implementation.n_processes

    def is_pending(self, pid: int) -> bool:
        return self.runtime.processes[pid].pending

    def is_crashed(self, pid: int) -> bool:
        return self.runtime.processes[pid].crashed

    def invocations_of(self, pid: int) -> int:
        return self.runtime.stats[pid].invocations

    def responses_of(self, pid: int) -> int:
        return self.runtime.stats[pid].responses

    def deciders(self) -> Tuple[int, ...]:
        """Processes that have completed at least one operation."""
        return tuple(
            pid
            for pid in range(self.n_processes)
            if self.runtime.stats[pid].responses > 0
        )

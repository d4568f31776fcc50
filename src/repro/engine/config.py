"""Snapshot/restore of kernel configurations (the engine's state store).

The kernel runs algorithms as Python generators, which cannot be copied
or pickled — the reason the seed's exploration layers identified every
configuration with the *schedule* reaching it and re-executed the whole
run per DAG edge (O(depth) per node).  This module removes that cost.

A configuration is restorable from plain values:

* the base-object pool state (``ObjectPool.capture``), a tuple of
  ``(name, state)`` pairs;
* each process's memory, and the :class:`~repro.sim.kernel.OpNode` of
  its in-flight operation, if any;
* the external event list and per-process statistics.

An in-flight operation *is* a value: its node is identified by the
invocation, the idle memory it was invoked on and the primitive results
so far, and neither it nor the memory it holds is ever mutated.  So a
capture shares the node and a restore assigns it — no generator is
rebuilt at restore time.  The runtime steps from a node by its memo,
and resumes or rebuilds a generator only for a step no runtime has
taken before (:meth:`~repro.sim.runtime.Runtime.apply_decision`).
Soundness is exactly the determinism contract of
:mod:`repro.sim.kernel`: an algorithm's behaviour is a function of
``(operation, args, memory, results so far)``, and primitive results
are hashable (hence value-like) by the fingerprint contract.

Snapshots share state instead of copying it.  Every value the kernel
holds is immutable and hashable (the contract of :mod:`repro.sim.kernel`):
base-object states are values that a step replaces
(:mod:`repro.base_objects.base`), and process memories are never
mutated once a process or node holds them (an operation works on a
dict of its own).  The immutable parts (the pool state, events, nodes,
memories) are shared by reference between a snapshot and every
configuration restored from it; a restore copies only the per-process
stats.  And restores are deltas: a process the scratch configuration
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

from repro.base_objects.base import PoolState
from repro.core.history import History
from repro.obs.recorder import active as _obs_active
from repro.sim.drivers import Decision, ScriptedDriver
from repro.sim.kernel import Implementation, OpNode, ProcessState
from repro.sim.record import ProcessStats
from repro.sim.runtime import Runtime
from repro.util.freeze import HashedKey

#: Factory producing a fresh implementation instance per restore/replay.
ImplementationFactory = Callable[[], Implementation]


class ProcessSnapshot(NamedTuple):
    """Restorable state of one simulated process.

    ``memory`` is the process's memory and ``frame`` the node of its
    in-flight operation.  Neither is ever mutated, so snapshots and live
    processes share them.  Snapshots are immutable named tuples (one is
    built per explored edge, several times cheaper than a frozen
    dataclass) and are shared by identity between snapshots.
    """

    pid: int
    crashed: bool
    memory: Dict[str, Any]
    #: ``None`` when idle, else the in-flight operation's current point.
    frame: Optional[OpNode]
    stats: Tuple[int, int, int, int, int, Tuple[int, ...], bool]
    #: The process's key at capture time if it was already read
    #: (capture never keys a process); restoring seeds the
    #: configuration's incremental-fingerprint cache with it.  A
    #: ``None`` seed is looked up on first use: the node's key, or the
    #: key of the idle memory, and hashed only if the state was never
    #: keyed before.
    fingerprint: Optional[HashedKey] = None


class KernelSnapshot(NamedTuple):
    """A restorable global configuration of one kernel run."""

    step_count: int
    events: Tuple[object, ...]
    #: The pool's ``(name, state)`` pairs (:meth:`ObjectPool.capture`).
    pool_state: PoolState
    #: The capturing pool's names (``ObjectPool.layout``), which a
    #: restore checks by identity.
    pool_layout: Tuple[str, ...]
    processes: Tuple[ProcessSnapshot, ...]
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


class KernelConfig:
    """A live, steppable kernel configuration.

    Thin wrapper around a :class:`~repro.sim.runtime.Runtime`, exposing
    exactly what exploration needs: apply one decision, capture a
    snapshot, fingerprint, and read the externally visible state.  Configurations are cheap to create from a
    snapshot and are mutated in place by :meth:`apply` — the engine
    restores one per explored edge.
    """

    def __init__(self, implementation: Implementation):
        self.implementation = implementation
        self.runtime = Runtime(
            implementation, ScriptedDriver([], name="engine-config")
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
        # The key of every idle or crashed process state keyed so far,
        # by (pid, crashed, id(memory)).  Memories are never mutated,
        # so a memory object keys the same forever; each entry holds its
        # memory alive, so its id() cannot be reused while it is here.
        self._idle_fps: Dict[
            Tuple[int, bool, int], Tuple[Dict[str, Any], HashedKey]
        ] = {}

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
        holds exactly that state and is skipped.  The pool's state is
        one value, so restoring it is one assignment
        (:meth:`~repro.base_objects.base.ObjectPool.restore`).
        """
        runtime = self.runtime
        runtime.pool.restore(snapshot.pool_state, snapshot.pool_layout)
        runtime.step_count = snapshot.step_count
        runtime.events = list(snapshot.events)
        runtime.last_response.clear()
        # A restore is a restart: the last recorded footprint describes
        # a decision of the pre-rewind run; the DPOR layer must only
        # ever see footprints of decisions applied to *this* restored
        # configuration.
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
            # Nodes and the memories they hold are never mutated, so
            # the snapshot's are assigned, not copied or rebuilt.
            state.memory = process_snapshot.memory
            state.frame = process_snapshot.frame

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
        runtime = self.runtime
        runtime.apply_decision(decision)
        pid = decision.pid
        self._process_fps[pid] = None
        self._process_snaps[pid] = None
        # An internal step appends no event: the cached history stays.
        events = self._events_tuple
        if events is not None and len(events) != len(runtime.events):
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
            pool_layout=runtime.pool.layout,
            processes=tuple(processes),
            events_key=self._events_key,
        )

    def _capture_process(self, state: ProcessState) -> ProcessSnapshot:
        pid = state.pid
        return ProcessSnapshot(
            pid=pid,
            crashed=state.crashed,
            memory=state.memory,
            frame=state.frame,
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
        sequence is included.  The key is one flat tuple — the pool's
        ``(name, fingerprint)`` pairs in name order, then each process
        key, then the event-sequence key — wrapped in a
        :class:`~repro.util.freeze.HashedKey` that hashes its value once
        and compares by exact value, so dedup is that of the value
        itself.  Within one search every key has the same number of
        parts, so the flat tuple is as exact as a nested one.  Its parts
        are shared, not copied: the pool reuses and interns its pairs
        (:meth:`~repro.base_objects.base.ObjectPool.snapshot_state`),
        and each process key and the event sequence are hash-once keys,
        cached until a decision touches them.  A process key is built
        once per operation node or idle memory and shared by every
        configuration that holds it, so building a key after one
        decision hashes only the event sequence (after a visible step)
        and a process state no configuration held before.
        """
        runtime = self.runtime
        events = self._events_key
        if events is None:
            events = self._events_key = HashedKey(self._events())
        # A process fingerprint is computed only on a cache miss.  The
        # event sequence fixes every process's invocation count (one
        # invocation event each), so the counts are not a part of their
        # own.
        fps = self._process_fps
        for pid, fp in enumerate(fps):
            if fp is None:
                self._process_fingerprint(pid)
        return HashedKey((*runtime.pool.snapshot_state(), *fps, events))

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
            tuple([
                self._process_fingerprint(pid) if fp is None else fp
                for pid, fp in enumerate(self._process_fps)
            ]),
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
            # Cache miss: a decision touched pid since its key was read.
            # The key itself is built once per state, not per miss: an
            # in-flight process takes its node's key, an idle or crashed
            # one the key of its memory object (kernel/state_hashes
            # counts the builds).
            rec = _obs_active()
            if rec is not None:
                rec.count("kernel/fingerprint_misses")
            state = self.runtime.processes[pid]
            try:
                if state.frame is not None:
                    fp = state.fingerprint()
                else:
                    memory = state.memory
                    idle = (pid, state.crashed, id(memory))
                    held = self._idle_fps.get(idle)
                    if held is None:
                        fp = HashedKey(state.fingerprint())
                        self._idle_fps[idle] = (memory, fp)
                    else:
                        fp = held[1]
            except TypeError:
                state.check_hashable()  # names an unhashable memory value
                raise
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

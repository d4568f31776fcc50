"""Valency-style schedule search: reconstructing [5] mechanically.

The Chor–Israeli–Li impossibility (cited for Theorem 5.2 and Corollary
4.5) proves that for *any* register-based consensus implementation and
two processes proposing different values, some schedule makes at least
one of them run forever without deciding.  For a concrete deterministic
implementation that argument becomes a graph search: configurations of
(implementation state × process frames) form a finite graph once the
implementation offers a liveness abstraction (or has genuinely finite
state), and a non-deciding infinite schedule is exactly a cycle in the
sub-graph of configurations where the adversary's target has not
decided.

:func:`find_nondeciding_schedule` delegates the graph construction to
the unified exploration engine
(:class:`repro.engine.explorer.KernelExplorer`): a BFS over
configurations reachable by stepping only group members, deduplicated
on the implementation's liveness abstraction, with fully decided
configurations pruned (they can never lie on a witness cycle).
In the default ``snapshot`` mode each edge restores an incremental
configuration snapshot; ``mode="replay"`` reproduces the seed's
quadratic re-execution, and ``mode="parity"`` runs both and fails on
any divergence.  Whatever the mode, a found witness is independently
*verified by replay*: the schedule is re-executed from scratch and the
fingerprint must repeat with no new decisions.

For implementations the impossibility does *not* apply to (CAS- or
TAS-based consensus), the search exhausts the reachable graph and
returns ``None`` — the experiments use that as the positive control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.config import KernelConfig
from repro.engine.explorer import KernelExplorer
from repro.sim.drivers import InvokeDecision, ScriptedDriver, StepDecision
from repro.sim.kernel import Implementation
from repro.sim.runtime import Runtime
from repro.util.errors import AdversaryError, SimulationError


@dataclass(frozen=True)
class ScheduleWitness:
    """A non-deciding infinite schedule ``stem · cycle^ω``.

    ``stem`` and ``cycle`` are pid sequences applied after both
    proposals have been invoked; ``deciders`` are the processes that
    decided during the stem (at most one, never the whole group).
    """

    stem: Tuple[int, ...]
    cycle: Tuple[int, ...]
    deciders: Tuple[int, ...]

    def unrolled(self, repetitions: int = 2) -> Tuple[int, ...]:
        """The finite prefix ``stem · cycle^repetitions``."""
        return self.stem + self.cycle * repetitions


def _proposal_decisions(proposals: Sequence[Any]) -> List[InvokeDecision]:
    return [
        InvokeDecision(pid, "propose", (value,))
        for pid, value in enumerate(proposals)
        if value is not None
    ]


def _runtime_abstraction(implementation: Implementation, runtime: Runtime) -> Tuple:
    """(abstraction-or-exact-state, pending operations) of a runtime —
    the mode-independent part of the valency dedup key, shared between
    the engine-driven search and the independent replay verifier."""
    abstraction = implementation.liveness_abstraction(
        runtime.pool, tuple(state.memory for state in runtime.processes)
    )
    if abstraction is None:
        abstraction = (
            runtime.pool.snapshot_state(),
            tuple(state.fingerprint() for state in runtime.processes),
        )
    pending = tuple(
        state.frame.invocation.operation if state.frame is not None else None
        for state in runtime.processes
    )
    return abstraction, pending


def _abstraction_fingerprint(config: KernelConfig) -> Hashable:
    """The valency dedup key: liveness abstraction (or exact state),
    pending operations, and who has decided."""
    abstraction, pending = _runtime_abstraction(config.implementation, config.runtime)
    return (abstraction, pending, config.deciders())


def _replay(
    implementation_factory: Callable[[], Implementation],
    proposals: Sequence[Any],
    schedule: Sequence[int],
) -> Tuple[Optional[Hashable], Tuple[int, ...], bool]:
    """Run proposals then ``schedule``; return (fingerprint, deciders,
    all_decided).

    Witness verification deliberately bypasses the engine's snapshot
    machinery: re-executing from scratch is an independent code path, so
    a verified witness certifies the search result regardless of mode.
    """
    implementation = implementation_factory()
    decisions: List[object] = list(_proposal_decisions(proposals))
    decisions.extend(StepDecision(pid) for pid in schedule)
    driver = ScriptedDriver(decisions, name="valency-replay")
    runtime = Runtime(implementation, driver, max_steps=len(decisions) + 1)
    try:
        result = runtime.run()
    except SimulationError:
        # The schedule stepped a process with no pending operation (it
        # already decided): such an extension is not a step of the real
        # system — callers must skip it rather than treat it as a no-op
        # (a no-op self-loop would fabricate cycles).
        return None, (), False
    deciders = tuple(
        pid
        for pid in range(implementation.n_processes)
        if result.stats[pid].responses > 0
    )
    all_decided = all(
        result.stats[pid].responses > 0
        for pid, value in enumerate(proposals)
        if value is not None
    )
    abstraction, pending = _runtime_abstraction(implementation, runtime)
    fingerprint = (abstraction, pending, deciders)
    return fingerprint, deciders, all_decided


def find_nondeciding_schedule(
    implementation_factory: Callable[[], Implementation],
    proposals: Sequence[Any] = (0, 1),
    group: Sequence[int] = (0, 1),
    max_configs: int = 5_000,
    mode: str = "snapshot",
) -> Optional[ScheduleWitness]:
    """Search for an infinite schedule on which the group never fully
    decides.

    BFS over configurations reached by scheduling only ``group``
    members; an edge into an already-visited fingerprint closes a
    cycle, and any cycle among not-all-decided configurations is a
    witness.  Returns ``None`` when the reachable graph is exhausted
    without finding one (wait-free implementations).  Soundness rests
    on the fingerprint being a complete configuration (the same
    bisimulation contract the lasso detector uses): then the successor
    fingerprints of a node are independent of which schedule reached it.
    """
    group = tuple(group)
    proposers = [pid for pid, value in enumerate(proposals) if value is not None]

    def successors(config: KernelConfig):
        return [
            (pid, StepDecision(pid)) for pid in group if config.is_pending(pid)
        ]

    def all_decided(config: KernelConfig) -> bool:
        return all(config.responses_of(pid) > 0 for pid in proposers)

    # Phase 1: build the not-all-decided configuration graph.
    explorer = KernelExplorer(
        implementation_factory,
        successors,
        root_decisions=_proposal_decisions(proposals),
        mode=mode,
        strategy="bfs",
        fingerprint=_abstraction_fingerprint,
        prune=all_decided,
        max_configurations=max_configs,
        on_budget="stop",
        record_edges=True,
    )
    schedules: Dict[Hashable, Tuple[int, ...]] = {}
    deciders_at: Dict[Hashable, Tuple[int, ...]] = {}
    for visit in explorer.run():
        schedules[visit.fingerprint] = visit.schedule
        deciders_at[visit.fingerprint] = visit.config.deciders()
    if not schedules:
        return None  # the root itself was fully decided
    edges = explorer.edges

    # Phase 2: find any cycle in the explored graph (iterative DFS with
    # colour marking; the pid labels along the cycle form the schedule).
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Hashable, int] = {node: WHITE for node in schedules}
    parent_edge: Dict[Hashable, Tuple[Hashable, int]] = {}

    def extract_cycle(back_from: Hashable, back_to: Hashable, pid: int) -> ScheduleWitness:
        labels = [pid]
        node = back_from
        while node != back_to:
            previous, label = parent_edge[node]
            labels.append(label)
            node = previous
        labels.reverse()
        witness = ScheduleWitness(
            stem=schedules[back_to],
            cycle=tuple(labels),
            deciders=deciders_at.get(back_to, ()),
        )
        _verify_witness(implementation_factory, proposals, witness)
        return witness

    for start in schedules:
        if colour[start] != WHITE:
            continue
        stack: List[Tuple[Hashable, Optional[object]]] = [(start, None)]
        while stack:
            node, iterator = stack[-1]
            if iterator is None:
                colour[node] = GREY
                iterator = iter(sorted(edges.get(node, {}).items()))
                stack[-1] = (node, iterator)
            advanced = False
            for pid, successor in iterator:  # type: ignore[union-attr]
                if successor not in colour:
                    continue  # beyond the explored frontier
                if colour[successor] == GREY:
                    return extract_cycle(node, successor, pid)
                if colour[successor] == WHITE:
                    parent_edge[successor] = (node, pid)
                    stack.append((successor, None))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _verify_witness(
    implementation_factory: Callable[[], Implementation],
    proposals: Sequence[Any],
    witness: ScheduleWitness,
) -> None:
    """Re-run ``stem·cycle`` and ``stem·cycle·cycle`` and confirm the
    fingerprint repeats with no additional decisions."""
    fp_once, deciders_once, done_once = _replay(
        implementation_factory, proposals, witness.stem + witness.cycle
    )
    fp_twice, deciders_twice, done_twice = _replay(
        implementation_factory, proposals, witness.stem + witness.cycle * 2
    )
    if fp_once is None or fp_twice is None:
        raise AdversaryError("witness schedule is not executable")
    if done_once or done_twice:
        raise AdversaryError("witness schedule decides; search is inconsistent")
    if fp_once != fp_twice:
        raise AdversaryError(
            "witness cycle does not repeat the configuration fingerprint"
        )
    if deciders_once != deciders_twice:
        raise AdversaryError("witness cycle produces new decisions")

"""Unified exploration of kernel configuration graphs.

:class:`KernelExplorer` is the one exhaustive search loop of the
repository: exhaustive history exploration (:mod:`repro.sim.explore`)
and the valency-style non-deciding-schedule search
(:mod:`repro.adversaries.valency`) are thin clients.  The client
supplies two callbacks —

* ``successors(config)``: the legal ``(label, decision)`` pairs out of a
  configuration (e.g. *invoke the next planned operation of p0* /
  *step p1*), and
* ``fingerprint(config)``: the dedup key (exact configuration by
  default; the valency client substitutes its liveness abstraction) —

and the explorer walks the deduplicated configuration graph, yielding
one :class:`ConfigVisit` per unique configuration, at discovery time.
Each call of :meth:`KernelExplorer.run` chooses its report: every
configuration (the valency search needs interior nodes and their
edges), or with ``maximal_only=True`` only the configurations that end
a maximal run — no choice left, or at search depth ``max_depth`` — the
only ones exhaustive history exploration checks.  The search is the
same for both; the maximal-runs report only skips building and
yielding the interior visits.

Search
------
The frontier is one ``deque``; the strategy is which end it pops:
``bfs`` pops the oldest entry (breadth first, so every depth in
:attr:`KernelExplorer.depths` is a shortest distance from the root),
``dfs`` the newest (depth first).  Visits are discovery-ordered in
both; the strategy shows in which parent discovers a shared child.  The
search keeps one visited table, each unique configuration's key mapped
to its depth, and on request every explored edge, including edges that
close back into already-visited configurations (a path to a visited
configuration is its visit's ``schedule``).  Nodes at ``max_depth`` are
visited but not expanded, and the unique-configuration budget (the root
included) either raises :class:`SearchBudgetExceeded` or ends the
search quietly.

Everything an edge costs runs in one generator frame
(:meth:`KernelExplorer._run_single`): a frontier entry is a plain list
(its snapshot slot is filled when the node is captured), and the only
calls per edge are the kernel's own (restore, apply, fingerprint,
capture) and the client's callbacks.

Modes
-----
``snapshot`` (default)
    Children are produced in one scratch configuration: expanding a
    node restores its :class:`~repro.engine.config.KernelSnapshot`
    unless the scratch already holds it — O(configuration size) per
    edge instead of the O(depth) full re-execution replay pays.
    Capture is lazy: a node is captured only when the scratch is about
    to leave it while a restore of it is still owed (it has a choice
    awake for a later expansion), so every snapshot but the root's is
    restored at least once.
``replay``
    The seed behaviour, kept as a fallback behind the same interface: a
    node is identified with its decision path and every edge re-executes
    the run from the start.  It differs from ``snapshot`` only in how a
    child configuration is produced.
``parity``
    Runs both modes in lockstep and raises :class:`EngineParityError` on
    the first divergence in fingerprint or schedule — the executable
    form of the claim that snapshot/restore is exact.  Both sides report
    every configuration, so the maximal-runs report still compares the
    interior ones it does not yield.
"""

from __future__ import annotations

from collections import deque
from itertools import zip_longest
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.config import ImplementationFactory, KernelConfig
from repro.engine.dpor import SleepSets, check_reduction
from repro.obs.recorder import active as _obs_active
from repro.sim.drivers import Decision

#: Client callback: legal labelled decisions out of a configuration.
SuccessorFn = Callable[[KernelConfig], Sequence[Tuple[Any, Decision]]]
#: Client callback: dedup key of a configuration.
FingerprintFn = Callable[[KernelConfig], Hashable]
#: Client callback: drop a just-produced child configuration entirely.
PruneFn = Callable[[KernelConfig], bool]

MODES = ("snapshot", "replay", "parity")

#: The search strategies: breadth first and depth first.
STRATEGIES = ("bfs", "dfs")


def check_strategy(strategy: str) -> str:
    """Validate a strategy name (one of :data:`STRATEGIES`)."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown search strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return strategy


def _reported(choices: tuple, depth: int, cap: Optional[int]) -> bool:
    """Whether a report yields a visit: it ends a maximal run (no choice
    left), or its depth is at least ``cap``, which is 0 for the
    every-configuration report, ``max_depth`` for the maximal-runs
    report and ``None`` (never) for an unbounded maximal-runs report."""
    return not choices or (cap is not None and depth >= cap)


class SearchBudgetExceeded(RuntimeError):
    """The search would visit more unique nodes than its budget allows."""


class EngineParityError(AssertionError):
    """Snapshot-mode and replay-mode exploration diverged."""


class ConfigVisit(NamedTuple):
    """One unique configuration, visited at discovery time.

    ``config`` is live only until the iterator advances (the engine
    recycles it); consumers must extract what they need immediately.
    A named tuple, since one is built per reported configuration: per
    unique configuration in the every-configuration report, per maximal
    run in the maximal-runs report (``choices`` is then empty, or
    ``depth`` is at least ``max_depth``).
    """

    config: KernelConfig
    fingerprint: Hashable
    schedule: Tuple[Any, ...]
    depth: int
    choices: Tuple[Tuple[Any, Decision], ...]


class KernelExplorer:
    """Deduplicated search over the configuration graph of one kernel.

    Parameters
    ----------
    factory:
        Fresh-implementation factory (one instance per restore/replay).
    successors:
        Legal labelled decisions out of a configuration; called once per
        unique configuration at discovery time.
    root_decisions:
        Decisions applied before the root configuration (e.g. the
        initial proposal invocations of the valency search).
    mode, strategy:
        See module docstring; ``strategy`` is ``"bfs"`` or ``"dfs"``
        (the frontier's pop order), anything else raises ``ValueError``
        here.
    fingerprint:
        Dedup key; defaults to the exact configuration-and-history key
        :meth:`~repro.engine.config.KernelConfig.fingerprint`.
    prune:
        Children for which this returns true are dropped entirely — no
        visit, no edge (the valency search prunes fully decided
        configurations, which can never lie on a witness cycle).
    max_depth:
        Configurations at this depth are visited but not expanded.
    max_configurations, on_budget:
        Unique-configuration budget, the root included.  ``on_budget``
        selects what hitting it does: ``"raise"`` (default) raises
        :class:`SearchBudgetExceeded`, ``"stop"`` ends the search
        quietly with the frontier dropped.
    record_edges:
        Also record every explored edge in :attr:`edges`.

    :meth:`run` yields every visit, or with ``maximal_only=True`` only
    the visits that end a maximal run (see the module docstring); the
    tables below are the same for both reports.

    While and after :meth:`run` is consumed, :attr:`depths` maps each
    visited fingerprint to the depth it was visited at (under ``bfs``,
    its shortest distance from the root), and :attr:`edges` (only with
    ``record_edges``) maps it to ``{label: child fingerprint}``,
    including edges that close cycles into already-visited
    configurations.  ``depths`` is the search's one visited table.
    """

    def __init__(
        self,
        factory: ImplementationFactory,
        successors: SuccessorFn,
        root_decisions: Sequence[Decision] = (),
        mode: str = "snapshot",
        strategy: str = "dfs",
        fingerprint: Optional[FingerprintFn] = None,
        prune: Optional[PruneFn] = None,
        max_depth: Optional[int] = None,
        max_configurations: Optional[int] = None,
        on_budget: str = "raise",
        record_edges: bool = False,
        reduction: str = "none",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if on_budget not in ("raise", "stop"):
            raise ValueError(f"on_budget must be 'raise' or 'stop', got {on_budget!r}")
        # Parity between the reductions lives above the engine (the
        # verify facade runs two searches); the explorer itself only
        # knows how to search with the reduction on or off.
        check_reduction(reduction, ("none", "dpor"))
        self.reduction = reduction
        self.factory = factory
        self.successors = successors
        self.root_decisions = tuple(root_decisions)
        self.mode = mode
        self.strategy = check_strategy(strategy)
        self.fingerprint = fingerprint
        self.prune = prune
        self.max_depth = max_depth
        self.max_configurations = max_configurations
        self.on_budget = on_budget
        self.record_edges = record_edges
        #: fingerprint -> depth at which the configuration was visited.
        self.depths: Dict[Hashable, int] = {}
        #: fingerprint -> {label: child fingerprint}; only with record_edges.
        self.edges: Dict[Hashable, Dict[Any, Hashable]] = {}
        # One shared instance: implementations are stateless across runs
        # (their per-run state lives in pools and memories), so every
        # restore/replay can reuse it instead of paying factory() again.
        self._implementation = factory()

    # -- public API --------------------------------------------------------

    def run(self, maximal_only: bool = False) -> Iterator[ConfigVisit]:
        """Lazily yield one visit per unique configuration, or, with
        ``maximal_only``, only the visits that end a maximal run: those
        with no choice left or at search depth ``max_depth`` or more.
        The search itself (order, dedup, captures, restores) is the same
        for both reports."""
        cap = self.max_depth if maximal_only else 0
        if self.mode == "parity":
            return self._run_parity(cap)
        return self._run_single(cap)

    # -- internals ---------------------------------------------------------

    def _run_single(self, cap: Optional[int]) -> Iterator[ConfigVisit]:
        # The whole search is this one frame: everything per edge is a
        # local.  A frontier entry is [fingerprint, depth, schedule,
        # decisions, snapshot, choices, sleep]: ``decisions`` is the
        # path replay mode re-executes (empty in snapshot mode),
        # ``snapshot`` is None until the node is captured (see ``owed``
        # below), and ``sleep`` is the DPOR sleep set (label ->
        # Footprint; None when the reduction is off).  A node's depth is
        # its search depth; a DPOR revisit (see _revisit) keeps the
        # depth of the first visit while carrying the schedule of the
        # path that forced it, so expansion decisions read
        # ``len(schedule)`` and the depth bound reads ``depth``.
        reduce = self.reduction == "dpor"
        sleeps = SleepSets() if reduce else None
        snapshot = self.mode == "snapshot"
        successors, prune, fingerprint = self.successors, self.prune, self.fingerprint
        max_depth, budget = self.max_depth, self.max_configurations
        self.depths = depths = {}
        self.edges = edges = {}
        edges_of = edges.setdefault if self.record_edges else None
        implementation = self._implementation
        root_decisions = self.root_decisions
        # Fetched once per search: the disabled-metrics cost inside the
        # loop is a single `is not None` check per counter.
        rec = _obs_active()
        frontier: deque = deque()
        pop = frontier.popleft if self.strategy == "bfs" else frontier.pop
        push = frontier.append
        # Snapshot mode restores into this one scratch configuration per
        # explored edge — zero runtime/pool allocation per restore.  A
        # ConfigVisit's config is therefore only valid until the search
        # advances, which synchronous consumers never notice.
        scratch = None
        if snapshot:
            scratch = KernelConfig(implementation)
            scratch.runtime.record_footprints = reduce
        # Fingerprint of the configuration sitting in the scratch.  When
        # a node is expanded right after being visited (the common case
        # under DFS) the scratch already *is* that configuration, and
        # its first child needs no restore at all.
        held: Optional[Hashable] = None
        # Capture is lazy: a pushed entry that will need a restore is
        # "owed" a snapshot while the scratch holds its configuration,
        # and captured only when the scratch is about to leave it
        # (restore or apply).  Popped while the scratch still holds it,
        # it is captured only if a second awake choice will restore it.
        owed: Optional[list] = None

        config = KernelConfig(implementation).apply_all(root_decisions)
        if prune is not None and prune(config):
            return
        key = config.fingerprint() if fingerprint is None else fingerprint(config)
        choices = tuple(successors(config))
        sleep = {} if reduce else None
        expandable = bool(choices) and (max_depth is None or max_depth > 0)
        if reduce and expandable:
            sleeps.note_expansion(key, sleep)
        snap = None
        if snapshot and expandable:
            if rec is not None:
                rec.count("engine/snapshot_captures")
            snap = config.capture()
        depths[key] = 0
        # Roots count against the budget like any other visit.
        if budget is not None and budget < 1:
            self._budget_hit()
            return
        visited = 1
        if _reported(choices, 0, cap):
            yield ConfigVisit(config, key, (), 0, choices)
        push([key, 0, (), (), snap, choices, sleep])

        while frontier:
            entry = pop()
            key, depth, schedule, decisions, snap, choices, sleep = entry
            if rec is not None:
                rec.count("engine/frontier_pops")
            if entry is owed:
                owed = None
                awake = 0
                for label, _ in choices:
                    if not sleep or label not in sleep:
                        awake += 1
                if awake > 1:
                    if rec is not None:
                        rec.count("engine/snapshot_captures")
                    snap = scratch.capture()
            if max_depth is not None and depth >= max_depth:
                continue
            explored = []  # (label, Footprint) of expanded siblings, DPOR only
            blocked = 0
            child_sleep = None
            for label, decision in choices:
                if reduce and label in sleep:
                    # An equivalent interleaving taking this decision
                    # first was already explored from a sibling.
                    blocked += 1
                    if rec is not None:
                        rec.count("dpor/sleep_blocked")
                    continue
                if snapshot:
                    config = scratch
                    if owed is not None:
                        if rec is not None:
                            rec.count("engine/snapshot_captures")
                        owed[4] = config.capture()
                        owed = None
                    if held is not key and held != key:
                        if snap is None:
                            raise RuntimeError(
                                f"frontier entry at schedule {schedule!r} "
                                f"(depth {depth}) has no snapshot and the "
                                "scratch configuration does not hold it"
                            )
                        config.restore_from(snap)
                        if rec is not None:
                            rec.count("engine/snapshot_restores")
                    elif rec is not None:
                        rec.count("engine/scratch_reuses")
                    held = None  # stale while mutating
                    config.apply(decision)
                    child_decisions = ()
                else:
                    child_decisions = decisions + (decision,)
                    if rec is not None:
                        rec.count("engine/replays")
                        rec.count(
                            "kernel/replayed_decisions",
                            len(root_decisions) + len(child_decisions),
                        )
                    config = KernelConfig(implementation)
                    config.runtime.record_footprints = reduce
                    config.apply_all(root_decisions + child_decisions)
                if prune is not None and prune(config):
                    continue
                if reduce:
                    executed = config.runtime.last_footprint
                    child_sleep = sleeps.child_sleep(sleep, explored, executed)
                    explored.append((label, executed))
                child_key = (
                    config.fingerprint() if fingerprint is None else fingerprint(config)
                )
                if snapshot:
                    held = child_key
                if edges_of is not None:
                    edges_of(key, {})[label] = child_key
                if child_key in depths:
                    if rec is not None:
                        rec.count("engine/dedup_hits")
                    if reduce:
                        revisit = self._revisit(
                            sleeps, config, child_key, child_sleep, rec
                        )
                        if revisit is not None:
                            revisit = [
                                child_key, depths[child_key], schedule + (label,),
                                child_decisions, None, *revisit,
                            ]
                            push(revisit)
                            if snapshot:
                                owed = revisit
                    continue
                child_schedule = schedule + (label,)
                child_choices = tuple(successors(config))
                expandable = bool(child_choices) and (
                    max_depth is None or len(child_schedule) < max_depth
                )
                if reduce and expandable:
                    sleeps.note_expansion(child_key, child_sleep)
                if budget is not None and visited >= budget:
                    self._budget_hit()
                    return
                visited += 1
                depths[child_key] = depth + 1
                if rec is not None:
                    rec.count("engine/frontier_pushes")
                if _reported(child_choices, depth + 1, cap):
                    yield ConfigVisit(
                        config, child_key, child_schedule, depth + 1, child_choices
                    )
                child = [
                    child_key, depth + 1, child_schedule, child_decisions,
                    None, child_choices, child_sleep,
                ]
                push(child)
                # Only a node that can actually be expanded later is owed
                # a snapshot; leaves and depth-capped nodes never need
                # one, and neither does a DPOR node whose every choice is
                # asleep (expanding it restores nothing).
                if snapshot and expandable:
                    for choice, _ in child_choices:
                        if not child_sleep or choice not in child_sleep:
                            owed = child
                            break
            if blocked and blocked == len(choices) and rec is not None:
                rec.count("dpor/pruned")

    def _budget_hit(self) -> None:
        """The next visit would exceed the budget: raise, or return to
        end the search quietly (``on_budget="stop"``)."""
        if self.on_budget == "raise":
            raise SearchBudgetExceeded(
                f"search exceeded {self.max_configurations} unique nodes"
            )

    def _revisit(self, sleeps, config, key, sleep, rec):
        """State-caching repair: re-expand a visited state when this
        path arrives with decisions awake that its first expansion had
        asleep (see :mod:`repro.engine.dpor`).  ``config`` is live (the
        child just produced), so the enabled set is at hand, and the
        re-queued entry is owed its own snapshot like a new child.
        Returns the re-queued entry's ``(choices, sleep)``, or ``None``
        when plain dedup is sound.

        The re-queued state is popped and expanded like any frontier
        entry but yields no new visit (it was already visited, counted
        and reported) and leaves :attr:`depths` untouched; only the
        not-yet-seen children it produces surface as visits.  It keeps
        the depth of its first visit, so the re-expansion inherits the
        depth budget its subtree was originally measured under."""
        choices = tuple(self.successors(config))
        merged = sleeps.revisit_sleep(key, sleep, (label for label, _ in choices))
        if merged is None:
            return None
        if rec is not None:
            rec.count("dpor/revisit_repairs")
        return choices, merged

    def _run_parity(self, cap: Optional[int]) -> Iterator[ConfigVisit]:
        # Both sides report every configuration, so an interior
        # divergence fails even when only maximal runs are reported.
        snapshot_side = self._clone(mode="snapshot")
        replay_side = self._clone(mode="replay")
        for snap, rep in zip_longest(snapshot_side.run(), replay_side.run()):
            if snap is None or rep is None:
                raise EngineParityError(
                    "snapshot and replay exploration visited different "
                    "numbers of configurations"
                )
            if snap.fingerprint != rep.fingerprint:
                raise EngineParityError(
                    f"fingerprint divergence at schedule {snap.schedule!r}: "
                    f"snapshot != replay"
                )
            if snap.schedule != rep.schedule:
                raise EngineParityError(
                    f"schedule divergence: {snap.schedule!r} != {rep.schedule!r}"
                )
            self.depths = snapshot_side.depths
            self.edges = snapshot_side.edges
            if _reported(snap.choices, snap.depth, cap):
                yield snap

    def _clone(self, mode: str) -> "KernelExplorer":
        return KernelExplorer(
            self.factory,
            self.successors,
            root_decisions=self.root_decisions,
            mode=mode,
            strategy=self.strategy,
            fingerprint=self.fingerprint,
            prune=self.prune,
            max_depth=self.max_depth,
            max_configurations=self.max_configurations,
            on_budget=self.on_budget,
            record_edges=self.record_edges,
            reduction=self.reduction,
        )

"""Unified exploration of kernel configuration graphs.

:class:`KernelExplorer` is the engine behind every search that steps a
simulated implementation through all relevant schedules: exhaustive
history exploration (:mod:`repro.sim.explore`) and the valency-style
non-deciding-schedule search (:mod:`repro.adversaries.valency`) are thin
clients.  The client supplies two callbacks —

* ``successors(config)``: the legal ``(label, decision)`` pairs out of a
  configuration (e.g. *invoke the next planned operation of p0* /
  *step p1*), and
* ``fingerprint(config)``: the dedup key (exact configuration by
  default; the valency client substitutes its liveness abstraction) —

and the explorer walks the deduplicated configuration graph with a
:class:`~repro.engine.frontier.GraphSearch`, yielding one
:class:`ConfigVisit` per unique configuration.

Modes
-----
``snapshot`` (default)
    Each discovered configuration is captured as a
    :class:`~repro.engine.config.KernelSnapshot`; expanding a node
    restores the snapshot once per child — O(configuration size) per
    edge instead of the O(depth) full re-execution replay pays.
``replay``
    The seed behaviour, kept as a fallback behind the same interface: a
    node is identified with its decision path and every edge re-executes
    the run from the start.
``parity``
    Runs both modes in lockstep and raises :class:`EngineParityError` on
    the first divergence in fingerprint or schedule — the executable
    form of the claim that snapshot/restore is exact.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.config import ImplementationFactory, KernelConfig, KernelSnapshot
from repro.engine.dpor import SleepSets, check_reduction
from repro.engine.frontier import GraphSearch, check_strategy
from repro.obs.recorder import active as _obs_active
from repro.sim.drivers import Decision

#: Client callback: legal labelled decisions out of a configuration.
SuccessorFn = Callable[[KernelConfig], Sequence[Tuple[Any, Decision]]]
#: Client callback: dedup key of a configuration.
FingerprintFn = Callable[[KernelConfig], Hashable]
#: Client callback: drop a just-produced child configuration entirely.
PruneFn = Callable[[KernelConfig], bool]

MODES = ("snapshot", "replay", "parity")


class EngineParityError(AssertionError):
    """Snapshot-mode and replay-mode exploration diverged."""


class ConfigVisit(NamedTuple):
    """One unique configuration, visited at discovery time.

    ``config`` is live only until the iterator advances (the engine
    recycles it); consumers must extract what they need immediately.
    A named tuple, since one is built per explored configuration.
    """

    config: KernelConfig
    fingerprint: Hashable
    schedule: Tuple[Any, ...]
    depth: int
    choices: Tuple[Tuple[Any, Decision], ...]


class _Node:
    """Internal search node: a configuration's restorable identity.

    ``config`` transiently holds the live configuration between
    discovery and the client visit; it is dropped immediately after so
    frontier entries keep only plain-data snapshots (or, in replay mode,
    decision paths).
    """

    __slots__ = (
        "fingerprint", "schedule", "decisions", "snapshot", "choices", "config",
        "sleep",
    )

    def __init__(
        self,
        fingerprint: Hashable,
        schedule: Tuple[Any, ...],
        decisions: Tuple[Decision, ...],
        snapshot: Optional[KernelSnapshot],
        choices: Tuple[Tuple[Any, Decision], ...],
        config: KernelConfig,
    ):
        self.fingerprint = fingerprint
        self.schedule = schedule
        self.decisions = decisions
        self.snapshot = snapshot
        self.choices = choices
        self.config = config
        # Sleep set under DPOR (label -> Footprint); None when off.
        self.sleep = None


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
        See module docstring; ``strategy`` is ``"bfs"`` or ``"dfs"`` (the
        :class:`~repro.engine.frontier.GraphSearch` pop order).
    fingerprint:
        Dedup key; defaults to the exact configuration-and-history key
        :meth:`~repro.engine.config.KernelConfig.fingerprint`.
    prune:
        Children for which this returns true are dropped entirely — no
        visit, no edge (the valency search prunes fully decided
        configurations, which can never lie on a witness cycle).
    max_depth, max_configurations, on_budget:
        Passed to the underlying :class:`GraphSearch`; the budget counts
        unique configurations.
    record_edges:
        Expose the explored edge relation as :attr:`edges` after the
        run (fingerprint → {label: fingerprint}), including edges that
        close cycles into already-visited configurations.
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
        self.fingerprint = fingerprint or (lambda config: config.fingerprint())
        self.prune = prune
        self.max_depth = max_depth
        self.max_configurations = max_configurations
        self.on_budget = on_budget
        self.record_edges = record_edges
        self.search: Optional[GraphSearch] = None
        # One shared instance: implementations are stateless across runs
        # (their per-run state lives in pools and memories), so every
        # restore/replay can reuse it instead of paying factory() again.
        self._implementation = factory()
        # Snapshot mode restores into this one scratch configuration per
        # explored edge — zero runtime/pool allocation per restore.  A
        # ConfigVisit's config is therefore only valid until the search
        # advances, which synchronous consumers never notice.
        self._scratch: Optional[KernelConfig] = None
        # Exact fingerprint of the configuration currently sitting in the
        # scratch.  When a node is expanded right after being visited (the
        # common case under DFS) the scratch already *is* that
        # configuration, and the first child needs no restore at all.
        self._scratch_fingerprint: Optional[Hashable] = None

    # -- public API --------------------------------------------------------

    def run(self) -> Iterator[ConfigVisit]:
        """Lazily yield one visit per unique configuration."""
        if self.mode == "parity":
            return self._run_parity()
        return self._run_single(self.mode)

    @property
    def edges(self) -> Dict[Hashable, Dict[Any, Hashable]]:
        """Explored edge relation (after/while consuming :meth:`run`)."""
        if self.search is None:
            raise RuntimeError("run() has not been started")
        return self.search.edges

    # -- internals ---------------------------------------------------------

    def _make_node(
        self,
        config: KernelConfig,
        schedule: Tuple[Any, ...],
        decisions: Tuple[Decision, ...],
        mode: str,
        fingerprint: Optional[Hashable] = None,
        sleep: Optional[Dict[Any, Any]] = None,
    ) -> _Node:
        if fingerprint is None:
            fingerprint = self.fingerprint(config)
        choices = tuple(self.successors(config))
        # A snapshot is only taken when the node can actually be
        # expanded later; leaves and depth-capped nodes never need one,
        # and neither does a DPOR node whose every choice is asleep
        # (expanding it restores nothing).
        capture = (
            mode == "snapshot"
            and bool(choices)
            and (self.max_depth is None or len(schedule) < self.max_depth)
            and not (sleep and all(label in sleep for label, _ in choices))
        )
        if capture:
            rec = _obs_active()
            if rec is not None:
                rec.count("engine/snapshot_captures")
        node = _Node(
            fingerprint=fingerprint,
            schedule=schedule,
            decisions=decisions,
            snapshot=config.capture() if capture else None,
            choices=choices,
            config=config,
        )
        node.sleep = sleep
        return node

    def _child_config(self, node: _Node, decision: Decision, mode: str) -> KernelConfig:
        rec = _obs_active()
        if mode == "snapshot":
            if self._scratch is None:
                self._scratch = KernelConfig(self._implementation)
                self._scratch.runtime.record_footprints = self.reduction == "dpor"
            config = self._scratch
            if self._scratch_fingerprint != node.fingerprint:
                config.restore_from(node.snapshot)
                if rec is not None:
                    rec.count("engine/snapshot_restores")
            elif rec is not None:
                rec.count("engine/scratch_reuses")
            self._scratch_fingerprint = None  # stale while mutating
            config.apply(decision)
            return config
        if rec is not None:
            rec.count("engine/replays")
            rec.count(
                "kernel/replayed_decisions",
                len(self.root_decisions) + len(node.decisions) + 1,
            )
        config = KernelConfig(self._implementation)
        config.runtime.record_footprints = self.reduction == "dpor"
        return config.apply_all(
            self.root_decisions + node.decisions + (decision,)
        )

    def _expandable(self, node: _Node) -> bool:
        return bool(node.choices) and (
            self.max_depth is None or len(node.schedule) < self.max_depth
        )

    def _run_single(self, mode: str) -> Iterator[ConfigVisit]:
        reduce = self.reduction == "dpor"
        sleeps = SleepSets() if reduce else None
        root_config = KernelConfig(self._implementation).apply_all(self.root_decisions)
        if self.prune is not None and self.prune(root_config):
            return
        root = self._make_node(
            root_config, (), (), mode, sleep={} if reduce else None
        )
        if reduce and self._expandable(root):
            sleeps.note_expansion(root.fingerprint, root.sleep)

        def expand(node: _Node) -> Iterator[Tuple[Any, _Node]]:
            rec = _obs_active() if reduce else None
            explored: List[Tuple[Any, Any]] = []  # (label, Footprint)
            blocked = 0
            for label, decision in node.choices:
                if reduce and label in node.sleep:
                    # An equivalent interleaving taking this decision
                    # first was already explored from a sibling.
                    blocked += 1
                    if rec is not None:
                        rec.count("dpor/sleep_blocked")
                    continue
                config = self._child_config(node, decision, mode)
                if self.prune is not None and self.prune(config):
                    continue
                child_sleep = None
                if reduce:
                    executed = config.runtime.last_footprint
                    child_sleep = sleeps.child_sleep(node.sleep, explored, executed)
                    explored.append((label, executed))
                fingerprint = self.fingerprint(config)
                if config is self._scratch:
                    self._scratch_fingerprint = fingerprint
                if fingerprint in search.parents:
                    if reduce:
                        self._repair_revisit(
                            search, sleeps, config, fingerprint,
                            node.schedule + (label,),
                            node.decisions + (decision,),
                            child_sleep, mode, rec,
                        )
                    # Already visited: the search only records the edge,
                    # so skip the successor scan and snapshot capture.
                    yield label, _Node(fingerprint, (), (), None, (), None)
                    continue
                child = self._make_node(
                    config,
                    node.schedule + (label,),
                    node.decisions + (decision,),
                    mode,
                    fingerprint=fingerprint,
                    sleep=child_sleep,
                )
                if reduce and self._expandable(child):
                    sleeps.note_expansion(fingerprint, child_sleep)
                yield label, child
            if reduce and blocked and blocked == len(node.choices):
                if rec is not None:
                    rec.count("dpor/pruned")

        search = GraphSearch(
            strategy=self.strategy,
            key=lambda node: node.fingerprint,  # revisit nodes are re-pushed, not re-keyed
            max_nodes=self.max_configurations,
            max_depth=self.max_depth,
            on_budget=self.on_budget,
            record_edges=self.record_edges,
        )
        self.search = search
        for visit in search.run([root], expand):
            node: _Node = visit.node
            config, node.config = node.config, None
            yield ConfigVisit(
                config, node.fingerprint, node.schedule, visit.depth, node.choices
            )

    def _repair_revisit(
        self, search, sleeps, config, fingerprint, schedule, decisions,
        child_sleep, mode, rec,
    ) -> None:
        """State-caching repair: re-expand a visited state when this
        path arrives with decisions awake that its first expansion had
        asleep (see :mod:`repro.engine.dpor`).  ``config`` is live (the
        child just produced), so the enabled set and a fresh snapshot
        are at hand."""
        choices = tuple(self.successors(config))
        merged = sleeps.revisit_sleep(
            fingerprint, child_sleep, (label for label, _ in choices)
        )
        if merged is None:
            return
        if rec is not None:
            rec.count("dpor/revisit_repairs")
        revisit = _Node(
            fingerprint=fingerprint,
            schedule=schedule,
            decisions=decisions,
            snapshot=config.capture() if mode == "snapshot" else None,
            choices=choices,
            config=None,
        )
        revisit.sleep = merged
        search.push_revisit(revisit, fingerprint)

    def _run_parity(self) -> Iterator[ConfigVisit]:
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
            self.search = snapshot_side.search
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

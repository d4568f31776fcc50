"""Tests for the unified exploration engine (:mod:`repro.engine`).

The engine's load-bearing promises, in test form:

* snapshot/restore is *exact* — snapshot-mode and replay-mode
  exploration produce identical history sets and identical fingerprint
  sets on the seed workloads, and the valency search returns identical
  verdicts in both modes;
* a delta restore (skipping what the scratch already holds) equals a
  restore into a fresh configuration, however the scratch got where it
  is — by ``apply``, by a fuzz fast walk, or by a liveness-search branch;
* an operation node gives the configuration a fresh replay gives, on
  every path a step can take: the memo, the live generator, and a
  rebuild after a sibling took the generator or a crash closed it; an
  algorithm that raised raises again;
* the explorer's search honours its strategy, budget, depth and
  edge-recording contracts, and rejects an unknown strategy when it is
  built;
* its visit order is pinned: three searches reproduce recorded digests
  of their ordered schedules (and, for the valency search, edges), and
  a DPOR revisit repair re-queues its state and counts its capture;
* it captures only the nodes it comes back to (every snapshot but the
  root's is restored), and a node it must restore without a snapshot
  fails loudly.
"""

import hashlib
import os
import pickle
import re
import subprocess
import sys
import tracemalloc

import pytest

from repro.adversaries.valency import find_nondeciding_schedule
from repro.algorithms.consensus import (
    CasConsensus,
    CommitAdoptConsensus,
    StubbornConsensus,
    TasConsensus,
)
from repro.algorithms.tm import AgpTransactionalMemory, I12TransactionalMemory
from repro.base_objects.base import ObjectPool
from repro.base_objects.register import AtomicRegister
from repro.core.events import Response
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.engine.config import KernelConfig
from repro.engine.explorer import (
    EngineParityError,
    KernelExplorer,
    SearchBudgetExceeded,
)
from repro.fuzz.driver import FuzzDriver, fuzz_workload
from repro.fuzz.trace import schedule_to_decisions
from repro.obs.recorder import recording
from repro.scenarios import get_scenario, verify
from repro.sim import explore_histories
from repro.sim.drivers import CrashDecision, InvokeDecision, StepDecision
from repro.sim.kernel import Implementation, Op
from repro.sim.explore import plan_successors
from repro.sim.liveness_search import LivenessSearch, PlanPolicy
from repro.util.errors import SimulationError
from repro.util.freeze import HashedKey
from repro.util.rng import DeterministicRng

PROPOSE_PLAN = {0: [("propose", (0,))], 1: [("propose", (1,))]}
TM_PLAN = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}

TICK_TYPE = ObjectType(
    name="tick",
    operations=(OperationSignature("tick", response_domain=(1,)),),
    progress_mode=ProgressMode.EVENTUAL,
)


class TwoCells(Implementation):
    """Each process writes its own register once, then responds.

    With both ticks invoked up front, the two writes commute: stepping
    p0 then p1 and p1 then p0 reach one configuration (a diamond), and
    the graph ends after each process has responded.
    """

    name = "two-cells"

    def __init__(self):
        super().__init__(TICK_TYPE, 2)

    def create_pool(self):
        return ObjectPool([AtomicRegister("r0", 0), AtomicRegister("r1", 0)])

    def algorithm(self, pid, operation, args, memory):
        return self._tick(pid)

    @staticmethod
    def _tick(pid):
        yield Op(f"r{pid}", "write", (1,))
        return 1


def two_cells(strategy="bfs", **options):
    """A KernelExplorer over TwoCells: labels are the stepped pid."""
    return KernelExplorer(
        TwoCells,
        lambda config: [
            (pid, StepDecision(pid)) for pid in (0, 1) if config.is_pending(pid)
        ],
        root_decisions=[InvokeDecision(0, "tick"), InvokeDecision(1, "tick")],
        strategy=strategy,
        **options,
    )


def fingerprints_by_schedule(explorer):
    return {visit.schedule: visit.fingerprint for visit in explorer.run()}


class TestGraphSearch:
    """The explorer's search contract: strategy, budget, depth bound and
    edge recording, over the small TwoCells configuration graph."""

    def test_bfs_visits_shortest_first(self):
        # Shortest distances from an independent BFS over the edges a
        # DFS run records.
        dfs = two_cells("dfs", record_edges=True)
        root = list(dfs.run())[0].fingerprint
        distance, layer = {root: 0}, [root]
        while layer:
            next_layer = []
            for node in layer:
                for child in dfs.edges.get(node, {}).values():
                    if child not in distance:
                        distance[child] = distance[node] + 1
                        next_layer.append(child)
            layer = next_layer
        bfs = two_cells("bfs", record_edges=True)
        visits = list(bfs.run())
        depths = [visit.depth for visit in visits]
        assert depths == sorted(depths) and depths[-1] >= 3
        assert bfs.depths == distance
        assert [visit.fingerprint for visit in visits if visit.depth == 0] == [root]
        for visit in visits:
            assert len(visit.schedule) == visit.depth == bfs.depths[visit.fingerprint]
            # A visit's schedule is a path of recorded edges to it.
            node = root
            for label in visit.schedule:
                node = bfs.edges[node][label]
            assert node == visit.fingerprint

    def test_dfs_expands_newest_first(self):
        # Visits are discovery-ordered in every strategy; the strategy
        # shows in *which parent* discovers a shared child.  Both
        # writes done is reached from p0-wrote and from p1-wrote: BFS
        # expands p0-wrote first (FIFO), DFS p1-wrote (LIFO).
        bfs = two_cells("bfs", record_edges=True)
        dfs = two_cells("dfs", record_edges=True)
        at_bfs, at_dfs = fingerprints_by_schedule(bfs), fingerprints_by_schedule(dfs)
        assert (0, 1) in at_bfs and (1, 0) not in at_bfs
        assert (1, 0) in at_dfs and (0, 1) not in at_dfs
        both = at_bfs[(0, 1)]
        assert both == at_dfs[(1, 0)]
        assert bfs.depths[both] == dfs.depths[both] == 2
        # Both searches record both edges into the shared child; the
        # visit's schedule names the one that discovered it.
        for explorer, at in ((bfs, at_bfs), (dfs, at_dfs)):
            assert explorer.edges[at[(0,)]][1] == explorer.edges[at[(1,)]][0] == both

    @pytest.mark.parametrize("strategy", ["iterative-deepening", "BFS", "random"])
    def test_unknown_strategy_rejected_at_construction(self, strategy):
        with pytest.raises(ValueError, match="strategy"):
            two_cells(strategy)
        with pytest.raises(ValueError, match="strategy"):
            KernelExplorer(
                lambda: CasConsensus(2),
                plan_successors(PROPOSE_PLAN),
                strategy=strategy,
            )

    def test_budget_raise(self):
        # The root counts: a budget of 2 admits the root and one child.
        run = two_cells(max_configurations=2).run()
        assert [visit.depth for visit in (next(run), next(run))] == [0, 1]
        with pytest.raises(SearchBudgetExceeded):
            next(run)

    def test_budget_stop(self):
        explorer = two_cells(max_configurations=2, on_budget="stop")
        visits = list(explorer.run())
        assert [visit.schedule for visit in visits] == [(), (0,)]
        assert explorer.depths == {visits[0].fingerprint: 0, visits[1].fingerprint: 1}
        with pytest.raises(SearchBudgetExceeded):
            list(two_cells(max_configurations=0).run())
        assert list(two_cells(max_configurations=0, on_budget="stop").run()) == []

    def test_max_depth_limits_expansion(self):
        visits = list(two_cells(max_depth=1).run())
        assert [visit.schedule for visit in visits] == [(), (0,), (1,)]
        unbounded = list(two_cells().run())
        assert len(unbounded) > len(visits)

    def test_record_edges_includes_cycle_closers(self):
        # Keyed on the registers alone, a process's response step leaves
        # the key unchanged: an edge back into a visited configuration.
        explorer = two_cells(
            fingerprint=lambda config: config.runtime.pool.snapshot_state(),
            record_edges=True,
        )
        at = fingerprints_by_schedule(explorer)
        assert set(at) == {(), (0,), (1,), (0, 1)}
        assert explorer.edges[at[(0,)]] == {0: at[(0,)], 1: at[(0, 1)]}
        assert explorer.edges[at[()]] == {0: at[(0,)], 1: at[(1,)]}
        without = two_cells(
            fingerprint=lambda config: config.runtime.pool.snapshot_state()
        )
        list(without.run())
        assert without.edges == {}


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


class TestVisitOrderPin:
    """Visit order, schedules and edges of three real searches, pinned
    by digest: any change to the search loop that reorders, adds or
    drops a visit or an edge moves a digest."""

    @pytest.mark.parametrize(
        "scenario_id,visits,digest",
        [
            (
                "agp-opacity",
                1633,
                "ec6e06e7582529bacf266d77b1fc5fc054b8cc44fdfd39b26d63fd95a7552bd8",
            ),
            (
                "lock-mutex:impl=bakery,n=2,rounds=1",
                17077,
                "58d01ab0df98648d372221a9301c02a2a01527350963608b34b9cfa442dfd167",
            ),
        ],
    )
    def test_exhaustive_dfs_dpor_schedules(self, scenario_id, visits, digest):
        scenario = get_scenario(scenario_id)
        explorer = KernelExplorer(
            scenario.factory,
            plan_successors(scenario.plan),
            strategy="dfs",
            max_depth=scenario.bounds.max_depth,
            max_configurations=scenario.bounds.max_configurations,
            reduction="dpor",
        )
        schedules = [visit.schedule for visit in explorer.run()]
        assert (len(schedules), _digest(schedules)) == (visits, digest)

    def test_dpor_revisits_are_requeued(self):
        # A DPOR revisit repair re-queues a visited state without a new
        # visit, so the frontier pops the root, every pushed child and
        # every repair.  (Here the re-expansions find no unseen child,
        # so the schedules alone would not notice a lost repair.)
        scenario = get_scenario("consensus-grid:impl=cas,n=3,proposals=alt")
        explorer = KernelExplorer(
            scenario.factory,
            plan_successors(scenario.plan),
            strategy="dfs",
            max_depth=scenario.bounds.max_depth,
            max_configurations=scenario.bounds.max_configurations,
            reduction="dpor",
        )
        with recording() as rec:
            visits = sum(1 for _ in explorer.run())
        counters = rec.counters
        assert (visits, counters["dpor/revisit_repairs"]) == (425, 2)
        assert counters["engine/frontier_pushes"] == visits - 1
        assert counters["engine/frontier_pops"] == 1 + (visits - 1) + 2

    def test_every_capture_is_counted(self, monkeypatch):
        # A repair's re-queued state is owed a snapshot like a new child:
        # the counter must equal the number of KernelConfig.capture calls.
        captures = []
        original = KernelConfig.capture

        def counting(config):
            captures.append(1)
            return original(config)

        monkeypatch.setattr(KernelConfig, "capture", counting)
        scenario = get_scenario("consensus-grid:impl=cas,n=3,proposals=alt")
        explorer = KernelExplorer(
            scenario.factory,
            plan_successors(scenario.plan),
            strategy="dfs",
            max_depth=scenario.bounds.max_depth,
            max_configurations=scenario.bounds.max_configurations,
            reduction="dpor",
        )
        with recording() as rec:
            for _ in explorer.run():
                pass
        counters = rec.counters
        assert counters["dpor/revisit_repairs"] == 2
        assert counters["engine/snapshot_captures"] == len(captures) == 224

    def test_valency_bfs_prune_edges(self, monkeypatch):
        import repro.adversaries.valency as valency

        searches = []

        class Recording(KernelExplorer):
            def run(self):
                searches.append(self)
                self.visits = []
                for visit in super().run():
                    self.visits.append((visit.schedule, visit.fingerprint))
                    yield visit

        monkeypatch.setattr(valency, "KernelExplorer", Recording)
        find_nondeciding_schedule(
            lambda: CommitAdoptConsensus(2), proposals=(0, 1), max_configs=3_000
        )
        (explorer,) = searches
        schedules = [schedule for schedule, _ in explorer.visits]
        # Fingerprints render through hash-ordered containers, so edges
        # are digested by visit index instead.
        index = {fingerprint: i for i, (_, fingerprint) in enumerate(explorer.visits)}
        edges = [
            (index[key], sorted((repr(label), index.get(child, -1))
                                for label, child in out.items()))
            for key, out in explorer.edges.items()
        ]
        assert (len(schedules), _digest(schedules)) == (
            644,
            "b7049496f108a590f185e892a104f66e1eb1cc58f53e16d7249b9cdb08c4d94e",
        )
        assert (len(edges), _digest(edges)) == (
            632,
            "82eb37dce809a2f8d5f55eb335a02d59f35dcb584893ed92654b733fbf7903a6",
        )


def _dfs_dpor(scenario_id):
    scenario = get_scenario(scenario_id)
    return KernelExplorer(
        scenario.factory,
        plan_successors(scenario.plan),
        strategy="dfs",
        max_depth=scenario.bounds.max_depth,
        max_configurations=scenario.bounds.max_configurations,
        reduction="dpor",
    )


class TestLazyCapture:
    """The search captures a node only when the scratch leaves it while
    a restore of it is still owed, so every snapshot it takes is
    restored; and a node it would need but never captured fails loudly
    instead of being expanded from the wrong configuration."""

    @pytest.mark.parametrize(
        "scenario_id, repairs",
        [
            ("agp-opacity", None),
            ("lock-mutex:impl=bakery,n=2,rounds=1", None),
            # Re-queued states of DPOR revisit repairs are captured by
            # the same rule.
            ("consensus-grid:impl=cas,n=3,proposals=alt", 2),
            (None, None),  # the valency search: BFS, abstract key, pruning
        ],
    )
    def test_every_snapshot_but_the_roots_is_restored(
        self, monkeypatch, scenario_id, repairs
    ):
        captured, restored = [], set()
        capture, restore_from = KernelConfig.capture, KernelConfig.restore_from

        def recording_capture(config):
            snapshot = capture(config)
            captured.append(snapshot)
            return snapshot

        def recording_restore(config, snapshot):
            restored.add(id(snapshot))
            return restore_from(config, snapshot)

        monkeypatch.setattr(KernelConfig, "capture", recording_capture)
        monkeypatch.setattr(KernelConfig, "restore_from", recording_restore)
        with recording() as rec:
            if scenario_id is None:
                find_nondeciding_schedule(
                    lambda: CommitAdoptConsensus(2), proposals=(0, 1), max_configs=3_000
                )
            else:
                list(_dfs_dpor(scenario_id).run())
        assert len(captured) > 1
        assert rec.counters["engine/snapshot_captures"] == len(captured)
        assert rec.counters.get("dpor/revisit_repairs") == repairs
        never = [i for i, snap in enumerate(captured[1:], 1) if id(snap) not in restored]
        assert never == []

    def test_missing_snapshot_fails_loudly(self, monkeypatch):
        # A capture that yields nothing leaves an owed node without a
        # snapshot once the scratch has moved on: the search must say
        # so when it needs that node, not restore from None.
        capture = KernelConfig.capture
        calls = []

        def root_only(config):
            calls.append(1)
            return capture(config) if len(calls) == 1 else None

        monkeypatch.setattr(KernelConfig, "capture", root_only)
        with pytest.raises(
            RuntimeError,
            match=r"frontier entry at schedule \(.*\) \(depth \d+\) has no "
            "snapshot and the scratch configuration does not hold it",
        ):
            list(_dfs_dpor("consensus-grid:impl=cas,n=3,proposals=alt").run())


class TestSearchMemory:
    """What one exhaustive search keeps per configuration: one visited
    table, labels of non-empty sleeps, and keys that share their pool
    pairs instead of copying them."""

    def test_bakery_proof_traced_peak(self):
        # About 6 MB traced over 17k configurations (Python 3.11).
        scenario = get_scenario("lock-mutex:impl=bakery,n=2,rounds=1")
        tracemalloc.start()
        try:
            verdict = verify(scenario, backend="exhaustive", reduction="dpor")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.outcome == "holds"
        assert peak <= 8_000_000, f"traced peak {peak / 1e6:.2f} MB"

    def test_untouched_object_keeps_its_pair(self):
        pool = ObjectPool([AtomicRegister("r0", 0), AtomicRegister("r1", 0)])
        before = pool.snapshot_state()
        pool.apply("r1", "write", (1,))
        after = pool.snapshot_state()
        assert after[0] is before[0]
        assert after[1] == ("r1", ("register", 1)) != before[1]
        # Back in an earlier state: the interned pair, not a new one.
        pool.apply("r1", "write", (0,))
        assert pool.snapshot_state()[1] is before[1]

    def test_equal_states_on_two_paths_share_pairs(self):
        config = KernelConfig.initial(TwoCells)
        config.apply_all([InvokeDecision(0, "tick"), InvokeDecision(1, "tick")])
        root = config.capture()
        keys = []
        for order in ((0, 1), (1, 0)):
            config.restore_from(root)
            config.apply_all([StepDecision(pid) for pid in order])
            keys.append(config.fingerprint())
        first, second = keys
        # The flat key: pool pairs in name order, process keys, events.
        assert len(first.value) == 2 + 2 + 1
        assert first.value[:2] == (("r0", ("register", 1)), ("r1", ("register", 1)))
        assert first.value[0] is second.value[0]
        assert first.value[1] is second.value[1]

    def test_capture_computes_no_fingerprints(self, monkeypatch):
        # A capture is the pool's state tuple as it stands; once a key
        # interned its pairs, that tuple is the state captures share.
        # The fuzzer, which captures but never keys, builds no key.
        config = KernelConfig.initial(TwoCells)
        assert config.capture().pool_state is config.runtime.pool.capture()
        config.fingerprint()
        assert (
            config.capture().pool_state
            is config.runtime.pool.snapshot_state()
        )
        calls = []
        snapshot_state = ObjectPool.snapshot_state

        def counting(pool):
            calls.append(1)
            return snapshot_state(pool)

        monkeypatch.setattr(ObjectPool, "snapshot_state", counting)
        report = fuzz_workload(get_scenario("agp-opacity"), seed=1, iterations=100)
        assert report.interleavings == 100 and calls == []


class TestSnapshotRestore:
    def test_roundtrip_mid_flight_operations(self):
        factory = lambda: I12TransactionalMemory(2, variables=(0,))
        config = KernelConfig.initial(factory)
        config.apply(InvokeDecision(0, "start"))
        config.apply(StepDecision(0))
        config.apply(InvokeDecision(1, "start"))
        config.apply(StepDecision(1))
        snapshot = config.capture()
        restored = KernelConfig.from_snapshot(factory, snapshot)
        assert restored.fingerprint() == config.fingerprint()
        # Divergence after restore would show up within a few steps.
        for pid in (0, 1, 0, 1):
            if config.is_pending(pid):
                config.apply(StepDecision(pid))
                restored.apply(StepDecision(pid))
                assert restored.fingerprint() == config.fingerprint()

    def test_one_snapshot_seeds_many_restores(self):
        factory = lambda: CasConsensus(2)
        config = KernelConfig.initial(factory)
        config.apply(InvokeDecision(0, "propose", (0,)))
        config.apply(InvokeDecision(1, "propose", (1,)))
        snapshot = config.capture()
        a = KernelConfig.from_snapshot(factory, snapshot)
        b = KernelConfig.from_snapshot(factory, snapshot)
        a.apply(StepDecision(0))
        b.apply(StepDecision(1))
        # The two restores diverged independently; the snapshot did not.
        assert a.fingerprint() != b.fingerprint()
        c = KernelConfig.from_snapshot(factory, snapshot)
        assert c.fingerprint() == config.fingerprint()

    def test_pool_capture_is_copy_on_write(self):
        pool = ObjectPool([AtomicRegister("a", 0), AtomicRegister("b", 0)])
        first = pool.capture()
        pool.apply("a", "write", (1,))
        second = pool.capture()
        assert second[1] is first[1]  # untouched state is shared
        assert second[0] is not first[0]
        assert first[0] == ("a", ("register", 0))  # the capture kept its state

    def test_pool_restore_rejects_mismatched_names(self):
        from repro.util.errors import SimulationError

        pool = ObjectPool([AtomicRegister("a", 0)])
        with pytest.raises(SimulationError):
            pool.restore((("other", ("register", 0)),))


class TestEngineParity:
    """Snapshot-mode and replay-mode exploration are indistinguishable."""

    WORKLOADS = [
        ("cas", lambda: CasConsensus(2), PROPOSE_PLAN),
        ("tas", lambda: TasConsensus(2), PROPOSE_PLAN),
        ("stubborn", lambda: StubbornConsensus(2), PROPOSE_PLAN),
        ("agp", lambda: AgpTransactionalMemory(2, variables=(0,)), TM_PLAN),
        ("i12", lambda: I12TransactionalMemory(2, variables=(0,)), TM_PLAN),
    ]

    @pytest.mark.parametrize("name,factory,plan", WORKLOADS,
                             ids=[w[0] for w in WORKLOADS])
    def test_identical_history_sets(self, name, factory, plan):
        snapshot_runs = list(explore_histories(factory, plan, mode="snapshot"))
        replay_runs = list(explore_histories(factory, plan, mode="replay"))
        assert {r.history for r in snapshot_runs} == {
            r.history for r in replay_runs
        }
        assert {r.schedule for r in snapshot_runs} == {
            r.schedule for r in replay_runs
        }
        assert sum(r.complete for r in snapshot_runs) == sum(
            r.complete for r in replay_runs
        )

    def test_parity_mode_runs_clean(self):
        runs = list(
            explore_histories(
                lambda: AgpTransactionalMemory(2, variables=(0,)),
                TM_PLAN,
                mode="parity",
            )
        )
        assert len(runs) == len({r.history for r in runs})

    def test_parity_error_is_assertion(self):
        assert issubclass(EngineParityError, AssertionError)

    def test_valency_verdicts_match(self):
        for mode in ("snapshot", "replay"):
            witness = find_nondeciding_schedule(
                lambda: CommitAdoptConsensus(2), proposals=(0, 1),
                max_configs=3_000, mode=mode,
            )
            assert witness is not None, f"{mode}: CIL witness not found"
            control = find_nondeciding_schedule(
                lambda: CasConsensus(2), proposals=(0, 1),
                max_configs=3_000, mode=mode,
            )
            assert control is None, f"{mode}: CAS consensus misclassified"

    def test_valency_parity_mode(self):
        witness = find_nondeciding_schedule(
            lambda: CommitAdoptConsensus(2), proposals=(0, 1),
            max_configs=3_000, mode="parity",
        )
        assert witness is not None


# -- delta restore ------------------------------------------------------------

#: Catalog scenarios spanning TM, consensus and mutex implementations,
#: with in-flight multi-primitive operations and per-process memory.
DELTA_SCENARIOS = [
    "tm-grid:impl=norec,n=2,plan=rw,vars=2",
    "agp-opacity",
    "consensus-grid:impl=commit-adopt,n=3,proposals=alt",
    "lock-mutex:impl=bakery,n=2,rounds=2",
]


def _random_walk(config, successors, rng, steps, crash_probability=0.0):
    """Apply up to ``steps`` seeded random decisions (some crashes)."""
    for _ in range(steps):
        choices = successors(config)
        if not choices:
            return
        if crash_probability and rng.maybe(crash_probability):
            pid = rng.choice(sorted({label[1] for label, _ in choices}))
            config.apply(CrashDecision(pid))
            continue
        config.apply(rng.choice(choices)[1])


def _assert_restore_exact(config, factory, snapshot, successors, rng):
    """Restoring ``snapshot`` into the used ``config`` must be
    indistinguishable from restoring it into a fresh configuration —
    now and for the next five steps."""
    fresh = KernelConfig.from_snapshot(factory, snapshot)
    config.restore_from(snapshot)
    for _ in range(6):
        assert config.fingerprint() == fresh.fingerprint()
        assert config.kernel_fingerprint() == fresh.kernel_fingerprint()
        assert config.capture() == fresh.capture()
        assert config.history().events == fresh.history().events
        choices = successors(fresh)
        assert [label for label, _ in successors(config)] == [
            label for label, _ in choices
        ]
        if not choices:
            return
        decision = rng.choice(choices)[1]
        config.apply(decision)
        fresh.apply(decision)


class TestDeltaRestore:
    """A restore skips every process and object whose snapshot part the
    scratch already holds untouched.  Whatever way the scratch reached
    its state, the result must equal a restore into a fresh config."""

    @pytest.mark.parametrize("scenario_id", DELTA_SCENARIOS)
    def test_after_apply(self, scenario_id):
        scenario = get_scenario(scenario_id)
        successors = plan_successors(scenario.plan)
        rng = DeterministicRng(f"delta-apply-{scenario_id}")
        config = KernelConfig.initial(scenario.factory)
        snapshots = [config.capture()]
        for _ in range(12):
            # Branch off a random earlier snapshot, walk, capture: the
            # snapshots share process and object parts in many patterns.
            config.restore_from(rng.choice(snapshots))
            _random_walk(config, successors, rng, rng.randint(1, 6), 0.05)
            snapshots.append(config.capture())
            _random_walk(config, successors, rng, rng.randint(0, 4), 0.05)
            target = rng.choice(snapshots)
            _assert_restore_exact(
                config, scenario.factory, target, successors, rng
            )

    @pytest.mark.parametrize("scenario_id", DELTA_SCENARIOS)
    def test_after_fuzz_fast_walk(self, scenario_id):
        scenario = get_scenario(scenario_id)
        successors = plan_successors(scenario.plan)
        rng = DeterministicRng(f"delta-fuzz-{scenario_id}")
        driver = FuzzDriver(
            scenario.factory, scenario.plan, seed=3, min_corpus_depth=1
        )
        driver.run(40)
        targets = [driver._root] + [entry.snapshot for entry in driver._corpus]
        assert len(targets) > 1
        for target in targets:
            # The fast walk steps the runtime directly, past
            # KernelConfig.apply; it must invalidate what it moved.
            prefix, tail = driver._fast_walk()
            assert len(prefix) + len(tail) == driver.max_depth or not successors(
                driver._config
            )
            _assert_restore_exact(
                driver._config, scenario.factory, target, successors, rng
            )

    @pytest.mark.parametrize("scenario_id", DELTA_SCENARIOS)
    def test_after_fuzz_explore_walk(self, scenario_id):
        scenario = get_scenario(scenario_id)
        successors = plan_successors(scenario.plan)
        rng = DeterministicRng(f"delta-explore-{scenario_id}")
        # Exploration walks only, capturing from depth 1, with the
        # swarm's crash points: the corpus holds many mid-walk captures.
        driver = FuzzDriver(
            scenario.factory,
            scenario.plan,
            seed=5,
            max_depth=16,
            min_corpus_depth=1,
            explore_every=1,
            crash_probability=0.5,
        )
        driver.run(40)
        entries = list(driver._corpus)
        assert len(entries) > 1
        assert any(
            label[0] == "crash" for entry in entries for label in entry.schedule
        )
        for entry in entries:
            # The walk steps the runtime directly, past KernelConfig.apply;
            # a capture taken mid-walk must still be the state its
            # schedule reaches.
            restored = KernelConfig.from_snapshot(scenario.factory, entry.snapshot)
            replayed = KernelConfig.replay(
                scenario.factory,
                schedule_to_decisions(scenario.plan, entry.schedule),
            )
            assert restored.fingerprint() == replayed.fingerprint()
            assert restored.history().events == replayed.history().events
            assert restored.runtime.stats == replayed.runtime.stats
        targets = [driver._root] + [entry.snapshot for entry in entries]
        for index, target in enumerate(targets):
            schedule = driver._explore_walk(driver._rng.fork(("delta", index)))
            # The walk tracks eligibility itself; it stops only at its
            # depth cap or where no process has a move left.
            assert len(schedule) == driver.max_depth or not successors(
                driver._config
            )
            _assert_restore_exact(
                driver._config, scenario.factory, target, successors, rng
            )

    @pytest.mark.parametrize(
        "scenario_id",
        ["cas-wait-freedom-schedules", "trivial-local-progress-schedules"],
    )
    def test_after_liveness_branch(self, scenario_id):
        scenario = get_scenario(scenario_id)
        successors = plan_successors(scenario.plan)
        rng = DeterministicRng(f"delta-liveness-{scenario_id}")
        search = LivenessSearch(
            scenario.factory, PlanPolicy(scenario.plan), max_depth=40
        )
        config = search._config
        targets = [search._root]
        for index, _run in enumerate(search.runs()):
            if index % 3 == 0:
                targets.append(config.capture())
            if index >= 30:
                break
        # The search's config now sits at the end of a run reached from
        # a restored branch point.
        for target in reversed(targets):
            _assert_restore_exact(
                config, scenario.factory, target, successors, rng
            )

    def test_pool_restore_skips_only_clean_identical_objects(self):
        pool = ObjectPool([AtomicRegister("a", 0), AtomicRegister("b", 0)])
        base = pool.capture()
        pool.apply("a", "write", (1,))
        pool.restore(base)
        assert pool.state_of("a") == pool.state_of("b")
        pool.apply("b", "write", (2,))
        moved = pool.capture()
        pool.restore(base)
        assert pool.snapshot_state() == ObjectPool(
            [AtomicRegister("a", 0), AtomicRegister("b", 0)]
        ).snapshot_state()
        pool.restore(moved)
        assert pool.apply("b", "read", ()) == 2


_KEY_SCRIPT = """
import pickle, sys
key = pickle.loads(sys.stdin.buffer.read())
sys.stdout.write(repr((hash(key) == hash(key.value), repr(key) == repr(key.value))))
"""


RACE_TYPE = ObjectType(
    name="race",
    operations=(OperationSignature("race", response_domain=None),),
    progress_mode=ProgressMode.EVENTUAL,
)


class Race(Implementation):
    """Each operation reads a shared cell, writes back what it read plus
    its pid plus one, and reads again.  Which point a step reaches
    depends on the other process, so one node gets several children.
    ``algorithm()`` itself counts the calls in memory, before any step.
    """

    name = "race"

    def __init__(self):
        super().__init__(RACE_TYPE, 2)

    def create_pool(self):
        return ObjectPool([AtomicRegister("cell", 0)])

    def algorithm(self, pid, operation, args, memory):
        memory["calls"] = memory.get("calls", 0) + 1
        return self._race(pid, memory)

    @staticmethod
    def _race(pid, memory):
        seen = yield Op("cell", "read")
        memory["seen"] = seen
        yield Op("cell", "write", (seen + pid + 1,))
        final = yield Op("cell", "read")
        return (seen, final)


class Flaky(Race):
    """Breaks the determinism contract: every generator but the first
    returns at once."""

    def __init__(self):
        super().__init__()
        self.built = 0

    def algorithm(self, pid, operation, args, memory):
        self.built += 1
        if self.built > 1:
            return self._gone()
        return super().algorithm(pid, operation, args, memory)

    @staticmethod
    def _gone():
        return "gone"
        yield  # pragma: no cover - makes this a generator


RACE_INVOKES = [InvokeDecision(0, "race"), InvokeDecision(1, "race")]


def _assert_matches_replay(config, schedule):
    """``config`` must be the configuration a fresh runtime reaches by
    replaying ``schedule`` from the start."""
    fresh = KernelConfig.replay(Race, schedule)
    assert config.fingerprint() == fresh.fingerprint()
    assert config.kernel_fingerprint() == fresh.kernel_fingerprint()
    assert config.history().events == fresh.history().events
    # Process parts compare without their fingerprint cache seeds; the
    # nodes compare by value although the two runtimes built them apart.
    mine, theirs = config.capture(), fresh.capture()
    assert [part._replace(fingerprint=None) for part in mine.processes] == [
        part._replace(fingerprint=None) for part in theirs.processes
    ]
    assert mine._replace(processes=()) == theirs._replace(processes=())


class TestOpNodes:
    """An in-flight operation is a node: a restore assigns it, a step
    out of a memoised node replays the memo, and only a step out of a
    new point resumes (or rebuilds) a generator.  Every path must give
    the configuration a fresh replay of the same schedule gives."""

    def test_sibling_took_the_generator_so_the_step_rebuilds(self):
        config = KernelConfig.initial(Race).apply_all(RACE_INVOKES)
        invoked = config.capture()
        root = config.runtime.processes[0].frame
        assert root.generator is not None
        config.apply(StepDecision(0))  # p0 reads 0; its generator moves on
        assert root.generator is None and root.child.generator is not None
        config.restore_from(invoked)
        schedule = RACE_INVOKES + [StepDecision(1), StepDecision(1)]
        config.apply_all(schedule[2:])  # p1 writes 2
        with recording() as rec:
            config.apply(StepDecision(0))  # memo: read, now a new result
            node = config.runtime.processes[0].frame
            assert node.last_result == 2 and node.generator is None
            assert root.children == {2: node} and root.child is not node
            config.apply(StepDecision(0))  # a miss: rebuild, then write
        assert rec.counters.get("kernel/frame_rebuilds") == 1
        schedule += [StepDecision(0), StepDecision(0)]
        _assert_matches_replay(config, schedule)
        config.apply_all([StepDecision(0), StepDecision(0), StepDecision(1)])
        schedule += [StepDecision(0), StepDecision(0), StepDecision(1)]
        _assert_matches_replay(config, schedule)
        assert config.runtime.events[-1] == Response(0, "race", (2, 3))

    def test_crash_closes_the_live_generator(self):
        config = KernelConfig.initial(Race).apply_all(RACE_INVOKES)
        config.apply(StepDecision(0))
        mid_flight = config.capture()
        node = config.runtime.processes[0].frame
        assert node.generator is not None
        config.apply(CrashDecision(0))
        assert node.generator is None and node.working_memory is None
        _assert_matches_replay(
            config, RACE_INVOKES + [StepDecision(0), CrashDecision(0)]
        )
        config.restore_from(mid_flight)
        tail = [StepDecision(0), StepDecision(1), StepDecision(0), StepDecision(0)]
        with recording() as rec:
            config.apply_all(tail)
        assert rec.counters.get("kernel/frame_rebuilds") == 1
        _assert_matches_replay(config, RACE_INVOKES + [StepDecision(0)] + tail)

    def test_memory_mutated_by_algorithm_call(self):
        config = KernelConfig.initial(Race)
        idle = config.runtime.processes[0].memory
        config.apply_all(RACE_INVOKES)
        invoked = config.capture()
        assert config.runtime.processes[0].memory == {"calls": 1}
        assert idle == {}  # the idle memory is never mutated
        schedule = RACE_INVOKES + [StepDecision(0)] * 4
        schedule += [InvokeDecision(0, "race")]
        config.apply_all(schedule[2:])
        assert config.runtime.processes[0].memory == {"calls": 2, "seen": 0}
        _assert_matches_replay(config, schedule)
        # A rebuild works on a copy of the invoke-time memory, so the
        # call counted in algorithm() is counted once.
        config.restore_from(invoked)
        schedule = RACE_INVOKES + [StepDecision(1)] * 2 + [StepDecision(0)] * 2
        with recording() as rec:
            config.apply_all(schedule[2:])
        assert rec.counters.get("kernel/frame_rebuilds") == 1
        assert config.runtime.processes[0].memory == {"calls": 1, "seen": 2}
        _assert_matches_replay(config, schedule)

    def test_algorithm_that_raises_raises_again_after_a_restore(self):
        # AGP's read outside a transaction raises in its body: the node
        # must keep no memo and no finished generator, so the same step
        # from the same root rebuilds and raises again.
        config = KernelConfig.initial(
            lambda: AgpTransactionalMemory(2, variables=(0,))
        )
        initial = config.capture()
        message = "transactional operation outside a transaction (no start)"
        for attempt in range(3):
            config.restore_from(initial)
            config.apply(InvokeDecision(0, "read", (0,)))
            root = config.runtime.processes[0].frame
            with recording() as rec:
                with pytest.raises(SimulationError, match=re.escape(message)):
                    config.apply(StepDecision(0))
            assert root.next_memory is None and root.generator is None
            assert rec.counters.get("kernel/frame_rebuilds", 0) == min(attempt, 1)

    def test_rebuild_that_stops_early_is_rejected(self):
        config = KernelConfig.initial(Flaky)
        config.apply_all([InvokeDecision(0, "race"), StepDecision(0)])
        mid_flight = config.capture()
        config.apply(CrashDecision(0))
        config.restore_from(mid_flight)
        with pytest.raises(
            SimulationError,
            match=re.escape(
                "fast-forward of race()_0 terminated early: the algorithm is "
                "not deterministic in its recorded results ('gone')"
            ),
        ):
            config.apply(StepDecision(0))


class TestHashedKey:
    def test_repr_is_the_value_repr(self):
        config = KernelConfig.initial(lambda: AgpTransactionalMemory(2, variables=(0,)))
        config.apply(InvokeDecision(0, "start"))
        key = config.fingerprint()
        assert isinstance(key, HashedKey)
        assert repr(key) == repr(key.value)

    def test_equality_is_value_equality(self):
        a = HashedKey(("x", (1, 2)))
        b = HashedKey(("x", (1, 2)))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != HashedKey(("x", (1, 3)))
        assert len({a, b}) == 1

    def test_pickle_round_trip_rehashes_in_another_process(self):
        # str hashes differ between processes; the key must travel as
        # its value and hash afresh on arrival.
        key = HashedKey((("pool", "x"), ("events", "start()_0")))
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT],
            input=pickle.dumps(key),
            capture_output=True,
            env=env,
            check=True,
        )
        assert result.stdout.decode() == "(True, True)"
        assert pickle.loads(pickle.dumps(key)) == key

    def test_key_equals_and_hashes_as_its_value(self):
        # Nested keys (process fingerprints, the event sequence) must
        # leave the enclosing value's equality and hash unchanged.
        value = ("x", (1, 2))
        key = HashedKey(value)
        assert key == value and value == key and hash(key) == hash(value)
        assert (key, 3) == (value, 3) and hash((key, 3)) == hash((value, 3))
        assert {value: 1}[key] == 1

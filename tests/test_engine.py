"""Tests for the unified exploration engine (:mod:`repro.engine`).

The engine's load-bearing promises, in test form:

* snapshot/restore is *exact* — snapshot-mode and replay-mode
  exploration produce identical history sets and identical fingerprint
  sets on the seed workloads, and the valency search returns identical
  verdicts in both modes;
* a delta restore (skipping what the scratch already holds) equals a
  restore into a fresh configuration, however the scratch got where it
  is — by ``apply``, by a fuzz fast walk, or by a liveness-search branch;
* the parallel frontier's shared dedup table admits every key exactly
  once across a process pool, and parallel exploration visits exactly
  the serial configuration set;
* the generic frontier search honours its strategy, budget, and depth
  contracts.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys

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
from repro.engine import (
    DedupTable,
    EngineParityError,
    GraphSearch,
    KernelConfig,
    SearchBudgetExceeded,
    fingerprint_digest,
    parallel_explore,
)
from repro.fuzz.driver import FuzzDriver
from repro.scenarios import get_scenario
from repro.sim import explore_histories
from repro.sim.drivers import CrashDecision, InvokeDecision, StepDecision
from repro.sim.explore import plan_successors
from repro.sim.liveness_search import LivenessSearch, PlanPolicy
from repro.util.freeze import HashedKey
from repro.util.rng import DeterministicRng

PROPOSE_PLAN = {0: [("propose", (0,))], 1: [("propose", (1,))]}
TM_PLAN = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}

#: A small explicit graph: edges as {node: [(label, child), ...]}.
DIAMOND = {
    "a": [("l", "b"), ("r", "c")],
    "b": [("d", "d")],
    "c": [("d", "d")],
    "d": [("back", "a")],
}


def diamond_expand(node):
    return DIAMOND.get(node, [])


class TestGraphSearch:
    def test_bfs_visits_shortest_first(self):
        search = GraphSearch(strategy="bfs")
        visits = list(search.run(["a"], diamond_expand))
        assert [v.node for v in visits] == ["a", "b", "c", "d"]
        assert search.depths["d"] == 2

    def test_dfs_expands_newest_first(self):
        # Visits are discovery-ordered in every strategy; the strategy
        # shows in *which parent* discovers shared children.  BFS
        # expands b before c (FIFO), DFS expands c first (LIFO).
        bfs = GraphSearch(strategy="bfs")
        list(bfs.run(["a"], diamond_expand))
        assert bfs.parents["d"][0] == "b"
        dfs = GraphSearch(strategy="dfs")
        list(dfs.run(["a"], diamond_expand))
        assert dfs.parents["d"][0] == "c"

    def test_iddfs_finds_all_nodes(self):
        search = GraphSearch(strategy="iddfs", max_depth=5)
        visited = {v.node for v in search.run(["a"], diamond_expand)}
        assert visited == {"a", "b", "c", "d"}

    def test_path_reconstruction(self):
        search = GraphSearch(strategy="bfs")
        list(search.run(["a"], diamond_expand))
        assert search.path_keys("d") in (("a", "b", "d"), ("a", "c", "d"))
        assert len(search.path_labels("d")) == 2

    def test_budget_raise(self):
        search = GraphSearch(strategy="bfs", max_nodes=2)
        with pytest.raises(SearchBudgetExceeded):
            list(search.run(["a"], diamond_expand))

    def test_budget_stop(self):
        search = GraphSearch(strategy="bfs", max_nodes=2, on_budget="stop")
        visits = list(search.run(["a"], diamond_expand))
        assert len(visits) == 2

    def test_max_depth_limits_expansion(self):
        search = GraphSearch(strategy="bfs", max_depth=1)
        visited = {v.node for v in search.run(["a"], diamond_expand)}
        assert visited == {"a", "b", "c"}  # d is at depth 2

    def test_record_edges_includes_cycle_closers(self):
        search = GraphSearch(strategy="bfs", record_edges=True)
        list(search.run(["a"], diamond_expand))
        assert search.edges["d"] == {"back": "a"}  # edge into a visited node


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
        assert second["b"] is first["b"]  # untouched state is shared
        assert second["a"] is not first["a"]

    def test_pool_restore_rejects_mismatched_names(self):
        from repro.util.errors import SimulationError

        pool = ObjectPool([AtomicRegister("a", 0)])
        with pytest.raises(SimulationError):
            pool.restore({"other": None})


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


def _hammer_dedup(args):
    table, keys = args
    return [table.add_if_new(key) for key in keys]


class TestParallelFrontier:
    def test_local_dedup_table(self):
        table = DedupTable("local")
        assert table.add_if_new("x") is True
        assert table.add_if_new("x") is False
        assert "x" in table and len(table) == 1

    def test_shared_dedup_table_admits_each_key_once(self):
        """Regression: every key wins exactly once across the pool,
        including keys contended by several workers and keys claimed
        twice by the same worker."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires fork start method")
        manager = multiprocessing.Manager()
        try:
            table = DedupTable("managed", manager=manager)
            keys = [f"k{i}" for i in range(40)]
            # Every worker tries every key, and repeats its list twice.
            batches = [(table, keys + keys) for _ in range(4)]
            with multiprocessing.get_context("fork").Pool(4) as pool:
                outcomes = pool.map(_hammer_dedup, batches)
            wins = sum(sum(batch) for batch in outcomes)
            assert wins == len(keys), f"{wins} wins for {len(keys)} keys"
            assert len(table) == len(keys)
        finally:
            manager.shutdown()

    def test_parallel_explore_matches_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires fork start method")
        factory = lambda: CasConsensus(2)
        successors = plan_successors(PROPOSE_PLAN)
        serial = {
            v.fingerprint
            for v in parallel_explore(factory, successors, processes=1)
        }
        parallel = {
            v.fingerprint
            for v in parallel_explore(factory, successors, processes=2)
        }
        assert parallel == serial

    def test_parallel_rejects_non_snapshot_mode(self):
        with pytest.raises(ValueError):
            list(
                explore_histories(
                    lambda: CasConsensus(2), PROPOSE_PLAN,
                    mode="parity", processes=2,
                )
            )

    def test_parallel_histories_match_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires fork start method")
        factory = lambda: AgpTransactionalMemory(2, variables=(0,))
        serial = {
            r.history for r in explore_histories(factory, TM_PLAN, mode="snapshot")
        }
        parallel = {
            r.history for r in explore_histories(factory, TM_PLAN, processes=2)
        }
        assert parallel == serial


class TestDefaultParallelism:
    def test_unset_means_serial(self, monkeypatch):
        from repro.engine.batch import default_parallelism

        monkeypatch.delenv("REPRO_ENGINE_PARALLEL", raising=False)
        assert default_parallelism() == 0

    def test_negative_clamps_to_zero(self, monkeypatch):
        from repro.engine.batch import default_parallelism

        monkeypatch.setenv("REPRO_ENGINE_PARALLEL", "-3")
        assert default_parallelism() == 0

    def test_non_integer_is_usage_error_naming_the_variable(self, monkeypatch):
        from repro.engine.batch import default_parallelism
        from repro.util.errors import UsageError

        monkeypatch.setenv("REPRO_ENGINE_PARALLEL", "banana")
        with pytest.raises(UsageError, match="REPRO_ENGINE_PARALLEL"):
            default_parallelism()

    def test_valid_value_passes_through(self, monkeypatch):
        from repro.engine.batch import default_parallelism

        monkeypatch.setenv("REPRO_ENGINE_PARALLEL", " 4 ")
        assert default_parallelism() == 4


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
            driver._fast_walk()
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
        assert pool.get("a").snapshot_state() == pool.get("b").snapshot_state()
        pool.apply("b", "write", (2,))
        moved = pool.capture()
        pool.restore(base)
        assert pool.snapshot_state() == ObjectPool(
            [AtomicRegister("a", 0), AtomicRegister("b", 0)]
        ).snapshot_state()
        pool.restore(moved)
        assert pool.get("b").apply("read", ()) == 2


_KEY_SCRIPT = """
import pickle, sys
key = pickle.loads(sys.stdin.buffer.read())
sys.stdout.write(repr((hash(key) == hash(key.value), repr(key) == repr(key.value))))
"""


class TestHashedKey:
    def test_repr_is_the_value_repr(self):
        config = KernelConfig.initial(lambda: AgpTransactionalMemory(2, variables=(0,)))
        config.apply(InvokeDecision(0, "start"))
        key = config.fingerprint()
        assert isinstance(key, HashedKey)
        assert repr(key) == repr(key.value)
        assert fingerprint_digest(key) == fingerprint_digest(key.value)

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

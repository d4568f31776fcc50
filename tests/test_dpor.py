"""Tests for dynamic partial-order reduction: kernel footprints, the
independence relation and the verdict invariance it claims for every
shipped safety property, sleep-set bookkeeping (including the stateful
dedup repair), none-vs-dpor verdict parity on fixed and random
scenarios, the liveness reduction, and the hash-seed determinism of the
whole pipeline (byte-identical verdict documents under different
``PYTHONHASHSEED`` values).
"""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from repro.algorithms.consensus import CasConsensus, StubbornConsensus
from repro.algorithms.locks.lock_type import GRANTED, RELEASED
from repro.algorithms.tm import AgpTransactionalMemory
from repro.core.events import Crash, Invocation, Response
from repro.core.history import History
from repro.engine.config import KernelConfig
from repro.engine.dpor import (
    DporParityError,
    SleepSets,
    check_reduction,
    conflicts,
    independent,
)
from repro.objects.consensus import AgreementValidity
from repro.objects.opacity import OpacityChecker
from repro.obs.recorder import recording
from repro.scenarios import get_scenario, iter_scenarios, verify
from repro.sim import check_all_histories, explore_histories
from repro.sim.drivers import CrashDecision, InvokeDecision, StepDecision
from repro.sim.kernel import Footprint
from repro.sim.liveness_search import LivenessSearch, PlanPolicy
from repro.util.rng import DeterministicRng

from test_collector import CHECKERS, _fuzz_histories
from test_differential_properties import random_crashing_tm_history

PROPOSE_PLAN = {0: [("propose", (0,))], 1: [("propose", (1,))]}
TM_PLAN = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}


# ---------------------------------------------------------------------------
# Kernel-reported footprints
# ---------------------------------------------------------------------------


class TestFootprints:
    def make_config(self):
        config = KernelConfig(CasConsensus(2))
        config.runtime.record_footprints = True
        return config

    def test_off_by_default(self):
        config = KernelConfig(CasConsensus(2))
        config.apply(InvokeDecision(0, "propose", (0,)))
        assert config.runtime.last_footprint is None

    def test_invoke_is_visible_with_empty_cells(self):
        config = self.make_config()
        config.apply(InvokeDecision(0, "propose", (0,)))
        footprint = config.runtime.last_footprint
        assert footprint == Footprint(0, "invoke")
        assert footprint.visible
        assert footprint.reads == () and footprint.writes == ()

    def test_step_touches_exactly_one_cell(self):
        config = self.make_config()
        config.apply(InvokeDecision(0, "propose", (0,)))
        config.apply(StepDecision(0))
        footprint = config.runtime.last_footprint
        assert footprint.kind == "step" and not footprint.visible
        cells = footprint.reads + footprint.writes
        assert len(cells) == 1
        assert cells[0][0] == "decision"  # the CAS object's pool name

    def test_completing_step_is_a_response_with_empty_cells(self):
        config = self.make_config()
        config.apply(InvokeDecision(0, "propose", (0,)))
        for _ in range(50):
            config.apply(StepDecision(0))
            if config.runtime.stats[0].responses:
                break
        else:
            pytest.fail("propose never completed")
        footprint = config.runtime.last_footprint
        assert footprint == Footprint(0, "response")
        assert footprint.visible

    def test_crash_footprint(self):
        config = self.make_config()
        config.apply(InvokeDecision(0, "propose", (0,)))
        config.apply(CrashDecision(0))
        assert config.runtime.last_footprint == Footprint(0, "crash")

    def test_restore_reseeds_footprint_state(self):
        # The restart-rule audit, extended to footprints: a restored
        # configuration must never leak the pre-restore last footprint
        # into the decisions applied after it.
        config = self.make_config()
        snapshot = config.capture()
        config.apply(InvokeDecision(0, "propose", (0,)))
        config.apply(StepDecision(0))
        first = config.runtime.last_footprint
        assert first is not None
        config.restore_from(snapshot)
        assert config.runtime.last_footprint is None
        config.apply(InvokeDecision(0, "propose", (0,)))
        config.apply(StepDecision(0))
        assert config.runtime.last_footprint == first


# ---------------------------------------------------------------------------
# The independence relation
# ---------------------------------------------------------------------------


def step(pid, reads=(), writes=()):
    return Footprint(pid, "step", reads=tuple(reads), writes=tuple(writes))


class TestIndependence:
    def test_same_process_always_dependent(self):
        assert conflicts(step(0), step(0))

    def test_crash_globally_dependent(self):
        assert conflicts(Footprint(0, "crash"), step(1))
        assert conflicts(step(0), Footprint(1, "crash"))

    def test_write_write_same_cell(self):
        assert conflicts(
            step(0, writes=[("r", 0)]), step(1, writes=[("r", 0)])
        )

    def test_disjoint_keys_independent(self):
        assert independent(
            step(0, writes=[("r", 0)]), step(1, writes=[("r", 1)])
        )

    def test_none_key_is_whole_object(self):
        assert conflicts(
            step(0, writes=[("r", None)]), step(1, reads=[("r", 3)])
        )

    def test_read_read_independent(self):
        assert independent(
            step(0, reads=[("r", 0)]), step(1, reads=[("r", 0)])
        )

    def test_different_objects_independent(self):
        assert independent(
            step(0, writes=[("a", None)]), step(1, writes=[("b", None)])
        )

    def test_same_kind_visible_commutes_under_safety_relation(self):
        # invocation/invocation and response/response swaps of different
        # processes preserve every response-before-invocation pair, the
        # only real-time order safety checkers consult.
        assert independent(Footprint(0, "invoke"), Footprint(1, "invoke"))
        assert independent(Footprint(0, "response"), Footprint(1, "response"))

    def test_mixed_kind_visible_always_dependent(self):
        assert conflicts(Footprint(0, "invoke"), Footprint(1, "response"))

    def test_liveness_relation_keeps_all_visible_pairs_dependent(self):
        assert conflicts(
            Footprint(0, "invoke"), Footprint(1, "invoke"),
            visible_commutes=False,
        )

    def test_check_reduction(self):
        assert check_reduction("dpor") == "dpor"
        with pytest.raises(ValueError, match="reduction"):
            check_reduction("nope")
        with pytest.raises(ValueError, match="reduction"):
            check_reduction("dpor-parity", ("none", "dpor"))


def _random_calls_history(rng, call, processes=3, length=14):
    """A random well-formed history over ``processes`` processes: an
    idle process invokes ``call(rng, pid)``'s ``(operation, args,
    response values)``, a pending one responds with one of the values,
    and a process crashes with small probability and then stops."""
    events, pending, crashed = [], {}, set()
    while len(events) < length:
        running = [pid for pid in range(processes) if pid not in crashed]
        if not running:
            break
        pid = rng.choice(running)
        if rng.maybe(0.03):
            events.append(Crash(pid))
            crashed.add(pid)
        elif pid in pending:
            operation, values = pending.pop(pid)
            events.append(Response(pid, operation, rng.choice(values)))
        else:
            operation, args, values = call(rng, pid)
            events.append(Invocation(pid, operation, args))
            pending[pid] = (operation, values)
    return History(events)


def _propose(rng, pid):
    return "propose", (rng.choice((0, 1)),), (0, 1)


def _lock_call(holding):
    def call(rng, pid):
        # Each process alternates acquire and release.
        if pid in holding:
            holding.discard(pid)
            return "release", (), (RELEASED,)
        holding.add(pid)
        return "acquire", (), (GRANTED,)

    return call


def _random_histories(scenario_id, seeds=range(300)):
    """Seeded random histories of the object type of ``scenario_id``."""
    histories = []
    for seed in seeds:
        rng = DeterministicRng(seed)
        if scenario_id.startswith("agp-"):
            histories.append(random_crashing_tm_history(rng))
        elif scenario_id.startswith("consensus-"):
            histories.append(_random_calls_history(rng, _propose))
        else:
            histories.append(_random_calls_history(rng, _lock_call(set())))
    return histories


def _adjacent_same_kind_swaps(history):
    """Each history with one adjacent pair of same-kind visible events
    (invocation/invocation or response/response) of different processes
    swapped."""
    events = history.events
    for i in range(len(events) - 1):
        a, b = events[i], events[i + 1]
        if a.process != b.process and type(a) is type(b) and not isinstance(a, Crash):
            yield History(events[:i] + (b, a) + events[i + 2:])


def _reason_class(verdict):
    """A verdict's reason with every number masked: the event positions,
    values and processes it names may move with a swap, its kind may
    not."""
    return re.sub(r"\d+", "#", verdict.reason)


class TestIndependenceKeepsVerdicts:
    """The safety relation's claim (:mod:`repro.engine.dpor`): swapping
    two adjacent same-kind visible events of different processes keeps
    the verdict and its reason class for every shipped safety property,
    on seeded random histories and on fuzz walks of the catalog."""

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_adjacent_same_kind_swap_keeps_verdict(self, name):
        factory, scenario_id = CHECKERS[name]
        checker = factory()
        histories = _random_histories(scenario_id) + _fuzz_histories(scenario_id)
        swaps, verdicts = 0, set()
        for history in histories:
            verdict = checker.check_history(history)
            verdicts.add(verdict.holds)
            for swapped in _adjacent_same_kind_swaps(history):
                after = checker.check_history(swapped)
                assert (after.holds, _reason_class(after)) == (
                    verdict.holds, _reason_class(verdict)
                ), f"{name}: {history} -> {swapped}"
                swaps += 1
        assert swaps >= 200
        # Violations occur among the random and fuzz histories, so both
        # verdicts are exercised.
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Sleep-set bookkeeping
# ---------------------------------------------------------------------------


class TestSleepSets:
    def test_child_sleep_keeps_independent_entries_only(self):
        sleeps = SleepSets()
        sleep = {
            "a": step(0, reads=[("r", 0)]),
            "b": step(1, writes=[("x", None)]),
        }
        executed = step(2, writes=[("x", None)])
        child = sleeps.child_sleep(sleep, [], executed)
        assert set(child) == {"a"}  # "b" conflicts on x

    def test_explored_siblings_seed_the_child_sleep(self):
        sleeps = SleepSets()
        sibling = ("s", step(0, reads=[("r", 0)]))
        executed = step(1, reads=[("r", 1)])
        child = sleeps.child_sleep({}, [sibling], executed)
        assert set(child) == {"s"}

    def test_revisit_without_store_is_plain_dedup(self):
        sleeps = SleepSets()
        assert sleeps.revisit_sleep("k", {}, ["a"]) is None

    def test_revisit_covered_when_stored_subset_of_current(self):
        sleeps = SleepSets()
        footprint = step(0)
        sleeps.note_expansion("k", {"a": footprint})
        assert sleeps.revisit_sleep("k", {"a": footprint, "b": step(1)},
                                    ["a", "b"]) is None

    def test_revisit_repair_lowers_store_to_intersection(self):
        sleeps = SleepSets()
        fa, fb = step(0), step(1)
        sleeps.note_expansion("k", {"a": fa, "b": fb})
        merged = sleeps.revisit_sleep("k", {"b": fb}, ["a", "b"])
        assert merged == {"b": fb}
        # the store was lowered: the same revisit is now covered
        assert sleeps.revisit_sleep("k", {"b": fb}, ["a", "b"]) is None

    def test_revisit_ignores_disabled_missing_labels(self):
        sleeps = SleepSets()
        sleeps.note_expansion("k", {"a": step(0)})
        assert sleeps.revisit_sleep("k", {}, ["b"]) is None

    def test_revisit_enabled_none_is_conservative(self):
        sleeps = SleepSets()
        sleeps.note_expansion("k", {"a": step(0)})
        assert sleeps.revisit_sleep("k", {}) == {}

    def test_empty_expansion_sleep_is_not_stored(self):
        # Nothing an expansion with an empty sleep skipped can be
        # missing later: the store keeps no entry for it, and a
        # non-empty sleep is kept as its labels alone.
        sleeps = SleepSets()
        sleeps.note_expansion("k", {})
        sleeps.note_expansion("j", {"a": step(0), "b": step(1)})
        assert sleeps._expanded == {"j": ("a", "b")}
        assert sleeps.revisit_sleep("k", {}, ["a"]) is None

    def test_repair_reads_the_arriving_footprints(self):
        # The intersection takes the footprints this path arrives with;
        # equal to the stored ones, though distinct objects here.
        sleeps = SleepSets()
        sleeps.note_expansion("k", {"a": step(0), "b": step(1, reads=[("r", 0)])})
        arriving = {"b": step(1, reads=[("r", 0)])}
        merged = sleeps.revisit_sleep("k", arriving, ["a", "b"])
        assert merged == arriving and merged["b"] is arriving["b"]
        assert sleeps._expanded == {"k": ("b",)}
        assert sleeps.revisit_sleep("k", dict(arriving), ["a", "b"]) is None

    def test_empty_repair_drops_the_entry(self):
        sleeps = SleepSets()
        sleeps.note_expansion("k", {"a": step(0)})
        assert sleeps.revisit_sleep("k", {}, ["a"]) == {}
        assert sleeps._expanded == {}
        assert sleeps.revisit_sleep("k", {}, ["a"]) is None


# ---------------------------------------------------------------------------
# None-vs-dpor parity (fixed scenarios)
# ---------------------------------------------------------------------------


class TestReductionParity:
    def test_cas_consensus_verdict_preserved_and_reduced(self):
        none = check_all_histories(
            lambda: CasConsensus(2), PROPOSE_PLAN, AgreementValidity()
        )
        dpor = check_all_histories(
            lambda: CasConsensus(2), PROPOSE_PLAN, AgreementValidity(),
            reduction="dpor",
        )
        assert none.holds and dpor.holds
        assert dpor.runs_checked < none.runs_checked

    def test_tm_opacity_verdict_preserved_and_reduced(self):
        none = check_all_histories(
            lambda: AgpTransactionalMemory(2, variables=(0,)), TM_PLAN,
            OpacityChecker(),
        )
        dpor = check_all_histories(
            lambda: AgpTransactionalMemory(2, variables=(0,)), TM_PLAN,
            OpacityChecker(), reduction="dpor",
        )
        assert none.holds and dpor.holds
        assert dpor.runs_checked < none.runs_checked

    def test_violation_still_found_and_is_real(self):
        safety = AgreementValidity()
        dpor = check_all_histories(
            lambda: StubbornConsensus(2), PROPOSE_PLAN, safety,
            reduction="dpor",
        )
        assert not dpor.holds
        # counterexample reachability: the reduced search's witness is a
        # genuine violating history, not an artifact of the pruning
        assert not safety.check_history(dpor.counterexample.history).holds

    def test_parity_mode_records_both_counts(self):
        report = check_all_histories(
            lambda: CasConsensus(2), PROPOSE_PLAN, AgreementValidity(),
            reduction="dpor-parity",
        )
        assert report.holds
        assert report.runs_checked < report.runs_checked_unreduced

    def test_parity_mode_on_violating_scenario(self):
        report = check_all_histories(
            lambda: StubbornConsensus(2), PROPOSE_PLAN, AgreementValidity(),
            reduction="dpor-parity",
        )
        assert not report.holds
        assert report.runs_checked_unreduced >= report.runs_checked

    def test_reduced_counterexample_replays_through_verify(self):
        verdict = verify(
            "stubborn-consensus", backend="exhaustive", reduction="dpor"
        )
        assert verdict.outcome == "violated" and verdict.expected
        assert verdict.stats["counterexample_replays"]
        assert verdict.stats["reduction"] == "dpor"

    def test_default_reduction_leaves_stats_unchanged(self):
        verdict = verify("cas-consensus", backend="exhaustive")
        assert "reduction" not in verdict.stats

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError, match="reduction"):
            list(
                explore_histories(
                    lambda: CasConsensus(2), PROPOSE_PLAN, reduction="nope"
                )
            )

    def test_obs_counters_emitted(self):
        with recording() as rec:
            check_all_histories(
                lambda: AgpTransactionalMemory(2, variables=(0,)), TM_PLAN,
                OpacityChecker(), reduction="dpor",
            )
        assert rec.counters.get("dpor/sleep_blocked", 0) > 0


# ---------------------------------------------------------------------------
# None-vs-dpor parity (random small scenarios)
# ---------------------------------------------------------------------------


def _random_tm_plan(rng):
    plan = {}
    for pid in range(2):
        ops = [("start", ())]
        for _ in range(rng.randint(1, 2)):
            var = rng.randint(0, 1)
            if rng.random() < 0.5:
                ops.append(("read", (var,)))
            else:
                ops.append(("write", (var, rng.randint(1, 3))))
        ops.append(("tryC", ()))
        plan[pid] = ops
    return plan


class TestRandomScenarioParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_tm_plans(self, seed):
        plan = _random_tm_plan(random.Random(seed))
        # dpor-parity raises DporParityError itself on any divergence
        report = check_all_histories(
            lambda: AgpTransactionalMemory(2, variables=(0, 1)), plan,
            OpacityChecker(), reduction="dpor-parity",
        )
        assert report.runs_checked <= report.runs_checked_unreduced

    @pytest.mark.parametrize("seed", range(3))
    def test_random_violating_proposals(self, seed):
        rng = random.Random(1000 + seed)
        plan = {
            pid: [("propose", (rng.randint(0, 3),))] for pid in range(2)
        }
        report = check_all_histories(
            lambda: StubbornConsensus(2), plan, AgreementValidity(),
            reduction="dpor-parity",
        )
        assert report.runs_checked <= report.runs_checked_unreduced


# ---------------------------------------------------------------------------
# The catalog parity slice (CI runs the full exhaustible slice)
# ---------------------------------------------------------------------------


class TestCatalogParitySlice:
    def slice_ids(self, count=8):
        ids = sorted(
            s.scenario_id for s in iter_scenarios("exhaustible")
        )
        # Deterministic spread across the families (sorted ids cluster
        # by family prefix, so stride instead of truncating).
        stride = max(1, len(ids) // count)
        return ids[::stride][:count]

    def test_slice_is_nonempty(self):
        assert len(self.slice_ids()) >= 4

    def test_parity_on_slice(self):
        for scenario_id in self.slice_ids():
            verdict = verify(
                scenario_id, backend="exhaustive", reduction="dpor-parity"
            )
            assert verdict.expected, (scenario_id, verdict.outcome)
            assert verdict.stats["reduction"] == "dpor-parity"
            assert (
                verdict.stats["runs_checked"]
                <= verdict.stats["runs_checked_unreduced"]
            ), scenario_id


# ---------------------------------------------------------------------------
# The liveness reduction
# ---------------------------------------------------------------------------


class TestLivenessReduction:
    def test_plan_policy_parity_and_reduction(self):
        scenario = get_scenario("cas-wait-freedom-schedules")
        kinds = {}
        configurations = {}
        for reduction in ("none", "dpor"):
            search = LivenessSearch(
                scenario.factory,
                PlanPolicy(scenario.plan),
                max_depth=scenario.bounds.horizon,
                reduction=reduction,
            )
            runs = list(search.runs())
            kinds[reduction] = sorted(run.kind for run in runs)
            configurations[reduction] = search.configurations
        # every surviving run classifies like an unreduced counterpart,
        # and the reduced search does no more work
        assert set(kinds["dpor"]) <= set(kinds["none"])
        assert configurations["dpor"] <= configurations["none"]

    def test_verify_liveness_parity_mode(self):
        verdict = verify(
            "cas-wait-freedom-schedules",
            backend="liveness",
            reduction="dpor-parity",
        )
        assert verdict.expected
        assert verdict.stats["reduction"] == "dpor-parity"
        assert verdict.stats["runs_unreduced"] is not None

    def test_trivial_schedules_parity(self):
        verdict = verify(
            "trivial-local-progress-schedules",
            backend="liveness",
            reduction="dpor-parity",
        )
        assert verdict.expected

    def test_adversary_policy_unaffected(self):
        none = verify("agp-local-progress", backend="liveness")
        dpor = verify(
            "agp-local-progress", backend="liveness", reduction="dpor"
        )
        assert none.outcome == dpor.outcome
        assert none.stats["runs"] == dpor.stats["runs"]

    def test_invalid_reduction_rejected(self):
        scenario = get_scenario("cas-wait-freedom-schedules")
        with pytest.raises(ValueError, match="reduction"):
            LivenessSearch(
                scenario.factory, PlanPolicy(scenario.plan), reduction="bogus"
            )


# ---------------------------------------------------------------------------
# Hash-seed determinism (satellite: exploration order must not depend on
# PYTHONHASHSEED)
# ---------------------------------------------------------------------------

_SEED_SCRIPT = """
import json, sys
from repro.scenarios import verify

VOLATILE = {"elapsed", "interleavings_per_second"}

def normalized(node):
    if isinstance(node, dict):
        return {k: (0 if k in VOLATILE else normalized(v))
                for k, v in node.items()}
    if isinstance(node, list):
        return [normalized(item) for item in node]
    return node

documents = []
for scenario, overrides in (
    ("cas-consensus", {"reduction": "dpor"}),
    ("agp-opacity", {"reduction": "dpor"}),
    ("stubborn-consensus", {}),          # shrunk counterexample trace
    ("stubborn-consensus", {"reduction": "dpor"}),
):
    verdict = verify(scenario, backend="exhaustive", **overrides)
    documents.append(normalized(verdict.to_document()))
sys.stdout.write(json.dumps(documents, sort_keys=True))
"""


class TestHashSeedDeterminism:
    def run_with_hash_seed(self, seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            capture_output=True,
            env=env,
            check=True,
        )
        return result.stdout

    def test_verdict_documents_byte_identical_across_hash_seeds(self):
        first = self.run_with_hash_seed(0)
        second = self.run_with_hash_seed(1)
        assert json.loads(first)  # sanity: the child produced documents
        assert first == second

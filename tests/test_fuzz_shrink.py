"""Shrinker regression tests: planted violations shrink deterministically
to minimal, replayable traces, and the checkpointed shrinker does
exactly the work of a from-scratch ddmin loop, also when candidates
make an algorithm raise."""

from types import SimpleNamespace

import pytest

from repro.base_objects.base import BaseObject, ObjectPool
from repro.base_objects.register import AtomicRegister
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.core.properties import SafetyProperty, Verdict
from repro.fuzz.driver import fuzz_workload
from repro.fuzz.shrink import WitnessCheckpoints, shrink_schedule
from repro.fuzz.trace import replay_schedule
from repro.mutate.mutants import MUTANTS
from repro.obs.recorder import recording
from repro.scenarios import get_scenario, iter_scenarios, verify
from repro.sim.kernel import Implementation, Op
from repro.util.errors import SimulationError, UsageError

VIOL = get_scenario("stubborn-consensus")
INVENT = get_scenario("inventing-consensus")


def find_violation(workload, seed):
    report = fuzz_workload(workload, seed=seed, iterations=500)
    assert report.violation is not None
    return report.violation


class TestShrink:
    def test_planted_violation_shrinks_deterministically(self):
        """Fixed seed => the fuzz-found schedule and its shrunk form are
        bit-identical across independent runs."""
        first = shrink_schedule(
            VIOL.factory, VIOL.plan, find_violation(VIOL, 2024).schedule,
            VIOL.safety_factory(),
        )
        second = shrink_schedule(
            VIOL.factory, VIOL.plan, find_violation(VIOL, 2024).schedule,
            VIOL.safety_factory(),
        )
        assert first.schedule == second.schedule
        assert first.replays == second.replays

    def test_shrunk_trace_replays_to_same_verdict(self):
        violation = find_violation(VIOL, 9)
        shrunk = shrink_schedule(
            VIOL.factory, VIOL.plan, violation.schedule, VIOL.safety_factory()
        )
        replay = replay_schedule(
            VIOL.factory, VIOL.plan, shrunk.schedule, VIOL.safety_factory()
        )
        assert replay.violates
        assert not VIOL.safety_factory().check_history(replay.history).holds

    def test_shrunk_schedule_is_locally_minimal(self):
        """Removing any single step either invalidates the schedule or
        loses the violation — the shrinker's post-condition."""
        violation = find_violation(VIOL, 9)
        shrunk = shrink_schedule(
            VIOL.factory, VIOL.plan, violation.schedule, VIOL.safety_factory()
        )
        safety = VIOL.safety_factory()
        for index in range(len(shrunk.schedule)):
            candidate = shrunk.schedule[:index] + shrunk.schedule[index + 1:]
            assert not replay_schedule(
                VIOL.factory, VIOL.plan, candidate, safety
            ).violates

    def test_agreement_violation_minimum(self):
        """Stubborn consensus needs both processes to decide their own
        proposal: the minimal witness is exactly invoke+2 steps per
        process (6 labels)."""
        violation = find_violation(VIOL, 123)
        shrunk = shrink_schedule(
            VIOL.factory, VIOL.plan, violation.schedule, VIOL.safety_factory()
        )
        assert len(shrunk.schedule) == 6

    def test_validity_violation_shrinks_to_single_decision(self):
        """Inventing consensus violates validity with one decision: the
        minimal witness is one process's invoke+steps."""
        violation = find_violation(INVENT, 123)
        shrunk = shrink_schedule(
            INVENT.factory, INVENT.plan, violation.schedule,
            INVENT.safety_factory(),
        )
        pids = {pid for _kind, pid in shrunk.schedule}
        assert len(pids) == 1
        assert shrunk.schedule[0][0] == "invoke"

    def test_padded_schedule_loses_its_padding(self):
        """A hand-planted violating schedule with irrelevant extra work
        (the second process's whole run) shrinks strictly."""
        padded = [
            ("invoke", 0), ("step", 0), ("step", 0),
            ("invoke", 1), ("step", 1), ("step", 1),
        ]
        result = replay_schedule(
            INVENT.factory, INVENT.plan, padded, INVENT.safety_factory()
        )
        assert result.violates  # genuinely violating before shrinking
        shrunk = shrink_schedule(
            INVENT.factory, INVENT.plan, padded, INVENT.safety_factory()
        )
        assert len(shrunk.schedule) == 3
        assert shrunk.removed == 3

    def test_non_violating_input_rejected(self):
        with pytest.raises(UsageError):
            shrink_schedule(
                VIOL.factory, VIOL.plan, [("invoke", 0), ("step", 0)],
                VIOL.safety_factory(),
            )


# ---------------------------------------------------------------------------
# Differential: checkpointed shrinking vs a from-scratch reference
# ---------------------------------------------------------------------------


def reference_shrink(factory, plan, schedule, safety, max_replays=10_000):
    """The ddmin loop with every candidate replayed from step 0 on a
    fresh plain runtime: ``(schedule, candidates_tried, replays)``."""
    stats = {"replays": 0, "candidates": 0}
    cache = {}

    def interesting(candidate):
        stats["candidates"] += 1
        if candidate in cache:
            return cache[candidate]
        if stats["replays"] >= max_replays:
            return False
        stats["replays"] += 1
        result = replay_schedule(factory, plan, candidate, safety)
        cache[candidate] = result.violates
        return result.violates

    current = tuple(schedule)
    if not interesting(current):
        raise UsageError("input does not violate")
    chunk = max(len(current) // 2, 1)
    while chunk >= 1:
        shrunk_this_round = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate != current and interesting(candidate):
                current = candidate
                shrunk_this_round = True
            else:
                start += chunk
        if not shrunk_this_round:
            if chunk == 1:
                break
            chunk = max(chunk // 2, 1)
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if interesting(candidate):
                current = candidate
                changed = True
                break
    return current, stats["candidates"], stats["replays"]


def assert_shrinks_like_reference(scenario, schedule, max_replays=10_000):
    expected = reference_shrink(
        scenario.factory, scenario.plan, schedule, scenario.safety_factory(),
        max_replays,
    )
    shrunk = shrink_schedule(
        scenario.factory, scenario.plan, schedule, scenario.safety_factory(),
        max_replays,
    )
    assert (shrunk.schedule, shrunk.candidates_tried, shrunk.replays) == expected
    return shrunk


FUZZ_KILLED = [m for m in MUTANTS if "fuzz" in m.expected_killers]


class TestCheckpointedShrinkMatchesReference:
    @pytest.mark.parametrize(
        "mutant", FUZZ_KILLED, ids=[m.mutant_id for m in FUZZ_KILLED]
    )
    def test_fuzz_killed_safety_mutants(self, mutant):
        scenario = mutant.scenario_factory()
        shrunk = 0
        for seed in range(20):
            verdict = verify(scenario, backend="fuzz", seed=seed, shrink=False)
            if verdict.counterexample is None:
                continue
            result = assert_shrinks_like_reference(
                scenario, verdict.counterexample.schedule
            )
            shrunk += 1
            # Candidates restore a checkpoint instead of replaying from
            # step 0: fewer decisions than one full replay per candidate.
            assert result.steps < result.replays * result.original_length
        assert shrunk >= 10

    def test_exhaustible_counterexamples(self):
        violating = [
            scenario
            for scenario in iter_scenarios("exhaustible")
            if scenario.expect_violation
        ]
        assert len(violating) >= 10
        for scenario in violating:
            verdict = verify(scenario, backend="exhaustive", shrink=False)
            assert verdict.counterexample is not None, scenario.scenario_id
            assert_shrinks_like_reference(
                scenario, verdict.counterexample.schedule
            )

    def test_shrink_steps_counter_is_one_aggregate(self):
        violation = find_violation(VIOL, 9)
        with recording() as recorder:
            shrunk = shrink_schedule(
                VIOL.factory, VIOL.plan, violation.schedule,
                VIOL.safety_factory(),
            )
        assert recorder.counters["shrink/steps"] == shrunk.steps > 0
        assert recorder.counters["kernel/decisions"] == shrunk.steps

    def test_replay_budget_cuts_both_at_the_same_candidate(self):
        violation = find_violation(VIOL, 9)
        for budget in (1, 2, 5, 9):
            assert_shrinks_like_reference(VIOL, violation.schedule, budget)


# ---------------------------------------------------------------------------
# Checkpoints: a mid-tail failure must not leave a process stale
# ---------------------------------------------------------------------------


class Fuse(BaseObject):
    """``blow``/``heal`` set and clear the fuse; ``touch`` on a blown
    fuse is an invalid primitive (raises)."""

    def methods(self):
        return ("blow", "heal", "touch")

    def initial_state(self):
        return False

    def step(self, state, method, args):
        if method == "touch":
            if state:
                raise SimulationError("touched a blown fuse")
            return None, state
        if method in ("blow", "heal"):
            return None, method == "blow"
        return self._reject(method)


FUSE_TYPE = ObjectType(
    name="fuse",
    operations=tuple(
        OperationSignature(name, response_domain=("ok",))
        for name in ("blow", "heal", "touch")
    ),
    progress_mode=ProgressMode.EVENTUAL,
)


class FuseImplementation(Implementation):
    """Each operation counts itself in memory, then applies its
    primitive: a ``touch`` of a blown fuse fails *after* the memory
    write and the generator's first resume."""

    name = "fuse"

    def __init__(self):
        super().__init__(FUSE_TYPE, 2)

    def create_pool(self):
        return ObjectPool([Fuse("fuse")])

    def algorithm(self, pid, operation, args, memory):
        return self._operation(operation, memory)

    @staticmethod
    def _operation(operation, memory):
        memory["operations"] = memory.get("operations", 0) + 1
        yield Op("fuse", operation)
        return "ok"


FUSE_PLAN = {0: [("touch", ())], 1: [("blow", ()), ("heal", ()), ("heal", ())]}
#: p0 invokes touch; p1 blows, heals, heals again; then p0 touches.
FUSE_WITNESS = (
    ("invoke", 0), ("invoke", 1), ("step", 1), ("step", 1),
    ("invoke", 1), ("step", 1), ("step", 1),
    ("invoke", 1), ("step", 1), ("step", 1),
    ("step", 0), ("step", 0),
)


class TestWitnessCheckpoints:
    def test_invalid_mid_tail_then_valid_from_a_sharing_checkpoint(self):
        """Dropping both heals makes p0's touch fail mid-step at
        checkpoint 4, after its memory write; dropping one heal replays
        validly from checkpoint 7, whose p0 part is the very snapshot
        the failed candidate left p0 moved away from."""
        checkpoints = WitnessCheckpoints(
            FuseImplementation, FUSE_PLAN, FUSE_WITNESS
        )
        invalid = FUSE_WITNESS[:4] + FUSE_WITNESS[10:]
        valid = FUSE_WITNESS[:7] + FUSE_WITNESS[10:]
        assert not replay_schedule(FuseImplementation, FUSE_PLAN, invalid).valid
        assert checkpoints.replay(invalid) is None
        expected = replay_schedule(FuseImplementation, FUSE_PLAN, valid)
        assert expected.valid
        history = checkpoints.replay(valid)
        assert history is not None
        assert history.events == expected.history.events

    def test_replays_agree_with_plain_runtime_across_accepts(self):
        """Every single-label deletion of every accepted witness replays
        to the plain runtime's verdict: valid with the same history, or
        invalid."""
        witness = FUSE_WITNESS
        checkpoints = WitnessCheckpoints(FuseImplementation, FUSE_PLAN, witness)
        for accepted in (witness[:7] + witness[10:], witness[:4] + witness[7:10]):
            for schedule in [accepted] + [
                checkpoints.witness[:i] + checkpoints.witness[i + 1:]
                for i in range(len(checkpoints.witness))
            ]:
                expected = replay_schedule(FuseImplementation, FUSE_PLAN, schedule)
                history = checkpoints.replay(schedule)
                if expected.valid:
                    assert history is not None, schedule
                    assert history.events == expected.history.events, schedule
                else:
                    assert history is None, schedule
            checkpoints.accept(accepted)


# ---------------------------------------------------------------------------
# Checkpoints: an algorithm that raises must raise again on every replay
# ---------------------------------------------------------------------------


class GateImplementation(Implementation):
    """``open``/``close`` write 1/0 to a shared cell; ``check`` reads it
    and raises on an open gate, in its body after the read."""

    name = "gate"

    def __init__(self):
        super().__init__(GATE_TYPE, 2)

    def create_pool(self):
        return ObjectPool([AtomicRegister("cell", 0)])

    def algorithm(self, pid, operation, args, memory):
        if operation == "check":
            return self._check()
        return self._set(1 if operation == "open" else 0)

    @staticmethod
    def _check():
        if (yield Op("cell", "read")):
            raise SimulationError("checked an open gate")
        return "ok"

    @staticmethod
    def _set(value):
        yield Op("cell", "write", (value,))
        return "ok"


GATE_TYPE = ObjectType(
    name="gate",
    operations=tuple(
        OperationSignature(name, response_domain=("ok",))
        for name in ("open", "close", "check")
    ),
    progress_mode=ProgressMode.EVENTUAL,
)


class NoCheckAnswers(SafetyProperty):
    """Violated by any answered ``check`` (p0's only operation)."""

    name = "no-check-answers"

    def check_history(self, history):
        if history.responses(0):
            return Verdict.failed("p0's check answered")
        return Verdict.passed()


GATE_PLAN = {0: [("check", ())], 1: [("open", ()), ("close", ()), ("close", ())]}
#: p1 opens the gate and closes it twice, then p0's check reads 0 and
#: answers.
GATE_WITNESS = (
    ("invoke", 1), ("step", 1), ("step", 1),
    ("invoke", 1), ("step", 1), ("step", 1),
    ("invoke", 1), ("step", 1), ("step", 1),
    ("invoke", 0), ("step", 0), ("step", 0),
)


class TestRaisingAlgorithm:
    """A check that reads 1 raises.  Every candidate that gets there
    must be rejected, however many candidates reached the same point of
    the check before: a replayed step must not answer for an algorithm
    that raised."""

    def test_every_candidate_that_opens_the_gate_is_invalid(self):
        checkpoints = WitnessCheckpoints(
            GateImplementation, GATE_PLAN, GATE_WITNESS
        )
        # Each drops both closes' writes, so each reaches p0's check at
        # the same point, reading 1.
        for candidate in (
            GATE_WITNESS[:3] + GATE_WITNESS[9:],
            GATE_WITNESS[:4] + GATE_WITNESS[9:],
            GATE_WITNESS[:2] + GATE_WITNESS[9:],
        ):
            assert not replay_schedule(
                GateImplementation, GATE_PLAN, candidate
            ).valid
            assert checkpoints.replay(candidate) is None, candidate

    def test_shrinks_like_the_reference(self):
        scenario = SimpleNamespace(
            factory=GateImplementation,
            plan=GATE_PLAN,
            safety_factory=NoCheckAnswers,
        )
        shrunk = assert_shrinks_like_reference(scenario, GATE_WITNESS)
        # Candidates that leave the gate open reach the same point of
        # the check several times, and every one is rejected: the check
        # must still read a 0 a close wrote.
        assert len(shrunk.schedule) == 8
        history = replay_schedule(
            GateImplementation, GATE_PLAN, shrunk.schedule
        ).history
        assert history.responses(0)[0].value == "ok"

"""Unit tests for repro.core.properties (verdicts, summaries, bases)."""

import pytest

from repro.core.history import History
from repro.core.properties import (
    Certainty,
    ConjunctionSafety,
    ExecutionSummary,
    SafetyProperty,
    Verdict,
)
from repro.objects.mutex import MutualExclusionChecker

from conftest import inv, res


class TestVerdict:
    def test_bool_coercion(self):
        assert Verdict.passed()
        assert not Verdict.failed("nope")

    def test_conjunction_keeps_first_failure(self):
        verdict = Verdict.passed() & Verdict.failed("bad", witness=42)
        assert not verdict.holds
        assert verdict.reason == "bad"
        assert verdict.witness == 42

    def test_conjunction_weakens_certainty(self):
        verdict = Verdict.passed(certainty=Certainty.HORIZON) & Verdict.passed()
        assert verdict.certainty is Certainty.HORIZON

    def test_conjunction_of_passes_passes(self):
        assert (Verdict.passed() & Verdict.passed()).holds


class TestExecutionSummary:
    def test_validation_rejects_stepping_crashed_process(self):
        with pytest.raises(ValueError):
            ExecutionSummary.of(2, correct=[0], steppers=[1])

    def test_validation_rejects_progress_by_crashed_process(self):
        with pytest.raises(ValueError):
            ExecutionSummary.of(2, correct=[0], progressors=[1])

    def test_finite_executions_have_no_steppers(self):
        with pytest.raises(ValueError):
            ExecutionSummary.of(2, correct=[0, 1], steppers=[0], finite=True)

    def test_of_builds_frozensets(self):
        summary = ExecutionSummary.of(3, correct=[0, 1], steppers=[1], progressors=[1])
        assert summary.correct == frozenset({0, 1})
        assert summary.steppers == frozenset({1})


class RejectValueSafety(SafetyProperty):
    """Test double: rejects any response with a forbidden value."""

    name = "no-13"

    def check_history(self, history: History) -> Verdict:
        for event in history.responses():
            if event.value == 13:
                return Verdict.failed("forbidden value 13", witness=history)
        return Verdict.passed()


class TestSafetyBase:
    def test_permits_wrapper(self):
        safety = RejectValueSafety()
        assert safety.permits(History([inv(0, "a"), res(0, "a", 1)]))
        assert not safety.permits(History([inv(0, "a"), res(0, "a", 13)]))

    def test_prefix_closure_audit_passes_for_monotone_property(self):
        safety = RejectValueSafety()
        history = History(
            [inv(0, "a"), res(0, "a", 13), inv(0, "b"), res(0, "b", 1)]
        )
        assert safety.check_prefix_closure(history).holds

    def test_prefix_closure_audit_catches_non_monotone_property(self):
        class Flaky(SafetyProperty):
            name = "flaky"

            def check_history(self, history: History) -> Verdict:
                # Fails at exactly length 1: not prefix-closed.
                if len(history) == 1:
                    return Verdict.failed("len 1")
                return Verdict.passed()

        history = History([inv(0, "a"), res(0, "a", 1)])
        assert not Flaky().check_prefix_closure(history).holds


class TestConjunction:
    def test_requires_at_least_one_part(self):
        with pytest.raises(ValueError):
            ConjunctionSafety(parts=())

    def test_fails_when_any_part_fails(self):
        conjunction = ConjunctionSafety([MutualExclusionChecker(), RejectValueSafety()])
        bad = History([inv(0, "a"), res(0, "a", 13)])
        verdict = conjunction.check_history(bad)
        assert not verdict.holds
        assert "no-13" in verdict.reason

    def test_passes_when_all_parts_pass(self):
        conjunction = ConjunctionSafety([MutualExclusionChecker(), RejectValueSafety()])
        assert conjunction.check_history(History([inv(0, "a")])).holds

    def test_name_composition(self):
        conjunction = ConjunctionSafety([MutualExclusionChecker(), RejectValueSafety()])
        assert MutualExclusionChecker.name in conjunction.name
        assert "no-13" in conjunction.name

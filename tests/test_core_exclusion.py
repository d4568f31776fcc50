"""Unit tests for exclusion reports (repro.core.exclusion)."""

from dataclasses import replace

from repro.core.exclusion import (
    GameOutcome,
    NonExclusionReport,
    build_exclusion_report,
    judge,
)
from repro.core.freedom import LKFreedom
from repro.core.history import History
from repro.core.liveness import Lmax
from repro.core.properties import Certainty, ExecutionSummary
from repro.objects.consensus import AgreementValidity

from conftest import inv, res


SAFE_STARVING = (
    History([inv(0, "propose", 0), inv(1, "propose", 1)]),
    ExecutionSummary.of(2, correct=[0, 1], steppers=[0, 1]),
)
SAFE_LIVE = (
    History(
        [
            inv(0, "propose", 0),
            res(0, "propose", 0),
            inv(1, "propose", 1),
            res(1, "propose", 0),
        ]
    ),
    ExecutionSummary.of(2, correct=[0, 1], progressors=[0, 1], finite=True),
)
UNSAFE = (
    History([inv(0, "propose", 0), res(0, "propose", 42)]),
    ExecutionSummary.of(2, correct=[0, 1], steppers=[0, 1]),
)



def outcome(implementation, play, liveness):
    history, summary = play
    return GameOutcome(
        implementation,
        "play",
        history,
        summary,
        AgreementValidity().check_history(history),
        liveness.evaluate(summary),
    )


def exclusion(liveness, plays):
    outcomes = {}
    for name, *play in plays:
        outcomes.setdefault(name, []).append(outcome(name, play, liveness))
    return build_exclusion_report("agreement-validity", liveness.name, outcomes)


def witness(liveness, implementation, runs):
    return NonExclusionReport(
        liveness.name,
        "agreement-validity",
        implementation,
        [outcome(implementation, run, liveness) for run in runs],
    )


class TestExclusionReport:
    def test_full_defeat(self):
        report = exclusion(
            Lmax(), [("implA", *SAFE_STARVING), ("implB", *SAFE_STARVING)]
        )
        assert report.holds
        assert report.undefeated() == []
        assert "EXCLUDES" in report.describe()

    def test_surviving_implementation_blocks_exclusion(self):
        report = exclusion(Lmax(), [("implA", *SAFE_STARVING), ("implB", *SAFE_LIVE)])
        assert not report.holds
        assert report.undefeated() == ["implB"]

    def test_unsafe_play_is_not_a_defeat(self):
        report = exclusion(Lmax(), [("implA", *UNSAFE)])
        assert not report.holds

    def test_empty_report_does_not_hold(self):
        report = exclusion(Lmax(), [])
        assert not report.holds

    def test_certainty_propagates(self):
        horizon_summary = replace(SAFE_STARVING[1], certainty=Certainty.HORIZON)
        report = exclusion(Lmax(), [("implA", SAFE_STARVING[0], horizon_summary)])
        assert report.certainty is Certainty.HORIZON


class TestNonExclusionReport:
    def test_witness_stands(self):
        report = witness(LKFreedom(1, 1), "implB", [SAFE_LIVE])
        assert report.holds
        assert report.violations() == []

    def test_witness_falls_on_liveness_violation(self):
        report = witness(Lmax(), "implA", [SAFE_STARVING])
        assert not report.holds
        assert len(report.violations()) == 1

    def test_witness_falls_on_safety_violation(self):
        report = witness(LKFreedom(1, 1), "implC", [UNSAFE])
        assert not report.holds

    def test_describe_mentions_implementation(self):
        report = witness(LKFreedom(1, 1), "implB", [SAFE_LIVE])
        assert "implB" in report.describe()


class TestJudge:
    def test_first_standing_witness_in_sorted_order(self):
        plays = {
            "implC": [outcome("implC", SAFE_LIVE, Lmax())],
            "implB": [outcome("implB", SAFE_LIVE, Lmax())],
            "implA": [outcome("implA", SAFE_STARVING, Lmax())],
        }
        report = judge("agreement-validity", "lmax", plays)
        assert isinstance(report, NonExclusionReport)
        assert report.implementation == "implB"

    def test_neither_certificate_returns_the_failing_exclusion(self):
        plays = {
            "implA": [outcome("implA", SAFE_STARVING, Lmax())],
            "implB": [outcome("implB", UNSAFE, Lmax())],
        }
        report = judge("agreement-validity", "lmax", plays)
        assert not report.holds
        assert report.undefeated() == ["implB"]

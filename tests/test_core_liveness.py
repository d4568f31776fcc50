"""Unit tests for repro.core.liveness and the summary space."""

import pytest

from repro.core.freedom import LKFreedom
from repro.core.liveness import (
    Lmax,
    LocalProgress,
    LockFreedom,
    SoloTermination,
    WaitFreedom,
    compare,
    enumerate_summaries,
)
from repro.core.properties import ExecutionSummary


def summary(n=3, correct=(), steppers=(), progressors=(), finite=False):
    return ExecutionSummary.of(
        n, correct=correct, steppers=steppers, progressors=progressors, finite=finite
    )


class TestLmax:
    def test_all_correct_progress_satisfies(self):
        assert Lmax().evaluate(
            summary(correct=[0, 1], steppers=[0, 1], progressors=[0, 1])
        ).holds

    def test_one_starving_process_violates(self):
        verdict = Lmax().evaluate(
            summary(correct=[0, 1], steppers=[0, 1], progressors=[1])
        )
        assert not verdict.holds
        assert "0" in verdict.reason

    def test_crashed_processes_are_exempt(self):
        assert Lmax().evaluate(
            summary(correct=[1], steppers=[1], progressors=[1])
        ).holds

    def test_aliases_share_semantics(self):
        bad = summary(correct=[0], steppers=[0])
        assert not WaitFreedom().evaluate(bad).holds
        assert not LocalProgress().evaluate(bad).holds


class TestLockFreedom:
    def test_one_progressor_suffices(self):
        assert LockFreedom().evaluate(
            summary(correct=[0, 1, 2], steppers=[0, 1, 2], progressors=[2])
        ).holds

    def test_no_progress_violates(self):
        assert not LockFreedom().evaluate(
            summary(correct=[0, 1], steppers=[0, 1])
        ).holds

    def test_vacuous_without_correct_processes(self):
        assert LockFreedom().evaluate(summary(correct=[])).holds


class TestSoloTermination:
    def test_solo_stepper_must_progress(self):
        assert not SoloTermination().evaluate(
            summary(correct=[0, 1], steppers=[0])
        ).holds

    def test_vacuous_under_contention(self):
        assert SoloTermination().evaluate(
            summary(correct=[0, 1], steppers=[0, 1])
        ).holds

    def test_progressing_solo_stepper_passes(self):
        assert SoloTermination().evaluate(
            summary(correct=[0, 1], steppers=[0], progressors=[0])
        ).holds


class TestSummarySpace:
    def test_space_size_for_two_processes(self):
        # Per process-subset choices sum to (sum over correct sets of
        # sum over stepper subsets of 2^{|pool|}); exact value checked
        # once so regressions are visible.
        assert len(enumerate_summaries(2)) == 25

    def test_constraint_progress_requires_steps(self):
        for s in enumerate_summaries(2, progress_requires_steps=True):
            assert s.progressors <= s.steppers

    def test_default_allows_eventual_progress_without_steps(self):
        space = enumerate_summaries(2)
        assert any(s.progressors - s.steppers for s in space)

    def test_finite_summaries_included_and_marked(self):
        space = enumerate_summaries(2)
        finite = [s for s in space if s.finite]
        assert finite
        assert all(not s.steppers for s in finite)

    def test_exclude_finite(self):
        space = enumerate_summaries(2, include_finite=False)
        assert all(s.steppers for s in space)

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            enumerate_summaries(0)


class TestCompare:
    def test_lmax_strongest(self):
        space = enumerate_summaries(3)
        assert compare(Lmax(), LockFreedom(), space) == "stronger"
        assert compare(LockFreedom(), Lmax(), space) == "weaker"

    def test_every_property_contains_lmax_executions(self):
        # Definition 3.2: every liveness property is a superset of Lmax.
        space = enumerate_summaries(3)
        lmax_set = Lmax().admits(space)
        for prop in (LockFreedom(), SoloTermination(), LKFreedom(1, 1)):
            assert lmax_set <= prop.admits(space)

    def test_equal_relation(self):
        space = enumerate_summaries(2)
        assert compare(WaitFreedom(), Lmax(), space) == "equal"

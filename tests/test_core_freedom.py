"""Unit tests for the (l,k)-freedom family (Section 5.1)."""

import pytest

from repro.core.freedom import (
    KObstructionFreedom,
    LKFreedom,
    LLockFreedom,
)
from repro.core.liveness import Lmax, LockFreedom, enumerate_summaries
from repro.core.properties import ExecutionSummary


def summary(n=3, correct=(), steppers=(), progressors=()):
    return ExecutionSummary.of(
        n, correct=correct, steppers=steppers, progressors=progressors
    )


class TestLLockFreedom:
    def test_l1_is_lock_freedom(self):
        space = enumerate_summaries(3)
        assert LLockFreedom(1).admits(space) == LockFreedom().admits(space)

    def test_ln_is_wait_freedom(self):
        space = enumerate_summaries(3)
        assert LLockFreedom(3).admits(space) == Lmax().admits(space)

    def test_enough_progressors(self):
        assert LLockFreedom(2).evaluate(
            summary(correct=[0, 1, 2], steppers=[0, 1, 2], progressors=[0, 2])
        ).holds

    def test_too_few_progressors(self):
        assert not LLockFreedom(2).evaluate(
            summary(correct=[0, 1, 2], steppers=[0, 1, 2], progressors=[0])
        ).holds

    def test_fewer_correct_than_l_demands_all(self):
        assert LLockFreedom(2).evaluate(
            summary(correct=[1], steppers=[1], progressors=[1])
        ).holds
        assert not LLockFreedom(2).evaluate(
            summary(correct=[1], steppers=[1], progressors=[])
        ).holds

    def test_rejects_nonpositive_l(self):
        with pytest.raises(ValueError):
            LLockFreedom(0)


class TestKObstructionFreedom:
    def test_vacuous_beyond_k_steppers(self):
        assert KObstructionFreedom(1).evaluate(
            summary(correct=[0, 1], steppers=[0, 1])
        ).holds

    def test_correct_consequent_demands_all_correct(self):
        prop = KObstructionFreedom(2, consequent="correct")
        assert not prop.evaluate(
            summary(correct=[0, 1, 2], steppers=[0], progressors=[0])
        ).holds

    def test_steppers_consequent_demands_only_steppers(self):
        prop = KObstructionFreedom(2, consequent="steppers")
        assert prop.evaluate(
            summary(correct=[0, 1, 2], steppers=[0], progressors=[0])
        ).holds

    def test_invalid_consequent(self):
        with pytest.raises(ValueError):
            KObstructionFreedom(1, consequent="nonsense")


class TestLKFreedom:
    def test_requires_l_at_most_k(self):
        with pytest.raises(ValueError):
            LKFreedom(3, 2)

    def test_conditional_guard(self):
        prop = LKFreedom(1, 2)
        # Three eventual steppers: more than k=2, vacuous.
        assert prop.evaluate(
            summary(correct=[0, 1, 2], steppers=[0, 1, 2])
        ).holds
        # Two steppers, nobody progresses: violated.
        assert not prop.evaluate(summary(correct=[0, 1], steppers=[0, 1])).holds

    def test_union_equals_conditional_with_correct_consequent(self):
        """The paper's claim (l,k)-freedom = LF_l ∪ OF_k, under the
        'correct' reading of the obstruction consequent
        (:mod:`repro.core.freedom`)."""
        space = enumerate_summaries(4)
        for l, k in ((1, 1), (1, 3), (2, 2), (2, 4), (4, 4)):
            conditional = LKFreedom(l, k, semantics="conditional")
            union = LKFreedom(l, k, semantics="union", of_consequent="correct")
            assert conditional.admits(space) == union.admits(space), (l, k)

    def test_union_differs_under_steppers_consequent(self):
        """The witness for the literal reading: one progressing stepper among
        three correct processes satisfies OF_2[steppers] (hence the
        union) but not Definition 5.1's conditional form."""
        witness = summary(correct=[0, 1, 2], steppers=[0], progressors=[0])
        union = LKFreedom(2, 2, semantics="union", of_consequent="steppers")
        conditional = LKFreedom(2, 2, semantics="conditional")
        assert union.evaluate(witness).holds
        assert not conditional.evaluate(witness).holds

    def test_paper_incomparability_example(self):
        """Section 5.1's example: (1,3) and (2,2) are incomparable,
        with exactly the witnesses the paper describes."""
        two_steppers_one_progress = summary(
            correct=[0, 1], steppers=[0, 1], progressors=[0]
        )
        assert LKFreedom(1, 3).evaluate(two_steppers_one_progress).holds
        assert not LKFreedom(2, 2).evaluate(two_steppers_one_progress).holds
        three_steppers_none_progress = summary(
            correct=[0, 1, 2], steppers=[0, 1, 2]
        )
        assert LKFreedom(2, 2).evaluate(three_steppers_none_progress).holds
        assert not LKFreedom(1, 3).evaluate(three_steppers_none_progress).holds

    def test_grid_size(self):
        assert len(LKFreedom.grid(4)) == 10  # triangular numbers

    def test_all_lk_properties_are_liveness(self):
        """Every (l,k)-freedom is a weakening of Lmax (Definition 3.2)."""
        space = enumerate_summaries(3)
        lmax_set = Lmax().admits(space)
        for prop in LKFreedom.grid(3):
            assert lmax_set <= prop.admits(space), prop.name

"""Tests for k-set agreement (the paper's 'other contexts' example)."""

import pytest

from hypothesis import given, settings

from repro.adversaries.consensus_flp import LockstepConsensusAdversary
from repro.algorithms.consensus import CommitAdoptConsensus
from repro.core.freedom import LKFreedom
from repro.core.history import History
from repro.core.liveness import WaitFreedom
from repro.core.object_type import ProgressMode
from repro.objects.consensus import AgreementValidity
from repro.objects.set_agreement import (
    KSetAgreement,
    OwnValueSetAgreement,
    set_agreement_object_type,
)
from repro.sim import ComposedDriver, RoundRobinScheduler, play, propose_workload

from conftest import inv, res
from test_property_safety import consensus_events


class TestChecker:
    def test_k_distinct_decisions_allowed(self):
        history = History(
            [
                inv(0, "propose", 1), res(0, "propose", 1),
                inv(1, "propose", 2), res(1, "propose", 2),
            ]
        )
        assert KSetAgreement(2).check_history(history).holds
        assert not KSetAgreement(1).check_history(history).holds

    def test_validity_enforced(self):
        history = History([inv(0, "propose", 1), res(0, "propose", 9)])
        assert not KSetAgreement(3).check_history(history).holds

    def test_repeated_value_counts_once(self):
        history = History(
            [
                inv(0, "propose", 1), res(0, "propose", 1),
                inv(1, "propose", 1), res(1, "propose", 1),
            ]
        )
        assert KSetAgreement(1).check_history(history).holds

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KSetAgreement(0)

    @given(consensus_events())
    @settings(max_examples=150)
    def test_one_set_agreement_equals_consensus_safety(self, events):
        history = History(events)
        assert (
            KSetAgreement(1).check_history(history).holds
            == AgreementValidity().check_history(history).holds
        )

    @given(consensus_events())
    @settings(max_examples=100)
    def test_monotone_in_k(self, events):
        history = History(events)
        for k in range(1, 3):
            if KSetAgreement(k).check_history(history).holds:
                assert KSetAgreement(k + 1).check_history(history).holds


class TestOwnValueImplementation:
    def test_wait_free_and_n_set_safe(self):
        n = 3
        impl = OwnValueSetAgreement(n)
        result = play(
            impl,
            ComposedDriver(RoundRobinScheduler(), propose_workload([0, 1, 2])),
            max_steps=1_000,
        )
        assert result.fairness_complete
        assert KSetAgreement(n).check_history(result.history).holds
        summary = result.summary(ProgressMode.EVENTUAL)
        assert WaitFreedom().evaluate(summary).holds

    def test_violates_smaller_k(self):
        impl = OwnValueSetAgreement(3)
        result = play(
            impl,
            ComposedDriver(RoundRobinScheduler(), propose_workload([0, 1, 2])),
            max_steps=1_000,
        )
        assert not KSetAgreement(2).check_history(result.history).holds


class TestExclusionPatternTransfers:
    def test_lockstep_adversary_defeats_1set_from_registers(self):
        """The consensus corollary replayed in k-set terms: for k=1 the
        lockstep play is safe and starves both processes."""
        adversary = LockstepConsensusAdversary()
        result = play(CommitAdoptConsensus(2), adversary, max_steps=20_000)
        assert KSetAgreement(1).check_history(result.history).holds
        summary = result.summary(ProgressMode.EVENTUAL)
        assert not LKFreedom(1, 2).evaluate(summary).holds

    def test_2set_agreement_not_excluded_for_two_processes(self):
        """With k >= n the own-value implementation ensures safety and
        Lmax together: nothing is excluded (the degenerate end the
        paper's generalisation starts from)."""
        impl = OwnValueSetAgreement(2)
        result = play(
            impl,
            ComposedDriver(RoundRobinScheduler(), propose_workload([0, 1])),
            max_steps=1_000,
        )
        assert KSetAgreement(2).check_history(result.history).holds
        summary = result.summary(ProgressMode.EVENTUAL)
        assert WaitFreedom().evaluate(summary).holds

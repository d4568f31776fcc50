"""Tests for the paper's adversary strategies."""

import pytest

from repro.adversaries.consensus_flp import (
    LockstepConsensusAdversary,
    f1_adversary_set,
    f2_adversary_set,
    histories_match_f1,
)
from repro.adversaries.counterexample import CounterexampleAdversary
from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.algorithms.consensus import CasConsensus, CommitAdoptConsensus
from repro.algorithms.tm import (
    AgpTransactionalMemory,
    I12TransactionalMemory,
    IntentTransactionalMemory,
    TrivialTransactionalMemory,
)
from repro.core.freedom import LKFreedom
from repro.core.liveness import LocalProgress
from repro.core.object_type import ProgressMode
from repro.core.properties import Certainty
from repro.objects.consensus import AgreementValidity
from repro.objects.opacity import OpacityChecker
from repro.sim import play


class TestF1F2Sets:
    def test_f1_has_the_papers_six_histories(self):
        assert len(f1_adversary_set()) == 6

    def test_f1_f2_disjoint(self):
        assert f1_adversary_set().is_disjoint_from(f2_adversary_set())

    def test_all_members_safe_and_incomplete(self):
        safety = AgreementValidity()
        for history in f1_adversary_set().histories:
            assert safety.permits(history)
            proposers = {e.process for e in history.invocations()}
            deciders = {e.process for e in history.responses()}
            assert proposers - deciders  # someone has not decided

    def test_predicate_recognises_shapes(self):
        for history in f1_adversary_set().histories:
            assert histories_match_f1(history, first=0, second=1)
        for history in f2_adversary_set().histories:
            assert not histories_match_f1(history, first=0, second=1)


class TestLockstepConsensusAdversary:
    def test_defeats_commit_adopt_with_proof(self):
        adversary = LockstepConsensusAdversary()
        result = play(CommitAdoptConsensus(2), adversary, max_steps=20_000)
        assert result.stop_reason == "lasso"
        assert not adversary.escaped
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.certainty is Certainty.PROVED
        assert not LKFreedom(1, 2).evaluate(summary).holds
        # The play's history extends the paper's F1 shape.
        assert histories_match_f1(result.history)

    def test_play_stays_safe(self):
        adversary = LockstepConsensusAdversary()
        result = play(CommitAdoptConsensus(2), adversary, max_steps=20_000)
        assert AgreementValidity().check_history(result.history).holds

    def test_cas_consensus_escapes(self):
        adversary = LockstepConsensusAdversary()
        result = play(CasConsensus(2), adversary, max_steps=20_000)
        assert adversary.escaped
        assert result.stats[0].responses == 1
        assert result.stats[1].responses == 1

    def test_swapped_roles_history_starts_with_other_process(self):
        adversary = LockstepConsensusAdversary(first=1, second=0)
        result = play(CommitAdoptConsensus(2), adversary, max_steps=20_000)
        assert result.history[0].process == 1


class TestTMLocalProgressAdversary:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AgpTransactionalMemory(2, variables=(0,)),
            lambda: I12TransactionalMemory(2, variables=(0,)),
            lambda: IntentTransactionalMemory(2, variables=(0,)),
        ],
    )
    def test_starves_victim_of_committing_tms(self, factory):
        adversary = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
        result = play(factory(), adversary, max_steps=2_000)
        assert not adversary.escaped
        assert result.stats[0].good_responses == 0
        assert result.stats[1].good_responses > 0
        summary = result.summary(ProgressMode.REPEATED)
        assert not LocalProgress().evaluate(summary).holds
        assert not LKFreedom(2, 2).evaluate(summary).holds
        # But the single-progress properties survive — the adversary
        # only defeats biprogressing liveness.
        assert LKFreedom(1, 2).evaluate(summary).holds

    def test_plays_remain_opaque(self):
        adversary = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
        result = play(
            AgpTransactionalMemory(2, variables=(0,)), adversary, max_steps=240
        )
        assert OpacityChecker().check_history(result.history).holds

    def test_trivial_tm_defeated_with_proof(self):
        adversary = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
        result = play(TrivialTransactionalMemory(2), adversary, max_steps=2_000)
        assert result.stop_reason == "lasso"
        summary = result.summary(ProgressMode.REPEATED)
        assert summary.certainty is Certainty.PROVED
        assert not LocalProgress().evaluate(summary).holds

    def test_swapped_roles_first_event(self):
        normal = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
        swapped = TMLocalProgressAdversary(victim=1, helper=0, variable=0)
        r1 = play(AgpTransactionalMemory(2, variables=(0,)), normal, max_steps=240)
        r2 = play(AgpTransactionalMemory(2, variables=(0,)), swapped, max_steps=240)
        assert r1.history[0].process == 0
        assert r2.history[0].process == 1


class TestCounterexampleAdversary:
    def test_needs_three_processes(self):
        with pytest.raises(ValueError):
            CounterexampleAdversary((0, 1))

    def test_i12_defeated_with_proof(self):
        adversary = CounterexampleAdversary((0, 1, 2))
        result = play(
            I12TransactionalMemory(3, variables=(0,)), adversary, max_steps=10_000
        )
        assert result.stop_reason == "lasso"
        assert not adversary.escaped
        summary = result.summary(ProgressMode.REPEATED)
        assert summary.certainty is Certainty.PROVED
        assert not LKFreedom(1, 3).evaluate(summary).holds

    def test_trivial_tm_defeated(self):
        adversary = CounterexampleAdversary((0, 1, 2))
        result = play(TrivialTransactionalMemory(3), adversary, max_steps=10_000)
        assert result.stop_reason == "lasso"
        assert all(result.stats[p].good_responses == 0 for p in range(3))

    def test_agp_escapes_by_committing(self):
        """AGP does not ensure S, and indeed a transaction commits —
        the adversary records the escape and the history violates S."""
        from repro.objects.counterexample_s import counterexample_safety

        adversary = CounterexampleAdversary((0, 1, 2))
        result = play(
            AgpTransactionalMemory(3, variables=(0,)), adversary, max_steps=10_000
        )
        assert adversary.escaped
        assert not counterexample_safety().check_history(result.history).holds

    def test_transactions_in_play_are_pairwise_concurrent(self):
        from repro.objects.tm import parse_transactions

        adversary = CounterexampleAdversary((0, 1, 2))
        result = play(
            I12TransactionalMemory(3, variables=(0,)), adversary, max_steps=10_000
        )
        transactions = parse_transactions(result.history)
        by_number = {}
        for transaction in transactions:
            by_number.setdefault(transaction.number, []).append(transaction)
        for cohort in by_number.values():
            if len(cohort) < 3:
                continue
            for i, a in enumerate(cohort):
                for b in cohort[i + 1:]:
                    assert a.concurrent_with(b)

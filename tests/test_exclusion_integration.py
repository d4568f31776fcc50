"""Integration: exclusion reports built from real adversary plays.

These tests tie the whole pipeline together — adversary drivers,
simulated runs, safety checkers, liveness evaluation, and the
Definition 4.1/4.3 report machinery — on the paper's actual claims.
"""

from repro.adversaries.consensus_flp import LockstepConsensusAdversary
from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.analysis import consensus_registry, entries_ensuring, tm_registry, OPACITY
from repro.analysis.classification import check_plays, play_outcomes
from repro.core.exclusion import NonExclusionReport, build_exclusion_report
from repro.core.freedom import LKFreedom
from repro.core.liveness import LocalProgress, WaitFreedom
from repro.core.object_type import ProgressMode
from repro.objects.consensus import AgreementValidity
from repro.objects.opacity import OpacityChecker
from repro.sim import ComposedDriver, RoundRobinScheduler, SoloScheduler, play
from repro.sim.workload import TransactionWorkload, propose_workload


def exclusion(safety, liveness, battery):
    outcomes = play_outcomes(liveness, check_plays(safety, battery))
    return build_exclusion_report(safety.name, liveness.name, outcomes)


def witness(safety, liveness, implementation, runs):
    battery = {implementation: [(history, summary, "run") for history, summary in runs]}
    outcomes = play_outcomes(liveness, check_plays(safety, battery))
    return NonExclusionReport(
        liveness.name, safety.name, implementation, outcomes[implementation]
    )


def consensus_plays_for(liveness_unused, max_steps=20_000):
    battery = {}
    for entry in consensus_registry(2, registers_only=True):
        adversary = LockstepConsensusAdversary()
        result = play(entry.make(), adversary, max_steps=max_steps)
        battery[entry.key] = [
            (result.history, result.summary(ProgressMode.EVENTUAL), "lockstep")
        ]
    return battery


class TestConsensusExclusion:
    def test_wait_freedom_excluded_on_register_registry(self):
        report = exclusion(
            AgreementValidity(), WaitFreedom(), consensus_plays_for(None)
        )
        assert report.holds
        assert "EXCLUDES" in report.describe()

    def test_12_freedom_excluded(self):
        report = exclusion(
            AgreementValidity(), LKFreedom(1, 2), consensus_plays_for(None)
        )
        assert report.holds

    def test_11_freedom_not_excluded_and_witnessed(self):
        # The lockstep plays do not defeat (1,1)-freedom...
        report = exclusion(
            AgreementValidity(), LKFreedom(1, 1), consensus_plays_for(None)
        )
        assert not report.holds
        assert "commit-adopt" in report.undefeated()
        # ...and commit-adopt witnesses non-exclusion on solo runs.
        runs = []
        for pid in range(2):
            proposals = [None, None]
            proposals[pid] = pid
            entry = consensus_registry(2, registers_only=True)[0]
            result = play(
                entry.make(),
                ComposedDriver(SoloScheduler(pid), propose_workload(proposals)),
                max_steps=2_000,
            )
            runs.append((result.history, result.summary(ProgressMode.EVENTUAL)))
        report = witness(AgreementValidity(), LKFreedom(1, 1), "commit-adopt", runs)
        assert report.holds


class TestTmExclusion:
    def test_local_progress_excluded_on_opaque_registry(self):
        battery = {}
        for entry in entries_ensuring(tm_registry(2, variables=(0,)), OPACITY):
            adversary = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
            result = play(entry.make(), adversary, max_steps=240)
            battery[entry.key] = [
                (result.history, result.summary(ProgressMode.REPEATED), "adversary")
            ]
        report = exclusion(OpacityChecker(), LocalProgress(), battery)
        assert report.holds, report.undefeated()

    def test_lock_freedom_not_excluded(self):
        entry = [e for e in tm_registry(2, variables=(0,)) if e.key == "agp"][0]
        result = play(
            entry.make(),
            ComposedDriver(
                RoundRobinScheduler(), TransactionWorkload(2, 3, variables=(0,))
            ),
            max_steps=10_000,
        )
        report = witness(
            OpacityChecker(),
            LKFreedom(1, 2),
            "agp",
            [(result.history, result.summary(ProgressMode.REPEATED))],
        )
        assert report.holds

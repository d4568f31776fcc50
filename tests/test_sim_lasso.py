"""Tests for lasso detection and summary semantics of runs."""

import pytest

from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.algorithms.consensus import CommitAdoptConsensus, SilentConsensus
from repro.algorithms.tm import TrivialTransactionalMemory
from repro.core.object_type import ProgressMode
from repro.core.properties import Certainty
from repro.sim import (
    ComposedDriver,
    LockstepScheduler,
    RoundRobinScheduler,
    SoloScheduler,
    play,
    propose_workload,
)
from repro.sim.lasso import LassoDetector
from repro.sim.liveness_search import AdversaryPolicy, LivenessSearch


class TestLassoDetector:
    def test_exact_repeat_detected(self):
        detector = LassoDetector()
        assert detector.observe(1, "state-a", None) is None
        assert detector.observe(2, "state-b", None) is None
        certificate = detector.observe(3, "state-a", None)
        assert certificate is not None
        assert certificate.cycle_start == 1
        assert certificate.cycle_end == 3
        assert certificate.fingerprint_kind == "exact"

    def test_abstract_repeat_detected_separately(self):
        detector = LassoDetector()
        detector.observe(1, None, "abs-a")
        certificate = detector.observe(2, None, "abs-a")
        assert certificate is not None
        assert certificate.fingerprint_kind == "abstract"

    def test_stride_skips_observations(self):
        detector = LassoDetector(check_every=2)
        assert detector.observe(1, "x", None) is None  # skipped
        assert detector.observe(2, "x", None) is None  # stored
        assert detector.observe(3, "x", None) is None  # skipped
        assert detector.observe(4, "x", None) is not None

    def test_reset_forgets(self):
        detector = LassoDetector()
        detector.observe(1, "x", None)
        detector.reset()
        assert detector.observe(2, "x", None) is None

    @pytest.mark.parametrize(
        "period,stride", [(3, 2), (5, 2), (2, 3), (4, 3), (7, 4), (6, 4)]
    )
    def test_stride_detects_non_multiple_periods(self, period, stride):
        """The stride-soundness claim of the module docstring: a lasso
        whose period is *not* a multiple of ``check_every`` is still
        found once the stride divides a multiple of the period — at the
        cost of a longer reported cycle, never a miss."""
        assert period % stride != 0
        detector = LassoDetector(check_every=stride)
        certificate = None
        for step in range(1, 10 * period * stride):
            certificate = detector.observe(step, step % period, None)
            if certificate is not None:
                break
        assert certificate is not None
        # Both endpoints were observed (multiples of the stride) and the
        # reported cycle is a whole number of true periods.
        assert certificate.cycle_start % stride == 0
        assert certificate.cycle_end % stride == 0
        assert certificate.cycle_length % period == 0
        assert certificate.cycle_length >= period

    def test_stride_property_on_a_real_run(self):
        """Search-level stride soundness: the trivial TM's starvation
        cycle has period 2, not a multiple of stride 3 — the run still
        ends in a proved lasso, with the cycle a multiple of 2."""
        search = LivenessSearch(
            lambda: TrivialTransactionalMemory(2, variables=(0,)),
            AdversaryPolicy(
                TMLocalProgressAdversary(victim=0, helper=1, variable=0)
            ),
            max_depth=2_000,
            lasso_stride=3,
        )
        (liveness_run,) = search.runs()
        run = liveness_run.result
        assert run.stop_reason == "lasso"
        assert run.lasso is not None
        assert run.lasso.cycle_length % 2 == 0

    def test_snapshot_restore_isolates_branches(self):
        """The branching liveness search forks detector state per path:
        an observation made after a snapshot must not leak into a
        sibling branch restored from it."""
        detector = LassoDetector()
        detector.observe(1, "shared", None)
        fork = detector.snapshot()
        assert detector.observe(2, "left-only", None) is None
        detector.restore(fork)
        # The sibling never saw "left-only" ...
        assert detector.observe(2, "left-only", None) is None
        # ... but still remembers the common prefix.
        assert detector.observe(3, "shared", None) is not None


class TestLassoRuns:
    def test_lockstep_commit_adopt_lassos_with_no_decision(self):
        """The (1,2)-exclusion witness: contention prevents any decision,
        and the certificate makes the verdict PROVED."""
        result = play(
            CommitAdoptConsensus(2),
            ComposedDriver(LockstepScheduler([0, 1]), propose_workload([0, 1])),
            max_steps=10_000,
        )
        assert result.stop_reason == "lasso"
        assert result.lasso is not None
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.certainty is Certainty.PROVED
        assert summary.steppers == frozenset({0, 1})
        assert summary.progressors == frozenset()

    def test_round_robin_three_proposers_also_lasso(self):
        result = play(
            CommitAdoptConsensus(3),
            ComposedDriver(RoundRobinScheduler(), propose_workload([0, 1, 2])),
            max_steps=10_000,
        )
        assert result.stop_reason == "lasso"
        assert result.summary(ProgressMode.EVENTUAL).steppers == frozenset({0, 1, 2})

    def test_silent_consensus_lassos_immediately(self):
        result = play(
            SilentConsensus(2),
            ComposedDriver(SoloScheduler(0), propose_workload([0, None])),
            max_steps=1_000,
        )
        assert result.stop_reason == "lasso"
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.steppers == frozenset({0})
        assert summary.progressors == frozenset()

    def test_solo_commit_adopt_terminates_instead(self):
        result = play(
            CommitAdoptConsensus(2),
            ComposedDriver(SoloScheduler(1), propose_workload([None, 9])),
            max_steps=1_000,
        )
        assert result.fairness_complete
        assert result.lasso is None
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.finite
        assert 1 in summary.progressors

    def test_lockstep_decided_when_values_equal(self):
        """Equal proposals give no contention on values: commit-adopt
        decides even in lockstep — the adversary needs distinct values,
        exactly as the paper's F1 requires."""
        result = play(
            CommitAdoptConsensus(2),
            ComposedDriver(LockstepScheduler([0, 1]), propose_workload([5, 5])),
            max_steps=10_000,
        )
        assert result.stats[0].responses == 1
        assert result.stats[1].responses == 1
        values = {e.value for e in result.history.responses()}
        assert values == {5}

"""Direct unit tests for RunResult summary semantics (the finite, lasso
and horizon cases of :meth:`repro.sim.record.RunResult.summary`)."""

from repro.core.history import History
from repro.core.object_type import ProgressMode
from repro.core.properties import Certainty
from repro.sim.record import LassoCertificate, ProcessStats, RunResult


def make_result(
    n=2,
    total_steps=100,
    stop_reason="max-steps",
    fairness_complete=False,
    lasso=None,
    stats=None,
):
    return RunResult(
        history=History([]),
        n_processes=n,
        total_steps=total_steps,
        stop_reason=stop_reason,
        fairness_complete=fairness_complete,
        stats=stats or {pid: ProcessStats(pid=pid) for pid in range(n)},
        lasso=lasso,
    )


def stats_for(pid, steps=0, last_step=-1, invocations=0, responses=0,
              good=0, good_steps=(), crashed=False, pending=False):
    return ProcessStats(
        pid=pid,
        steps=steps,
        last_step=last_step,
        invocations=invocations,
        responses=responses,
        good_responses=good,
        good_response_steps=list(good_steps),
        crashed=crashed,
        pending_at_end=pending,
    )


class TestFiniteSummaries:
    def test_complete_run_everyone_satisfied(self):
        stats = {
            0: stats_for(0, invocations=2, responses=2, good=2),
            1: stats_for(1, invocations=1, responses=1, good=1),
        }
        result = make_result(
            fairness_complete=True, stop_reason="driver-stop", stats=stats
        )
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.finite
        assert summary.certainty is Certainty.PROVED
        assert summary.progressors == frozenset({0, 1})

    def test_no_demand_counts_as_progress(self):
        stats = {
            0: stats_for(0, invocations=1, responses=1, good=1),
            1: stats_for(1),  # never invoked anything
        }
        result = make_result(fairness_complete=True, stats=stats)
        assert result.summary(ProgressMode.EVENTUAL).progressors == frozenset({0, 1})

    def test_pending_at_end_is_starved(self):
        stats = {
            0: stats_for(0, invocations=1, responses=1, good=1),
            1: stats_for(1, invocations=1, pending=True),
        }
        result = make_result(fairness_complete=True, stats=stats)
        assert result.summary(ProgressMode.EVENTUAL).progressors == frozenset({0})

    def test_invoked_but_no_good_response_is_starved(self):
        stats = {
            0: stats_for(0, invocations=3, responses=3, good=0),
            1: stats_for(1, invocations=1, responses=1, good=1),
        }
        result = make_result(fairness_complete=True, stats=stats)
        assert result.summary(ProgressMode.REPEATED).progressors == frozenset({1})


class TestLassoSummaries:
    def test_steppers_are_cycle_participants(self):
        lasso = LassoCertificate(cycle_start=50, cycle_end=100, fingerprint_kind="exact")
        stats = {
            0: stats_for(0, steps=60, last_step=99),
            1: stats_for(1, steps=10, last_step=20),  # stopped before cycle
        }
        result = make_result(lasso=lasso, stop_reason="lasso", stats=stats)
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.steppers == frozenset({0})
        assert summary.certainty is Certainty.PROVED
        assert not summary.finite

    def test_repeated_progress_needs_good_in_cycle(self):
        lasso = LassoCertificate(cycle_start=50, cycle_end=100, fingerprint_kind="abstract")
        stats = {
            0: stats_for(0, steps=90, last_step=99, good=3, good_steps=[10, 20, 30]),
            1: stats_for(1, steps=90, last_step=98, good=3, good_steps=[10, 60, 80]),
        }
        result = make_result(lasso=lasso, stop_reason="lasso", stats=stats)
        summary = result.summary(ProgressMode.REPEATED)
        # p0's good responses all predate the cycle: no repeated progress.
        assert summary.progressors == frozenset({1})

    def test_eventual_progress_counts_prelasso_goods(self):
        lasso = LassoCertificate(cycle_start=50, cycle_end=100, fingerprint_kind="exact")
        stats = {
            0: stats_for(0, steps=90, last_step=99, good=1, good_steps=[10]),
            1: stats_for(1, steps=90, last_step=98),
        }
        result = make_result(lasso=lasso, stop_reason="lasso", stats=stats)
        summary = result.summary(ProgressMode.EVENTUAL)
        assert 0 in summary.progressors

    def test_cycle_length(self):
        lasso = LassoCertificate(cycle_start=40, cycle_end=100, fingerprint_kind="exact")
        assert lasso.cycle_length == 60


class TestHorizonSummaries:
    def test_window_semantics(self):
        stats = {
            0: stats_for(0, steps=100, last_step=99, good=5, good_steps=[90, 95]),
            1: stats_for(1, steps=10, last_step=40),  # idle in final window
        }
        result = make_result(total_steps=100, stats=stats)
        summary = result.summary(ProgressMode.REPEATED, window_fraction=0.25)
        assert summary.certainty is Certainty.HORIZON
        assert summary.steppers == frozenset({0})
        assert summary.progressors == frozenset({0})

    def test_progress_outside_window_not_counted_for_repeated(self):
        stats = {
            0: stats_for(0, steps=100, last_step=99, good=5, good_steps=[10, 20]),
            1: stats_for(1, steps=100, last_step=98, good=1, good_steps=[99]),
        }
        result = make_result(total_steps=100, stats=stats)
        summary = result.summary(ProgressMode.REPEATED, window_fraction=0.25)
        assert summary.progressors == frozenset({1})

    def test_crashed_processes_excluded_everywhere(self):
        stats = {
            0: stats_for(0, steps=100, last_step=99, good=2, good_steps=[95]),
            1: stats_for(1, steps=50, last_step=99, crashed=True),
        }
        result = make_result(total_steps=100, stats=stats)
        summary = result.summary(ProgressMode.REPEATED)
        assert summary.correct == frozenset({0})
        assert 1 not in summary.steppers

    def test_describe_labels_run_kind(self):
        assert "[horizon]" in make_result().describe()
        finite = make_result(fairness_complete=True, stop_reason="driver-stop")
        assert "[finite-fair]" in finite.describe()
        lassoed = make_result(
            lasso=LassoCertificate(1, 2, "exact"), stop_reason="lasso"
        )
        assert "[lasso]" in lassoed.describe()

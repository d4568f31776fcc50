"""Tests for the play batteries and grid classification at other sizes."""

import pytest

from repro.analysis import consensus_registry, tm_registry, OPACITY, entries_ensuring
from repro.analysis.batteries import consensus_plays, tm_plays
from repro.analysis.experiments import run_fig1a, run_fig1b
from repro.core.properties import Certainty
from repro.util.errors import UsageError


class TestConsensusBattery:
    def test_battery_shape(self):
        entries = consensus_registry(3, registers_only=True)
        battery = consensus_plays(3, entries, max_steps=20_000)
        assert set(battery) == {"commit-adopt", "silent"}
        # 3 solo + 3 lockstep pairs + 1 round-robin = 7 plays each.
        assert all(len(plays) == 7 for plays in battery.values())

    def test_all_summaries_consistent(self):
        entries = consensus_registry(2, registers_only=True)
        battery = consensus_plays(2, entries, max_steps=20_000)
        for plays in battery.values():
            for history, summary, label in plays:
                assert summary.n_processes == 2, label
                history.check_well_formed()

    def test_commit_adopt_plays_are_all_proved(self):
        """Every consensus-side verdict should be exact (lassos or
        complete finite runs), never horizon."""
        entries = consensus_registry(3, registers_only=True)
        battery = consensus_plays(3, entries, max_steps=20_000)
        for plays in battery.values():
            for _history, summary, label in plays:
                assert summary.certainty is Certainty.PROVED, label


class TestTmBattery:
    def test_battery_shape(self):
        entries = entries_ensuring(tm_registry(3, variables=(0,)), OPACITY)
        battery = tm_plays(3, entries, max_steps=120, transactions=1)
        # 1 round-robin + 3 pairs + 2 adversaries + 1 counterexample = 7.
        assert all(len(plays) == 7 for plays in battery.values())

    def test_two_process_battery_skips_counterexample(self):
        entries = entries_ensuring(tm_registry(2, variables=(0,)), OPACITY)
        battery = tm_plays(2, entries, max_steps=120, transactions=1)
        labels = {label for plays in battery.values() for *_x, label in plays}
        assert "counterexample-adversary" not in labels


class TestEmptyBattery:
    """A battery that gives an implementation no plays is refused: no
    cell could be judged for it."""

    def test_counterexample_family_below_three_processes(self):
        with pytest.raises(UsageError, match=r"\['counterexample'\].*n=2"):
            run_fig1b(n=2, scheduler="counterexample")

    def test_empty_scheduler_selection(self):
        with pytest.raises(UsageError, match=r"\[\].*commit-adopt, silent.*n=2"):
            run_fig1a(n=2, scheduler="")


class TestOtherSizes:
    def test_fig1a_n2(self):
        result = run_fig1a(n=2, max_steps=20_000)
        assert result.all_ok, result.render()
        grid = result.artifacts["grid"]
        assert grid.implementable_points() == [(1, 1)]
        assert set(grid.excluded_points()) == {(1, 2), (2, 2)}

    def test_fig1b_n2(self):
        result = run_fig1b(n=2, max_steps=200, transactions=1)
        assert result.all_ok, result.render()
        grid = result.artifacts["grid"]
        assert set(grid.implementable_points()) == {(1, 1), (1, 2)}
        assert grid.excluded_points() == [(2, 2)]

    def test_fig1b_n4(self):
        result = run_fig1b(n=4, max_steps=200, transactions=1)
        assert result.all_ok, result.render()

    @pytest.mark.slow
    def test_fig1a_n4(self):
        result = run_fig1a(n=4, max_steps=30_000)
        assert result.all_ok, result.render()

    def test_no_undetermined_points_in_shipped_batteries(self):
        for result in (run_fig1a(n=3), run_fig1b(n=3, max_steps=200, transactions=1)):
            grid = result.artifacts["grid"]
            assert not any(point.undetermined for point in grid.points)

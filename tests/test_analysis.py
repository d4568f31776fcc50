"""Tests for registries, classification and reporting."""

import pytest

from repro.analysis import (
    AGREEMENT_VALIDITY,
    COUNTEREXAMPLE_S,
    OPACITY,
    classify_grid,
    consensus_registry,
    entries_ensuring,
    render_claims,
    render_grid,
    render_hasse,
    tm_registry,
)
from repro.analysis.batteries import consensus_plays, tm_plays
from repro.analysis.classification import cell_reports
from repro.core.exclusion import ExclusionReport
from repro.core.freedom import LKFreedom
from repro.core.history import History
from repro.core.lattice import LivenessOrder
from repro.core.liveness import Lmax, LockFreedom
from repro.core.properties import Certainty, ExecutionSummary
from repro.objects.consensus import AgreementValidity
from repro.objects.counterexample_s import counterexample_safety
from repro.objects.opacity import OpacityChecker

from conftest import inv, res


class TestRegistries:
    def test_register_only_filter(self):
        entries = consensus_registry(2, registers_only=True)
        assert {e.key for e in entries} == {"commit-adopt", "silent"}
        assert all(e.base_objects == "registers-only" for e in entries)

    def test_full_consensus_registry_includes_faulty(self):
        entries = consensus_registry(2)
        keys = {e.key for e in entries}
        assert {"cas", "tas", "stubborn", "inventing"} <= keys

    def test_tas_only_for_two_processes(self):
        keys = {e.key for e in consensus_registry(3)}
        assert "tas" not in keys

    def test_tm_registry_safety_declarations(self):
        entries = tm_registry(3)
        by_key = {e.key: e for e in entries}
        assert COUNTEREXAMPLE_S in by_key["i12"].ensures
        assert COUNTEREXAMPLE_S not in by_key["agp"].ensures
        assert OPACITY in by_key["global-lock"].ensures

    def test_entries_ensuring(self):
        entries = tm_registry(2)
        ensuring = entries_ensuring(entries, COUNTEREXAMPLE_S)
        assert {e.key for e in ensuring} == {"i12", "trivial"}

    def test_factories_produce_fresh_instances(self):
        entry = consensus_registry(2)[0]
        assert entry.make() is not entry.make()


class TestClassification:
    @staticmethod
    def _plays():
        """Synthetic battery: implA defeated under contention, implB a
        clean witness for l=1 points."""
        starving = ExecutionSummary.of(2, correct=[0, 1], steppers=[0, 1])
        live = ExecutionSummary.of(
            2, correct=[0, 1], steppers=[0, 1], progressors=[0, 1]
        )
        safe_history = History(
            [inv(0, "propose", 0), res(0, "propose", 0)]
        )
        return {
            "implA": [(safe_history, starving, "contention")],
            "implB": [(safe_history, live, "contention")],
        }

    def test_point_not_excluded_with_witness(self):
        grid = classify_grid(2, AgreementValidity(), self._plays())
        point = grid.point(1, 2)
        assert not point.excludes
        assert "implB" in point.evidence

    def test_point_excluded_when_all_defeated(self):
        plays = self._plays()
        plays["implB"] = plays["implA"]
        grid = classify_grid(2, AgreementValidity(), plays)
        assert grid.point(1, 2).excludes
        assert grid.point(2, 2).excludes

    def test_unsafe_plays_cannot_defeat(self):
        bad_history = History(
            [inv(0, "propose", 0), res(0, "propose", 99)]
        )
        starving = ExecutionSummary.of(2, correct=[0, 1], steppers=[0, 1])
        grid = classify_grid(
            2,
            AgreementValidity(),
            {"implA": [(bad_history, starving, "cheating")]},
        )
        assert not grid.point(1, 2).excludes
        assert grid.point(1, 2).undetermined

    def test_matches_predicate(self):
        grid = classify_grid(2, AgreementValidity(), self._plays())
        assert grid.matches(lambda l, k: False)

    def test_grid_point_lookup_error(self):
        grid = classify_grid(2, AgreementValidity(), self._plays())
        with pytest.raises(KeyError):
            grid.point(5, 5)

    def test_proved_defeat_is_chosen_over_an_earlier_horizon_one(self):
        history = History([inv(0, "propose", 0), res(0, "propose", 0)])
        starving = ExecutionSummary.of(2, correct=[0, 1], steppers=[0, 1])
        horizon = ExecutionSummary.of(
            2, correct=[0, 1], steppers=[0, 1], certainty=Certainty.HORIZON
        )
        plays = [(history, horizon, "bounded"), (history, starving, "lasso")]
        grid = classify_grid(
            2, AgreementValidity(), {"implA": plays, "implB": plays[:1]}
        )
        point = grid.point(2, 2)
        assert point.excludes
        assert point.evidence == (
            "implA defeated by lasso; implB defeated by bounded"
        )
        assert point.certainty is Certainty.HORIZON
        grid = classify_grid(2, AgreementValidity(), {"implA": plays})
        assert grid.point(2, 2).certainty is Certainty.PROVED

    def test_implementation_without_plays_is_not_defeated(self):
        plays = self._plays()
        plays["implB"] = []
        grid = classify_grid(2, AgreementValidity(), plays)
        point = grid.point(2, 2)
        assert not point.excludes
        assert point.undetermined


def _shipped_panel(panel):
    """The registry, safety property and battery behind a shipped panel
    at its default size and budgets, with its count of excluded cells."""
    if panel == "fig1a":
        entries = consensus_registry(3, registers_only=True)
        return entries, AgreementValidity(), consensus_plays(3, entries), 5
    if panel == "fig1b":
        entries = entries_ensuring(tm_registry(3, variables=(0,)), OPACITY)
        return entries, OpacityChecker(deep=True), tm_plays(3, entries), 3
    entries = entries_ensuring(tm_registry(3, variables=(0,)), COUNTEREXAMPLE_S)
    return entries, counterexample_safety(deep_opacity=True), tm_plays(3, entries), 4


@pytest.mark.parametrize("panel", ["fig1a", "fig1b", "sec53"])
def test_every_excluded_shipped_cell_has_one_defeat_per_entry(panel):
    entries, safety, battery, excluded = _shipped_panel(panel)
    reports = [
        (prop, report)
        for prop, report in cell_reports(3, safety, battery)
        if isinstance(report, ExclusionReport)
    ]
    assert len(reports) == excluded
    for prop, report in reports:
        assert report.holds, prop.name
        assert sorted(report.defeats) == sorted(entry.key for entry in entries)
        for outcome in report.defeats.values():
            assert safety.check_history(outcome.history).holds
            assert not prop.evaluate(outcome.summary).holds


class TestRendering:
    def test_render_grid_contains_glyphs_and_axes(self):
        grid = classify_grid(2, AgreementValidity(), TestClassification._plays())
        text = render_grid(grid)
        assert "l\\k" in text
        assert "○" in text

    def test_render_claims_alignment(self):
        text = render_claims(
            "demo", [("short", "a", "b", True), ("a-much-longer-claim", "x", "y", False)]
        )
        assert "OK" in text and "MISMATCH" in text

    def test_render_hasse(self):
        order = LivenessOrder([Lmax(), LockFreedom()], 2)
        text = render_hasse(order)
        assert "Lmax" in text
        assert "totally ordered: True" in text

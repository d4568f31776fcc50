"""End-to-end experiment tests: every registered experiment must
reproduce its paper claims.

These are the integration backbone of the suite: each experiment runner
is executed with test-sized parameters and every claim row must come
back OK.
"""

import pytest

from repro.analysis import EXPERIMENTS, run_experiment
from repro.util.errors import UsageError


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1a",
            "fig1b",
            "thm52",
            "thm53",
            "cor45",
            "cor46",
            "thm44",
            "thm49",
            "lem54",
            "sec53",
            "sec6",
            "fuzz",
            "verify",
            "mutation",
        }

    def test_unknown_experiment_raises(self):
        with pytest.raises(UsageError, match="unknown experiment"):
            run_experiment("fig9z")

    def test_cli_checks_every_target_before_running_any(self, capsys):
        from repro.__main__ import main

        assert main(["run", "thm44", "fig9z"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment 'fig9z'; did you mean" in captured.err


class TestFastExperiments:
    @pytest.mark.parametrize("experiment_id", ["thm44", "thm49", "cor45", "sec6"])
    def test_experiment_reproduces_paper(self, experiment_id):
        result = run_experiment(experiment_id)
        assert result.all_ok, result.render()

    def test_render_includes_claim_table(self):
        result = run_experiment("thm44")
        text = result.render()
        assert "[thm44]" in text
        assert "paper" in text and "measured" in text


class TestGridExperiments:
    def test_fig1a(self):
        result = run_experiment("fig1a", n=3, max_steps=20_000)
        assert result.all_ok, result.render()
        grid = result.artifacts["grid"]
        assert grid.implementable_points() == [(1, 1)]

    def test_fig1a_union_semantics_agrees(self):
        """The classification is the same under the conditional and the
        union form of (l,k)-freedom (:mod:`repro.core.freedom`) on every
        grid point the paper uses."""
        conditional = run_experiment("fig1a", n=3, semantics="conditional")
        union = run_experiment("fig1a", n=3, semantics="union")
        grid_c = conditional.artifacts["grid"]
        grid_u = union.artifacts["grid"]
        for point in grid_c.points:
            assert grid_u.point(point.l, point.k).excludes == point.excludes

    def test_fig1b(self):
        result = run_experiment("fig1b", n=3, max_steps=240, transactions=2)
        assert result.all_ok, result.render()
        grid = result.artifacts["grid"]
        assert set(grid.implementable_points()) == {(1, 1), (1, 2), (1, 3)}

    def test_thm52(self):
        result = run_experiment("thm52", n=3, max_steps=20_000)
        assert result.all_ok, result.render()
        assert result.artifacts["witness"] is not None

    def test_thm53(self):
        result = run_experiment("thm53", n=3, max_steps=240)
        assert result.all_ok, result.render()

    def test_cor45(self):
        result = run_experiment("cor45", max_steps=20_000)
        assert result.all_ok, result.render()
        assert result.artifacts["certificate"].gmax_is_empty

    def test_cor46(self):
        result = run_experiment("cor46", n=2, max_steps=240)
        assert result.all_ok, result.render()

    def test_lem54(self):
        result = run_experiment("lem54", n=3, transactions=2, max_steps=400)
        assert result.all_ok, result.render()

    def test_sec53(self):
        result = run_experiment("sec53", n=3, transactions=2, max_steps=240)
        assert result.all_ok, result.render()

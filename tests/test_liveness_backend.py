"""The liveness backend: lasso-certified verdicts through ``verify()``.

Covers the search (branching, dedup, budget, restart isolation), the
certificate pipeline (shrink, serialization, independent plain-runtime
replay), the verify facade semantics (proof vs horizon certainty,
per-backend expectations, auto-mode override dropping), the
shrink-unfaithful safety-backend regression, and the CLI/campaign
integration.
"""

import json

import pytest

from repro.__main__ import main
from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.algorithms.tm import TrivialTransactionalMemory
from repro.analysis.experiments import run_experiment
from repro.core.history import History
from repro.core.liveness import LocalProgress
from repro.core.properties import SafetyProperty, Verdict as PropertyVerdict
from repro.fuzz.trace import (
    LassoTrace,
    decisions_to_labels,
    labels_to_decisions,
)
from repro.scenarios import (
    Scenario,
    get_scenario,
    iter_scenarios,
    register,
    unregister,
    verify,
)
from repro.sim.lasso_shrink import replay_lasso, shrink_lasso
from repro.sim.liveness_search import (
    AdversaryPolicy,
    LivenessSearch,
    PlanPolicy,
)
from repro.util.errors import UsageError


def _trivial_tm():
    return TrivialTransactionalMemory(2, variables=(0,))


def _f1():
    return TMLocalProgressAdversary(victim=0, helper=1, variable=0)


class TestLivenessSearch:
    def test_adversary_policy_walks_one_trajectory_to_a_lasso(self):
        search = LivenessSearch(_trivial_tm, AdversaryPolicy(_f1()))
        runs = list(search.runs())
        assert len(runs) == 1
        (run,) = runs
        assert run.kind == "lasso"
        assert run.result.lasso.fingerprint_kind == "exact"
        assert not run.escaped

    def test_plan_policy_branches_over_scheduler_choices(self):
        plan = {0: [("start", ()), ("start", ())], 1: [("start", ()), ("start", ())]}
        search = LivenessSearch(_trivial_tm, PlanPolicy(plan))
        runs = list(search.runs())
        assert runs and all(run.kind == "finite" for run in runs)
        assert all(run.result.fairness_complete for run in runs)
        # The search really branched: more configurations than any one
        # straight-line run, and merged schedules were pruned.
        assert search.configurations > max(
            run.result.total_steps for run in runs
        )
        assert search.merges > 0

    def test_budget_overrun_raises_search_budget_exceeded(self):
        from repro.engine.explorer import SearchBudgetExceeded

        search = LivenessSearch(
            _trivial_tm, AdversaryPolicy(_f1()), max_configurations=1
        )
        with pytest.raises(SearchBudgetExceeded):
            list(search.runs())

    def test_horizon_truncation(self):
        from repro.algorithms.tm import AgpTransactionalMemory

        search = LivenessSearch(
            lambda: AgpTransactionalMemory(2, variables=(0,)),
            AdversaryPolicy(_f1()),
            max_depth=50,
        )
        (run,) = list(search.runs())
        assert run.kind == "horizon"
        assert run.result.total_steps == 50

    def test_rerunning_the_same_search_reproduces_exactly(self):
        """Satellite regression: a second `runs()` call restarts from
        the same snapshot; a stale (un-reset) detector would fabricate
        an immediate bogus cross-run lasso instead of reproducing the
        first pass."""
        search = LivenessSearch(_trivial_tm, AdversaryPolicy(_f1()))
        first = list(search.runs())
        second = list(search.runs())
        assert len(first) == len(second) == 1
        a, b = first[0].result.lasso, second[0].result.lasso
        assert (a.cycle_start, a.cycle_end) == (b.cycle_start, b.cycle_end)
        assert first[0].decisions == second[0].decisions


class TestLassoShrinkAndReplay:
    def _witness(self):
        search = LivenessSearch(_trivial_tm, AdversaryPolicy(_f1()))
        (run,) = list(search.runs())
        certificate = run.result.lasso
        stem = tuple(run.decisions[: certificate.cycle_start])
        cycle = tuple(
            run.decisions[certificate.cycle_start : certificate.cycle_end]
        )
        return stem, cycle

    def test_replay_recertifies_on_a_plain_runtime(self):
        stem, cycle = self._witness()
        replay = replay_lasso(_trivial_tm, stem, cycle, "exact")
        assert replay.valid and replay.repeats
        assert replay.certifies("exact")
        summary = replay.result.summary(
            _trivial_tm().object_type.progress_mode
        )
        assert not LocalProgress().evaluate(summary).holds

    def test_invalid_decision_sequences_are_rejected_not_raised(self):
        from repro.sim.drivers import StepDecision

        # Stepping before any invocation is invalid; the replay layer
        # rejects the candidate instead of raising.
        replay = replay_lasso(_trivial_tm, [StepDecision(0)], [], "finite")
        assert not replay.valid
        assert replay.error

    def test_shrink_preserves_the_starving_set(self):
        stem, cycle = self._witness()
        mode = _trivial_tm().object_type.progress_mode
        shrunk = shrink_lasso(
            _trivial_tm, stem, cycle, "exact", LocalProgress(), mode,
            starving=(0,),
        )
        assert shrunk.faithful
        assert len(shrunk.stem) <= len(stem)
        assert len(shrunk.cycle) <= len(cycle)
        replay = replay_lasso(_trivial_tm, shrunk.stem, shrunk.cycle, "exact")
        summary = replay.result.summary(mode)
        assert 0 in (summary.correct - summary.progressors)

    def test_shrink_reduces_stride_inflated_cycles_to_the_period(self):
        """The ddmin-analogous pass undoes stride inflation: a detector
        with stride 3 reports a 6-step cycle for the period-2 trivial-TM
        loop; divisor probing recovers the true period."""
        search = LivenessSearch(
            _trivial_tm, AdversaryPolicy(_f1()), lasso_stride=3
        )
        (run,) = list(search.runs())
        certificate = run.result.lasso
        stem = tuple(run.decisions[: certificate.cycle_start])
        cycle = tuple(
            run.decisions[certificate.cycle_start : certificate.cycle_end]
        )
        assert len(cycle) > 2
        mode = _trivial_tm().object_type.progress_mode
        shrunk = shrink_lasso(
            _trivial_tm, stem, cycle, "exact", LocalProgress(), mode,
            starving=(0,),
        )
        assert len(shrunk.cycle) == 2

    def test_unreplayable_input_is_flagged_not_shrunk(self):
        stem, cycle = self._witness()
        mode = _trivial_tm().object_type.progress_mode
        # A bogus "certificate" whose cycle does not close.
        shrunk = shrink_lasso(
            _trivial_tm, stem, stem, "exact", LocalProgress(), mode
        )
        assert not shrunk.faithful
        assert (shrunk.stem, shrunk.cycle) == (stem, stem)

    def test_cached_and_plain_kernel_fingerprints_agree(self):
        """Drift guard for the shared repetition key: the engine's
        incremental-cached `KernelConfig.kernel_fingerprint` must equal
        the plain-runtime `kernel_state_fingerprint` the certificate
        replay compares against — byte-for-byte, at every step."""
        from repro.engine.config import KernelConfig
        from repro.sim.runtime import kernel_state_fingerprint

        stem, cycle = self._witness()
        config = KernelConfig(_trivial_tm())
        for decision in list(stem) + list(cycle):
            config.apply(decision)
            assert config.kernel_fingerprint() == kernel_state_fingerprint(
                config.runtime
            )

    def test_label_round_trip(self):
        stem, cycle = self._witness()
        labels = decisions_to_labels(list(stem) + list(cycle))
        assert labels_to_decisions(labels) == list(stem) + list(cycle)


class TestVerifyLivenessBackend:
    def test_every_liveness_scenario_reports_its_expected_verdict(self):
        scenarios = iter_scenarios(tags="liveness")
        assert len(scenarios) >= 6
        for scenario in scenarios:
            verdict = verify(scenario, backend="liveness")
            assert verdict.expected, (scenario.scenario_id, verdict.outcome)
            assert verdict.backend == "liveness"

    def test_starvation_proof_with_exact_lasso_certificate(self):
        verdict = verify("trivial-local-progress-f1", backend="liveness")
        assert verdict.violated and verdict.expected
        assert verdict.stats["certainty"] == "proof"
        assert verdict.stats["lasso_replays"] is True
        assert verdict.lasso is not None
        assert verdict.lasso.fingerprint_kind == "exact"
        assert verdict.lasso.cycle  # a genuine infinite certificate

    def test_lasso_artifact_round_trips_and_replays_plainly(self):
        verdict = verify("trivial-local-progress-f1", backend="liveness")
        document = json.loads(json.dumps(verdict.to_document()))
        trace = LassoTrace.from_document(document["lasso"])
        scenario = get_scenario("trivial-local-progress-f1")
        replay = trace.replay(scenario.factory)
        assert replay.certifies(trace.fingerprint_kind)
        summary = replay.result.summary(
            scenario.factory().object_type.progress_mode
        )
        assert set(trace.starving) <= set(summary.correct - summary.progressors)

    def test_abstract_lasso_for_commit_adopt_starvation(self):
        verdict = verify("commit-adopt-starvation", backend="liveness")
        assert verdict.violated and verdict.stats["certainty"] == "proof"
        assert verdict.lasso.fingerprint_kind == "abstract"
        assert verdict.stats["lasso_replays"] is True

    def test_horizon_evidence_for_growing_state(self):
        verdict = verify("agp-local-progress", backend="liveness")
        assert verdict.violated and verdict.expected
        assert verdict.stats["certainty"] == "horizon"
        assert verdict.lasso is None
        assert verdict.stats["starving"] == [0]

    def test_escaping_implementation_holds_with_proof(self):
        verdict = verify("cas-escapes-lockstep", backend="liveness")
        assert verdict.holds and verdict.expected
        assert verdict.stats["certainty"] == "proof"
        assert verdict.stats["escaped"] >= 1

    def test_plan_branching_finite_proof(self):
        verdict = verify("trivial-local-progress-schedules", backend="liveness")
        assert verdict.violated and verdict.stats["certainty"] == "proof"
        assert verdict.lasso.fingerprint_kind == "finite"
        assert not verdict.lasso.cycle
        assert verdict.stats["lasso_replays"] is True
        assert verdict.stats.get("merged_schedules", 0) > 0

    def test_budget_overrun_folds_into_budget_exhausted(self):
        verdict = verify(
            "trivial-local-progress-f1", backend="liveness",
            max_configurations=1,
        )
        assert verdict.budget_exhausted and not verdict.expected
        assert "error" in verdict.stats

    def test_liveness_backend_requires_a_liveness_property(self):
        with pytest.raises(UsageError, match="liveness"):
            verify("cas-consensus", backend="liveness")

    def test_unknown_liveness_override_is_a_usage_error(self):
        with pytest.raises(UsageError, match="override"):
            verify("trivial-local-progress-f1", backend="liveness", seed=3)

    def test_lasso_stride_override_still_proves(self):
        verdict = verify(
            "trivial-local-progress-f1", backend="liveness", lasso_stride=3
        )
        assert verdict.violated and verdict.stats["certainty"] == "proof"
        # Shrinking undoes the stride-inflated cycle.
        assert verdict.stats["lasso_cycle"] == 2

    def test_liveness_scenarios_still_satisfy_safety_backends(self):
        """The paper's headline shape: the very same scenario is
        safety-satisfying and liveness-violating."""
        scenario = get_scenario("trivial-local-progress-f1")
        assert verify(scenario, backend="fuzz", seed=7, iterations=200).holds
        assert verify(scenario, backend="exhaustive").holds
        assert verify(scenario, backend="liveness").violated


class TestAutoOverrideDropping:
    """Satellite: library-level ``verify(backend='auto')`` applies the
    same FUZZ_ONLY/EXHAUSTIVE_ONLY dropping the CLI does."""

    def test_fuzz_only_overrides_dropped_for_exhaustive_resolution(self):
        verdict = verify(
            "cas-consensus", backend="auto", iterations=10, corpus_size=4
        )
        assert verdict.backend == "exhaustive" and verdict.holds

    def test_exhaustive_only_overrides_dropped_for_fuzz_resolution(self):
        verdict = verify(
            "agp-opacity-3p", backend="auto", iterations=50,
            max_configurations=10, mode="replay",
        )
        assert verdict.backend == "fuzz" and verdict.holds
        assert verdict.stats["interleavings"] == 50

    def test_explicit_backend_stays_strict(self):
        with pytest.raises(UsageError, match="iterations"):
            verify("cas-consensus", backend="exhaustive", iterations=10)


class _NonMonotoneSafety(SafetyProperty):
    """Deliberately non-monotone across calls: fails only while the
    shared call counter is below the threshold, then passes forever —
    the enumeration's single checker instance sees a 'violation' that
    no fresh-instance replay reproduces."""

    name = "non-monotone-safety"

    def __init__(self, cell, failing_calls):
        self._cell = cell
        self._failing_calls = failing_calls

    def check_history(self, history: History) -> PropertyVerdict:
        self._cell["calls"] += 1
        if self._cell["calls"] <= self._failing_calls:
            return PropertyVerdict.failed("non-monotone planted failure")
        return PropertyVerdict.passed("now passing")


class TestShrinkUnfaithfulRegression:
    """Satellite: a shrunk (or unshrunk) witness that fails to
    re-violate on replay must be surfaced loudly — and never crash
    ``verify()``."""

    def _scenario(self, failing_calls):
        base = get_scenario("cas-consensus")
        cell = {"calls": 0}
        return Scenario(
            scenario_id="test-non-monotone",
            factory=base.factory,
            plan=base.plan,
            safety_factory=lambda: _NonMonotoneSafety(cell, failing_calls),
            tags=("consensus", "test-only"),
            expect_violation=True,
        )

    def test_unreplayable_witness_is_loud_not_a_crash(self):
        # The first check_history call (inside the enumeration) fails;
        # every later call — shrink validation, replay — passes.
        scenario = self._scenario(failing_calls=1)
        try:
            register(scenario)
            verdict = verify(scenario, backend="exhaustive")
        finally:
            unregister("test-non-monotone")
        assert verdict.violated  # the enumeration's checker did fail
        assert verdict.stats["shrink_unfaithful"] is True
        assert verdict.stats["counterexample_replays"] is False
        assert verdict.counterexample is not None
        assert verdict.counterexample.reason == ""

    def test_shrunk_schedule_losing_the_violation_falls_back(self):
        # Enough failing calls for ddmin to shrink aggressively, then
        # the final fresh replay passes: the shrunk witness is flagged
        # and the unshrunk fallback replay is recorded.
        scenario = self._scenario(failing_calls=50)
        try:
            register(scenario)
            verdict = verify(scenario, backend="exhaustive")
        finally:
            unregister("test-non-monotone")
        assert verdict.violated
        if verdict.stats.get("counterexample_replays") is False:
            assert verdict.stats["shrink_unfaithful"] is True
            assert "unshrunk_replays" in verdict.stats

    def test_faithful_shrinks_are_unflagged(self):
        verdict = verify("inventing-consensus", backend="exhaustive")
        assert verdict.violated
        assert "shrink_unfaithful" not in verdict.stats
        assert verdict.stats["counterexample_replays"] is True


class TestLivenessCliAndCampaign:
    def test_cli_liveness_verify_exits_zero_with_certificate(self, capsys, tmp_path):
        out_path = str(tmp_path / "verdict.json")
        assert (
            main(
                [
                    "verify",
                    "trivial-local-progress-f1",
                    "--backend",
                    "liveness",
                    "--out",
                    out_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "liveness: violated" in out and "-> expected" in out
        assert "lasso certificate (exact" in out
        document = json.load(open(out_path))
        assert document["outcome"] == "violated"
        assert document["stats"]["certainty"] == "proof"
        assert document["lasso"]["stem"] is not None
        assert document["lasso"]["cycle"]

    def test_cli_escaping_implementation_exits_zero(self, capsys):
        assert (
            main(["verify", "cas-escapes-lockstep", "--backend", "liveness"])
            == 0
        )
        out = capsys.readouterr().out
        assert "liveness: holds" in out and "-> expected" in out

    def test_cli_liveness_on_non_liveness_scenario_exits_two(self, capsys):
        assert main(["verify", "cas-consensus", "--backend", "liveness"]) == 2
        assert "liveness" in capsys.readouterr().err

    def test_verify_experiment_liveness_backend(self):
        result = run_experiment(
            "verify", scenario="trivial-local-progress-f1", backend="liveness"
        )
        assert result.all_ok
        document = result.artifacts["verdict"]
        assert document["outcome"] == "violated"
        assert document["lasso"]["fingerprint_kind"] == "exact"
        names = [claim.name for claim in result.claims]
        assert "lasso certificate replay" in names

    def test_verify_experiment_rejects_swept_seed_on_liveness(self):
        with pytest.raises(UsageError, match="identical jobs"):
            run_experiment(
                "verify", scenario="trivial-local-progress-f1",
                backend="liveness", seed=3,
            )

    def test_campaign_grid_liveness_axis_persists_and_exports(self, tmp_path):
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            export_campaign,
            run_campaign,
        )

        store_path = str(tmp_path / "liveness.db")
        spec = CampaignSpec.from_cli(
            ["verify"],
            [
                "scenario=trivial-local-progress-f1,cas-escapes-lockstep",
                "backend=liveness",
            ],
        )
        with CampaignStore.create(store_path, spec) as store:
            store.add_jobs(spec.expand())
        summary = run_campaign(store_path, workers=0)
        assert summary["failed"] == 0 and summary["pending"] == 0
        with CampaignStore.open(store_path) as store:
            document = json.loads(export_campaign(store))
        assert document["summary"]["all_ok"] is True
        by_scenario = {
            job["params"]["scenario"]: job["result"]["artifacts"]["verdict"]
            for job in document["jobs"]
        }
        assert by_scenario["trivial-local-progress-f1"]["outcome"] == "violated"
        assert "lasso" in by_scenario["trivial-local-progress-f1"]
        assert by_scenario["cas-escapes-lockstep"]["outcome"] == "holds"

"""The scenario-registry contract (repro.scenarios).

Every registered scenario must round-trip ``verify()`` under both
backends (smoke bounds), verdicts must agree on the oracle-eligible
pairs, counterexample traces must replay cleanly through
``fuzz/trace.py``, and lookups must fail uniformly with did-you-mean
``UsageError``\\ s — the API the engine, fuzzer, campaigns, and CLI all
share.
"""

import json

import pytest

from repro.__main__ import main
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.fuzz.trace import ReplayTrace, replay_schedule
from repro.scenarios import (
    Bounds,
    Scenario,
    Verdict,
    get_scenario,
    iter_scenarios,
    register,
    scenario_ids,
    unregister,
    verify,
)
from repro.util.errors import UsageError

#: Smoke bounds: enough to prove the tiny instances and to trip the
#: planted violations, small enough to keep the suite fast.
SMOKE_FUZZ = {"seed": 7, "iterations": 300}
SMOKE_BUDGET = 400


class TestRegistry:
    def test_catalog_covers_the_former_fuzz_workloads(self):
        expected = {
            "cas-consensus",
            "commit-adopt-consensus",
            "stubborn-consensus",
            "inventing-consensus",
            "agp-opacity",
            "i12-opacity",
            "agp-opacity-deep",
            "agp-opacity-3p",
        }
        assert expected <= set(scenario_ids())

    def test_unknown_id_is_usage_error_with_suggestion(self):
        with pytest.raises(UsageError, match="did you mean"):
            get_scenario("cas-consensu")

    def test_scenario_object_passes_through(self):
        scenario = get_scenario("cas-consensus")
        assert get_scenario(scenario) is scenario

    def test_tag_filtering_is_conjunctive(self):
        small_tms = iter_scenarios(tags=("tm", "small"))
        assert small_tms
        assert all(s.has_tags(("tm", "small")) for s in small_tms)
        violating = iter_scenarios(tags="violating")
        # The two curated counterexamples plus the faulty-consensus
        # family instances — every one declares its expectation.
        assert {
            "stubborn-consensus",
            "inventing-consensus",
        } <= {s.scenario_id for s in violating}
        assert all(s.expect_violation for s in violating)

    def test_duplicate_registration_rejected_unless_replace(self):
        original = get_scenario("cas-consensus")
        with pytest.raises(UsageError, match="already registered"):
            register(original)
        register(original, replace=True)  # idempotent override
        assert get_scenario("cas-consensus") is original

    def test_runtime_registration_and_unregistration(self):
        base = get_scenario("cas-consensus")
        extra = Scenario(
            scenario_id="test-extra",
            factory=base.factory,
            plan=base.plan,
            safety_factory=base.safety_factory,
            tags=("consensus", "test-only"),
        )
        try:
            register(extra)
            assert get_scenario("test-extra").factory is base.factory
            assert extra in iter_scenarios(tags="test-only")
        finally:
            unregister("test-extra")
        assert "test-extra" not in scenario_ids()

    def test_bounds_override_ignores_none(self):
        bounds = Bounds(max_depth=10).override(iterations=5, max_depth=None)
        assert (bounds.max_depth, bounds.iterations) == (10, 5)

    def test_verdict_outcome_validated(self):
        with pytest.raises(UsageError):
            Verdict("x", "fuzz", "maybe", expected=False)


class TestVerifyRoundTrip:
    def test_every_scenario_round_trips_both_backends(self):
        """The core contract: any registered scenario runs under both
        backends and reports its expected verdict — or an explicit
        budget-exhausted outcome when the smoke budget cannot finish
        the exhaustive enumeration (the fuzz-only instances).

        Family-generated instances are excluded here — 200+ of them
        would swamp the suite; ``test_families.py`` and the
        differential sample cover that population."""
        for scenario in iter_scenarios():
            if "family" in scenario.tags:
                continue
            fuzz = verify(scenario, backend="fuzz", **SMOKE_FUZZ)
            assert fuzz.expected, (scenario.scenario_id, fuzz.outcome)
            exhaustive = verify(
                scenario,
                backend="exhaustive",
                max_configurations=(
                    scenario.bounds.max_configurations
                    if scenario.small
                    else SMOKE_BUDGET
                ),
            )
            if scenario.small:
                assert exhaustive.expected, (
                    scenario.scenario_id,
                    exhaustive.outcome,
                )
                assert exhaustive.stats.get("certainty") == "proof" or (
                    exhaustive.violated
                )
            else:
                assert exhaustive.budget_exhausted
                assert not exhaustive.expected

    def test_backends_agree_on_every_oracle_pair(self):
        """The differential acceptance criterion through the facade:
        on every ``small`` scenario the two backends reach the same
        holds/violated verdict."""
        for scenario in iter_scenarios(tags="small"):
            exhaustive = verify(scenario, backend="exhaustive")
            fuzz = verify(scenario, backend="fuzz", **SMOKE_FUZZ)
            assert exhaustive.outcome == fuzz.outcome, scenario.scenario_id

    def test_counterexample_trace_replays_via_plain_runtime(self):
        verdict = verify("stubborn-consensus", backend="fuzz", **SMOKE_FUZZ)
        assert verdict.violated and verdict.counterexample is not None
        assert verdict.stats["counterexample_replays"] is True
        # Round-trip the artifact through its JSON document, then
        # replay on a fresh runtime independent of the engine.
        scenario = get_scenario("stubborn-consensus")
        trace = ReplayTrace.from_document(
            json.loads(json.dumps(verdict.counterexample.to_document()))
        )
        replay = replay_schedule(
            scenario.factory, trace.plan, trace.schedule,
            scenario.safety_factory(),
        )
        assert replay.violates

    def test_exhaustive_counterexample_is_shrunk_and_replayable(self):
        verdict = verify("inventing-consensus", backend="exhaustive")
        assert verdict.violated
        assert verdict.stats["shrunk_from"] >= verdict.stats[
            "counterexample_length"
        ]
        assert verdict.stats["counterexample_replays"] is True

    def test_fixed_seed_fuzz_verdicts_reproduce(self):
        first = verify("stubborn-consensus", backend="fuzz", seed=42,
                       iterations=300)
        second = verify("stubborn-consensus", backend="fuzz", seed=42,
                        iterations=300)
        assert first.counterexample.schedule == second.counterexample.schedule

        def deterministic(stats):
            timing = ("elapsed", "interleavings_per_second")
            return {k: v for k, v in stats.items() if k not in timing}

        assert deterministic(first.stats) == deterministic(second.stats)

    def test_budget_exhausted_outcome(self):
        verdict = verify(
            "agp-opacity", backend="exhaustive", max_configurations=20
        )
        assert verdict.budget_exhausted and not verdict.expected
        assert "error" in verdict.stats

    def test_checker_budget_folds_into_budget_exhausted(self):
        """The safety checker's own search budget (opacity's
        serialization search) must surface as the explicit outcome,
        never as an escaped exception — on either backend."""
        from repro.objects.opacity import OpacityChecker

        base = get_scenario("agp-opacity")
        tiny = Scenario(
            scenario_id="test-tiny-checker-budget",
            factory=base.factory,
            plan=base.plan,
            safety_factory=lambda: OpacityChecker(max_nodes=1),
            tags=("tm", "test-only"),
        )
        try:
            register(tiny)
            exhaustive = verify(tiny, backend="exhaustive")
            fuzz = verify(tiny, backend="fuzz", iterations=50)
        finally:
            unregister("test-tiny-checker-budget")
        assert exhaustive.budget_exhausted and "error" in exhaustive.stats
        assert fuzz.budget_exhausted and "error" in fuzz.stats

    def test_fuzz_experiment_reports_checker_budget_as_failed_claim(self):
        """A checker-budget blowup mid-fuzz must fail the claim, not
        crash the job (campaign workers treat exceptions as errors)."""
        from repro.objects.opacity import OpacityChecker

        base = get_scenario("agp-opacity")
        tiny = Scenario(
            scenario_id="test-tiny-checker-budget",
            factory=base.factory,
            plan=base.plan,
            safety_factory=lambda: OpacityChecker(max_nodes=1),
            tags=("tm", "test-only"),
        )
        try:
            register(tiny)
            result = run_experiment(
                "fuzz", workload="test-tiny-checker-budget", iterations=50
            )
        finally:
            unregister("test-tiny-checker-budget")
        assert not result.all_ok
        assert "budget exhausted" in result.claims[0].measured

    def test_auto_backend_resolution(self):
        assert verify("cas-consensus", backend="auto").backend == "exhaustive"
        assert (
            verify("agp-opacity-3p", backend="auto", iterations=50).backend
            == "fuzz"
        )

    def test_unknown_backend_and_override_are_usage_errors(self):
        with pytest.raises(UsageError, match="backend"):
            verify("cas-consensus", backend="enumerate")
        with pytest.raises(UsageError, match="override"):
            verify("cas-consensus", backend="exhaustive", bogus=1)
        with pytest.raises(UsageError, match="iterations"):
            verify("cas-consensus", backend="exhaustive", iterations=10)
        with pytest.raises(UsageError, match="processes"):
            verify("cas-consensus", backend="exhaustive", processes=2)

    def test_crash_override_rejected_on_exhaustive(self):
        with pytest.raises(UsageError, match="crash-free"):
            verify("cas-consensus", backend="exhaustive", crash="p0@4")


class TestLivenessScenarioRoundTrip:
    """Every liveness-tagged scenario is a full citizen of the
    registry: the safety backends verify its plan, the liveness backend
    verifies its liveness property, and the two expectations are
    declared (and judged) independently — the paper's headline cases
    are exactly *safety holds, liveness violated*."""

    def test_liveness_scenarios_are_registered(self):
        ids = {s.scenario_id for s in iter_scenarios(tags="liveness")}
        assert {
            "trivial-local-progress-f1",
            "trivial-local-progress-f2",
            "agp-local-progress",
            "i12-local-progress",
            "trivial-local-progress-schedules",
            "commit-adopt-starvation",
            "cas-escapes-lockstep",
            "cas-wait-freedom-schedules",
        } <= ids

    def test_every_liveness_scenario_round_trips_all_three_backends(self):
        for scenario in iter_scenarios(tags="liveness"):
            liveness = verify(scenario, backend="liveness")
            assert liveness.expected, (scenario.scenario_id, liveness.outcome)
            fuzz = verify(scenario, backend="fuzz", **SMOKE_FUZZ)
            assert fuzz.expected, (scenario.scenario_id, fuzz.outcome)
            if scenario.small:
                exhaustive = verify(scenario, backend="exhaustive")
                assert exhaustive.expected, (
                    scenario.scenario_id,
                    exhaustive.outcome,
                )

    def test_proof_verdicts_carry_replaying_certificates(self):
        for scenario_id in (
            "trivial-local-progress-f1",
            "trivial-local-progress-f2",
            "commit-adopt-starvation",
            "trivial-local-progress-schedules",
        ):
            verdict = verify(scenario_id, backend="liveness")
            assert verdict.violated
            assert verdict.stats["certainty"] == "proof"
            assert verdict.stats["lasso_replays"] is True, scenario_id

    def test_liveness_expectation_is_independent_of_safety(self):
        scenario = get_scenario("trivial-local-progress-f1")
        assert not scenario.expect_violation  # opaque: safety satisfied
        assert scenario.expect_liveness_violation  # but starves


class TestExperimentIntegration:
    def test_every_experiment_scenario_reference_resolves(self):
        """The acceptance criterion: ExperimentSpec scenario references
        all resolve through the registry (also enforced at import)."""
        for spec in EXPERIMENTS.values():
            for scenario_id in spec.scenarios:
                assert get_scenario(scenario_id).scenario_id == scenario_id
        referencing = [s for s in EXPERIMENTS.values() if s.scenarios]
        assert len(referencing) >= 10

    def test_unknown_experiment_is_usage_error_with_suggestion(self):
        with pytest.raises(UsageError, match="did you mean"):
            run_experiment("fig1")

    def test_verify_experiment_all_ok_on_expected_verdicts(self):
        satisfying = run_experiment(
            "verify", scenario="cas-consensus", backend="exhaustive"
        )
        assert satisfying.all_ok
        assert satisfying.artifacts["verdict"]["outcome"] == "holds"
        violating = run_experiment(
            "verify", scenario="stubborn-consensus", backend="fuzz",
            seed=7, iterations=300,
        )
        assert violating.all_ok  # violation expected => claims OK
        document = violating.artifacts["verdict"]
        assert document["outcome"] == "violated"
        assert document["counterexample"]["schedule"]

    def test_verify_experiment_auto_drops_fuzz_knobs_on_exhaustive_cells(self):
        # A backend=auto grid hands every cell the same axes; cells
        # resolving to exhaustive drop the sampling knobs.
        result = run_experiment(
            "verify", scenario="cas-consensus", backend="auto",
            seed=3, iterations=200,
        )
        assert result.all_ok
        assert result.artifacts["verdict"]["backend"] == "exhaustive"

    def test_verify_experiment_rejects_swept_seed_on_explicit_exhaustive(self):
        # Explicit exhaustive cells fail loudly instead of silently
        # running N identical jobs under a swept seed/iterations axis.
        with pytest.raises(UsageError, match="identical jobs"):
            run_experiment(
                "verify", scenario="cas-consensus", backend="exhaustive",
                seed=3,
            )
        with pytest.raises(UsageError, match="identical jobs"):
            run_experiment(
                "verify", scenario="cas-consensus", backend="exhaustive",
                iterations=200,
            )

    def test_campaign_grid_references_scenarios_by_id(self, tmp_path):
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            export_campaign,
            run_campaign,
        )

        store_path = str(tmp_path / "verify.db")
        spec = CampaignSpec.from_cli(
            ["verify"],
            [
                "scenario=cas-consensus,stubborn-consensus",
                "backend=auto,fuzz",
                "iterations=200",
            ],
        )
        with CampaignStore.create(store_path, spec) as store:
            store.add_jobs(spec.expand())
        summary = run_campaign(store_path, workers=0)
        assert summary["failed"] == 0 and summary["pending"] == 0
        with CampaignStore.open(store_path) as store:
            document = json.loads(export_campaign(store))
        assert document["summary"]["all_ok"] is True
        jobs = document["jobs"]
        assert len(jobs) == 4  # 2 scenarios x 2 backends
        assert {job["params"]["scenario"] for job in jobs} == {
            "cas-consensus",
            "stubborn-consensus",
        }

    def test_unknown_scenario_axis_fails_at_execution_with_suggestion(self):
        with pytest.raises(UsageError, match="did you mean"):
            run_experiment("verify", scenario="cas-consensuss")


class TestScenarioCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "cas-consensus" in out and "agp-opacity-3p" in out

    def test_scenarios_list_tag_filter(self, capsys):
        assert main(["scenarios", "list", "--tag", "violating"]) == 0
        out = capsys.readouterr().out
        assert "stubborn-consensus" in out and "cas-consensus  " not in out

    def test_scenarios_list_markdown(self, capsys):
        assert main(["scenarios", "list", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| id | object | property | tags | notes |")
        assert "| `cas-consensus` |" in out

    def test_scenarios_list_unknown_tag_is_usage_error(self, capsys):
        assert main(["scenarios", "list", "--tag", "no-such-tag"]) == 2

    def test_verify_expected_verdicts_exit_zero(self, capsys, tmp_path):
        out_path = str(tmp_path / "verdict.json")
        assert (
            main(
                [
                    "verify",
                    "cas-consensus",
                    "stubborn-consensus",
                    "--set",
                    "seed=7",
                    "--out",
                    out_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("-> expected") == 2 and "counterexample" in out
        documents = json.load(open(out_path))
        assert [d["scenario"] for d in documents] == [
            "cas-consensus",
            "stubborn-consensus",
        ]
        assert documents[1]["counterexample"]["schedule"]

    def test_verify_surprise_exits_one(self):
        # A tiny configuration budget cannot prove agp-opacity: the
        # budget-exhausted verdict is never the expected one.
        assert (
            main(
                [
                    "verify",
                    "agp-opacity",
                    "--backend",
                    "exhaustive",
                    "--set",
                    "max_configurations=20",
                ]
            )
            == 1
        )

    def test_verify_unknown_scenario_exits_two(self, capsys):
        assert main(["verify", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_verify_close_miss_suggests_on_stderr(self, capsys):
        assert main(["verify", "cas-consensu"]) == 2
        assert "did you mean 'cas-consensus'" in capsys.readouterr().err

    def test_auto_mode_drops_fuzz_knobs_for_exhaustive_scenarios(self, capsys):
        # Mixed-resolution list: cas-consensus -> exhaustive (knobs
        # dropped), agp-opacity-3p -> fuzz (knobs honoured).
        assert (
            main(
                [
                    "verify",
                    "cas-consensus",
                    "agp-opacity-3p",
                    "--set",
                    "iterations=100",
                    "--set",
                    "corpus_size=16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "100 interleavings sampled" in out

    def test_budget_exhausted_evidence_is_honest(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "agp-opacity",
                    "--backend",
                    "exhaustive",
                    "--set",
                    "max_configurations=5",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "search budget exceeded" in out
        assert "interleavings sampled" not in out

    def test_verify_unknown_override_exits_two(self, capsys):
        assert main(["verify", "cas-consensus", "--set", "bogus=1"]) == 2
        capsys.readouterr()
        assert main(["verify", "cas-consensus", "--set", "processes=2"]) == 2
        assert "processes" in capsys.readouterr().err

    def test_fuzz_cli_resolves_scenarios(self, capsys):
        assert main(["fuzz", "--list"]) == 0
        out = capsys.readouterr().out
        assert "trivial-opacity" in out and "agp-opacity" in out
        assert main(["fuzz", "no-such-workload"]) == 2

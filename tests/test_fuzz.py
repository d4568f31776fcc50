"""Tests for the randomized schedule/crash fuzzer (repro.fuzz)."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.experiments import run_experiment
from repro.core.events import Crash
from repro.fuzz import (
    FuzzDriver,
    ReplayTrace,
    ShrinkResult,
    differential_check,
    differential_sweep,
    fuzz_workload,
    load_trace,
    replay_schedule,
    save_trace,
    schedule_to_decisions,
)
from repro.mutate.mutants import MUTANTS
from repro.scenarios import get_scenario, iter_scenarios, verify
from repro.sim.drivers import CrashDecision, InvokeDecision, StepDecision
from repro.util.errors import UsageError

SAT = get_scenario("cas-consensus")
VIOL = get_scenario("stubborn-consensus")
TM = get_scenario("agp-opacity")


def _sampled(scenario, seed, iterations):
    """Run a checked fuzz driver; return (report, driver)."""
    driver = FuzzDriver(
        scenario.factory, scenario.plan, safety=scenario.safety_factory(),
        seed=seed,
    )
    return driver.run(iterations), driver


def _corpus_schedules(driver):
    return [entry.schedule for entry in driver._corpus]


class TestWorkloadRegistry:
    def test_registry_spans_expectations(self):
        expectations = {s.expect_violation for s in iter_scenarios()}
        assert expectations == {True, False}

    def test_unknown_workload_raises_usage_error(self):
        with pytest.raises(UsageError):
            get_scenario("no-such-workload")


class TestFuzzDriver:
    def test_satisfying_workload_finds_no_violation(self):
        report = fuzz_workload(SAT, seed=7, iterations=500)
        assert report.holds
        assert report.interleavings == 500
        # The sampling is not vacuous: exploration walks filled the
        # restart corpus and several distinct histories were judged.
        assert report.corpus > 0
        assert report.histories_checked > 1

    def test_violating_workload_found_and_genuine(self):
        report = fuzz_workload(VIOL, seed=7, iterations=500)
        assert not report.holds
        violation = report.violation
        # The violating history really fails the checker...
        assert not VIOL.safety_factory().check_history(violation.history).holds
        # ...and the schedule replays to the same verdict on a fresh
        # runtime, independent of the snapshot machinery.
        replay = replay_schedule(
            VIOL.factory, VIOL.plan, violation.schedule, VIOL.safety_factory()
        )
        assert replay.violates
        assert replay.history == violation.history

    def test_equal_seeds_reproduce_everything(self):
        a = fuzz_workload(VIOL, seed=42, iterations=300)
        b = fuzz_workload(VIOL, seed=42, iterations=300)
        assert a.violation.schedule == b.violation.schedule
        assert a.violation.iteration == b.violation.iteration
        c, c_driver = _sampled(SAT, seed=42, iterations=300)
        d, d_driver = _sampled(SAT, seed=42, iterations=300)
        assert (c.corpus, c.histories_checked) == (
            d.corpus,
            d.histories_checked,
        )
        assert _corpus_schedules(c_driver) == _corpus_schedules(d_driver)
        assert c_driver._checked == d_driver._checked

    def test_different_seeds_diverge(self):
        a, a_driver = _sampled(SAT, seed=1, iterations=200)
        b, b_driver = _sampled(SAT, seed=2, iterations=200)
        # Sampling trajectories are seed-dependent (equality would mean
        # the seed is ignored somewhere).
        assert (a.corpus, a.histories_checked) != (b.corpus, b.histories_checked)
        assert _corpus_schedules(a_driver) != _corpus_schedules(b_driver)

    @pytest.mark.parametrize(
        "mutant",
        [m for m in MUTANTS if "fuzz" in m.expected_killers],
        ids=lambda m: m.mutant_id,
    )
    def test_fuzz_killed_mutants_die_on_every_seed(self, mutant):
        """Detection, not just sampling: every mutant the fuzz backend
        is expected to kill is killed on each of seeds 0-19 under the
        scenario's default bounds."""
        scenario = mutant.scenario_factory()
        survivors = [
            seed
            for seed in range(20)
            if not verify(scenario, backend="fuzz", seed=seed, shrink=False).violated
        ]
        assert survivors == []

    def test_explicit_crash_spec_injects_crashes(self):
        driver = FuzzDriver(
            TM.factory,
            TM.plan,
            safety=TM.safety_factory(),
            seed=3,
            crash="p0@5",
            explore_every=1,  # every walk uses the crash plan
        )
        report = driver.run(50)
        assert report.holds  # AGP stays opaque under crashes
        # The sampled space genuinely contains crash events.
        crashed = any(
            isinstance(event, Crash) for key in driver._checked for event in key
        )
        assert crashed

    def test_walks_respect_depth_bound(self):
        driver = FuzzDriver(
            VIOL.factory, VIOL.plan, safety=VIOL.safety_factory(),
            seed=0, max_depth=3,
        )
        report = driver.run(100)
        # Depth 3 cannot complete both proposals, so no violation fits.
        assert report.holds

    def test_throughput_mode_skips_checking(self):
        driver = FuzzDriver(VIOL.factory, VIOL.plan, safety=None, seed=0)
        report = driver.run(200)
        assert report.holds and report.histories_checked == 0


class TestTraces:
    def test_schedule_to_decisions_tracks_invocation_cursor(self):
        decisions = schedule_to_decisions(
            SAT.plan, [("invoke", 0), ("step", 0), ("invoke", 1), ("crash", 1)]
        )
        assert decisions == [
            InvokeDecision(0, "propose", (0,)),
            StepDecision(0),
            InvokeDecision(1, "propose", (1,)),
            CrashDecision(1),
        ]

    def test_over_invoking_is_invalid_not_fatal(self):
        result = replay_schedule(
            SAT.factory, SAT.plan, [("invoke", 0), ("invoke", 0)]
        )
        assert not result.valid

    def test_trace_round_trip(self, tmp_path):
        trace = ReplayTrace(
            plan=TM.plan,
            schedule=(("invoke", 0), ("step", 0)),
            workload=TM.name,
            implementation="agp-tm",
            safety="opacity",
            holds=False,
            reason="because",
            seed=9,
        )
        path = str(tmp_path / "trace.json")
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.plan == TM.plan  # args re-tupled exactly
        assert loaded.schedule == trace.schedule
        assert loaded.workload == TM.name
        assert loaded.holds is False
        assert loaded.seed == 9

    def test_bad_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(UsageError):
            load_trace(str(path))


class TestDifferentialOracle:
    def test_agreement_on_satisfying_violating_and_tm_instances(self):
        """The acceptance-criterion instances: >= 3 small instances
        including one violating and one satisfying case."""
        for name in ("cas-consensus", "stubborn-consensus", "agp-opacity"):
            oracle = differential_check(name, seed=2025, iterations=1500)
            assert oracle.agree, (
                f"{name}: exhaustive={oracle.exhaustive_holds} "
                f"fuzz={oracle.fuzz_holds}"
            )

    def test_verdicts_not_vacuous(self):
        satisfying = differential_check("cas-consensus", seed=1, iterations=500)
        assert satisfying.exhaustive_holds and satisfying.fuzz_holds
        violating = differential_check(
            "stubborn-consensus", seed=1, iterations=500
        )
        assert not violating.exhaustive_holds and not violating.fuzz_holds
        assert violating.counterexample_replays is True

    def test_sweep_covers_every_small_workload(self):
        results = differential_sweep(seed=11, iterations=800)
        assert len(results) >= 3
        assert all(result.agree for result in results)

    def test_large_workload_rejected(self):
        with pytest.raises(UsageError):
            differential_check("agp-opacity-deep")


class TestFuzzExperiment:
    def test_fuzz_mode_all_ok_on_satisfying_workload(self):
        result = run_experiment(
            "fuzz", workload="cas-consensus", iterations=400
        )
        assert result.all_ok
        assert result.artifacts["corpus"] > 0
        assert result.artifacts["histories_checked"] > 1

    def test_fuzz_mode_shrinks_planted_violation(self):
        result = run_experiment(
            "fuzz", workload="stubborn-consensus", seed=5, iterations=400
        )
        assert result.all_ok  # violation expected, shrunk, replayed
        trace = ReplayTrace.from_document(result.artifacts["shrunk_trace"])
        replay = replay_schedule(
            VIOL.factory, trace.plan, trace.schedule, VIOL.safety_factory()
        )
        assert replay.violates

    def test_oracle_mode(self):
        result = run_experiment(
            "fuzz", workload="agp-opacity", mode="oracle", iterations=800
        )
        assert result.all_ok
        assert result.artifacts["exhaustive_runs"] == 1500

    def test_bad_mode_rejected(self):
        with pytest.raises(UsageError):
            run_experiment("fuzz", mode="enumerate")


class TestCampaignIntegration:
    def test_mode_fuzz_axis_runs_through_the_store(self, tmp_path):
        """A `mode: fuzz` cell is a first-class campaign job: stored,
        executed, resumable, exported."""
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            export_campaign,
            run_campaign,
        )

        store_path = str(tmp_path / "fuzz.db")
        spec = CampaignSpec.from_cli(
            ["fuzz"],
            [
                "workload=cas-consensus,stubborn-consensus",
                "mode=fuzz,oracle",
                "seed=0",
                "iterations=300",
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
        assert len(jobs) == 4  # 2 workloads x 2 modes
        assert {job["params"]["mode"] for job in jobs} == {"fuzz", "oracle"}
        shrunk = [
            job
            for job in jobs
            if job["params"]
            == {
                "mode": "fuzz",
                "seed": 0,
                "workload": "stubborn-consensus",
                "iterations": 300,
            }
        ]
        # The shrunk counterexample trace is persisted in the payload.
        assert shrunk[0]["result"]["artifacts"]["shrunk_trace"]["schedule"]


class TestFuzzCli:
    def test_list_workloads(self, capsys):
        assert main(["fuzz", "--list"]) == 0
        out = capsys.readouterr().out
        assert "agp-opacity" in out and "stubborn-consensus" in out

    def test_expected_verdicts_exit_zero(self, capsys):
        assert (
            main(
                [
                    "fuzz",
                    "cas-consensus",
                    "stubborn-consensus",
                    "--seed",
                    "3",
                    "--iterations",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "expected" in out and "shrunk" in out

    def test_oracle_flag(self, capsys):
        assert (
            main(
                ["fuzz", "cas-consensus", "--oracle", "--iterations", "300"]
            )
            == 0
        )
        assert "AGREE" in capsys.readouterr().out

    def test_artifact_written_and_replayable(self, tmp_path, capsys):
        artifact_dir = str(tmp_path / "artifacts")
        assert (
            main(
                [
                    "fuzz",
                    "stubborn-consensus",
                    "--seed",
                    "3",
                    "--iterations",
                    "300",
                    "--artifact-dir",
                    artifact_dir,
                ]
            )
            == 0
        )
        path = str(tmp_path / "artifacts" / "fuzz-stubborn-consensus-seed3.json")
        assert load_trace(path).holds is False
        capsys.readouterr()
        assert main(["fuzz", "--replay", path]) == 0
        assert "violated" in capsys.readouterr().out

    def test_shrunk_trace_that_does_not_reviolate_is_not_written(
        self, tmp_path, monkeypatch, capsys
    ):
        """The CLI re-executes the shrunk schedule from scratch before
        saving it: a schedule that no longer violates is a surprise."""
        import repro.fuzz

        def broken_shrink(factory, plan, schedule, safety):
            return ShrinkResult(
                schedule=tuple(schedule[:1]),
                original_length=len(schedule),
                candidates_tried=1,
                replays=1,
            )

        monkeypatch.setattr(repro.fuzz, "shrink_schedule", broken_shrink)
        artifact_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "fuzz",
                    "stubborn-consensus",
                    "--seed",
                    "3",
                    "--iterations",
                    "300",
                    "--artifact-dir",
                    str(artifact_dir),
                ]
            )
            == 1
        )
        assert "does not re-violate" in capsys.readouterr().out
        assert not artifact_dir.exists()

    def test_unknown_workload_is_usage_error(self):
        assert main(["fuzz", "nope"]) == 2

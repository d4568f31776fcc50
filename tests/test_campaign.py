"""Tests for the campaign subsystem: spec expansion and fingerprints,
the SQLite run store lifecycle, resumability (kill → reopen → complete
only the rest, byte-identical export), and the CLI exit codes."""

from __future__ import annotations

import json
import os
import socket
import sqlite3

import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    export_campaign,
    run_campaign,
    store_all_ok,
)
from repro.campaign import store as store_module
from repro.campaign.spec import Job, job_fingerprint, parse_axis_values
from repro.util.errors import StoreError, UsageError

#: Cheap pure-set-model experiments for store/runner tests.
FAST = ["thm44", "thm49"]


def make_store(path, experiments=FAST, axes=()) -> CampaignStore:
    spec = CampaignSpec.from_cli(experiments, list(axes))
    store = CampaignStore.create(str(path), spec)
    store.add_jobs(spec.expand())
    return store


class TestAxisParsing:
    def test_range(self):
        assert parse_axis_values("2..4") == [2, 3, 4]

    def test_empty_range_rejected(self):
        with pytest.raises(UsageError):
            parse_axis_values("4..2")

    def test_comma_list_coerces_scalars(self):
        assert parse_axis_values("none,p0@40") == ["none", "p0@40"]
        assert parse_axis_values("1,2.5,true,x") == [1, 2.5, True, "x"]

    def test_json_array_verbatim(self):
        assert parse_axis_values('["solo,lockstep"]') == ["solo,lockstep"]

    def test_single_scalar(self):
        assert parse_axis_values("7") == [7]


class TestFingerprints:
    def test_insertion_order_independent(self):
        a = job_fingerprint("fig1a", {"n": 2, "seed": 0})
        b = job_fingerprint("fig1a", {"seed": 0, "n": 2})
        assert a == b and len(a) == 64

    def test_distinct_params_and_experiments(self):
        base = job_fingerprint("fig1a", {"n": 2})
        assert job_fingerprint("fig1a", {"n": 3}) != base
        assert job_fingerprint("fig1b", {"n": 2}) != base


class TestSpecExpansion:
    def test_cross_product_with_unsupported_axes_dropped(self):
        spec = CampaignSpec.from_cli(["fig1a", "thm44"], ["n=2..3", "seed=0,1"])
        jobs = spec.expand()
        fig1a = [j for j in jobs if j.experiment_id == "fig1a"]
        thm44 = [j for j in jobs if j.experiment_id == "thm44"]
        assert len(fig1a) == 4  # n × seed
        assert [j.params for j in thm44] == [{}]  # both axes dropped

    def test_unknown_experiment_rejected(self):
        with pytest.raises(UsageError):
            CampaignSpec.from_cli(["fig9z"], [])

    def test_axis_unsupported_everywhere_rejected(self):
        with pytest.raises(UsageError):
            CampaignSpec.from_cli(["thm44"], ["n=2..3"])

    def test_json_round_trip(self):
        spec = CampaignSpec.from_cli(["fig1a"], ["n=2..3"])
        assert CampaignSpec.from_json(spec.to_json()).expand() == spec.expand()

    def test_merged_unions_experiments_and_axis_values(self):
        a = CampaignSpec.from_cli(["fig1a"], ["n=2..3"])
        b = CampaignSpec.from_cli(["fig1b"], ["n=3..4", "seed=0"])
        merged = a.merged(b)
        assert merged.experiments == ["fig1a", "fig1b"]
        assert merged.axes == {"n": [2, 3, 4], "seed": [0]}

    def test_default_is_every_experiment(self):
        spec = CampaignSpec.from_cli([], [])
        assert len(spec.expand()) == 14  # every registered experiment, mutation included


class TestStore:
    def test_add_jobs_deduplicates_by_fingerprint(self, tmp_path):
        with make_store(tmp_path / "c.db") as store:
            spec = store.spec()
            assert store.add_jobs(spec.expand()) == 0
            assert store.counts()["pending"] == 2

    def test_claim_lifecycle(self, tmp_path):
        with make_store(tmp_path / "c.db") as store:
            record = store.claim("w1")
            assert record.status == "claimed"
            assert record.worker == "w1"
            assert record.attempts == 1
            store.complete(record.fingerprint, {"all_ok": True}, 0.5)
            done = store.job(record.fingerprint)
            assert done.status == "done"
            assert done.result == {"all_ok": True}
            assert done.elapsed == 0.5

    def test_claim_order_deterministic_and_exhaustible(self, tmp_path):
        with make_store(tmp_path / "c.db") as store:
            first, second = store.claim("w"), store.claim("w")
            assert (first.experiment, second.experiment) == ("thm44", "thm49")
            assert store.claim("w") is None

    def test_two_connections_claim_distinct_jobs(self, tmp_path):
        path = tmp_path / "c.db"
        make_store(path).close()
        with CampaignStore.open(str(path)) as one, CampaignStore.open(
            str(path)
        ) as two:
            a, b = one.claim("w1"), two.claim("w2")
            assert a.fingerprint != b.fingerprint

    def test_fail_and_reset(self, tmp_path):
        with make_store(tmp_path / "c.db") as store:
            record = store.claim("w")
            store.fail(record.fingerprint, "boom", 0.1)
            failed = store.job(record.fingerprint)
            assert failed.status == "failed" and failed.error == "boom"
            assert store.reset(["failed"]) == 1
            again = store.job(record.fingerprint)
            assert again.status == "pending" and again.error is None

    def test_reclaim_dead_local_worker_only(self, tmp_path):
        with make_store(tmp_path / "c.db") as store:
            dead = store.claim(f"{socket.gethostname()}:999999999")
            foreign = store.claim("elsewhere:1")
            assert store.reclaim_dead() == 1
            assert store.job(dead.fingerprint).status == "pending"
            assert store.job(foreign.fingerprint).status == "claimed"

    def test_reclaim_skips_job_reclaimed_and_reclaimed_by_live_worker(
        self, tmp_path, monkeypatch
    ):
        # Race guard: between reclaim_dead's snapshot and its write,
        # another invocation may reclaim the job and a live worker may
        # re-claim it; the stale snapshot must not reset the live claim.
        import repro.campaign.store as store_module

        with make_store(tmp_path / "c.db") as store:
            dead_worker = f"{socket.gethostname()}:999999999"
            record = store.claim(dead_worker)

            original = store_module._pid_alive

            def steal_then_check(pid):
                # simulate the concurrent reclaim + live re-claim
                store.reset(["claimed"])
                assert store.claim(f"{socket.gethostname()}:{os.getpid()}")
                return original(pid)

            monkeypatch.setattr(store_module, "_pid_alive", steal_then_check)
            assert store.reclaim_dead() == 0
            assert store.job(record.fingerprint).status == "claimed"

    def test_additive_init_merges_stored_spec(self, tmp_path):
        path = str(tmp_path / "c.db")
        CampaignStore.create(path, CampaignSpec.from_cli(["fig1a"], ["n=2"])).close()
        CampaignStore.create(path, CampaignSpec.from_cli(["fig1b"], ["n=3"])).close()
        with CampaignStore.open(path) as store:
            spec = store.spec()
            assert spec.experiments == ["fig1a", "fig1b"]
            assert spec.axes == {"n": [2, 3]}

    def test_reclaim_dead_pool_worker_with_slot_suffix(self, tmp_path):
        # The worker pool claims as host:pid#slot; a killed pool worker
        # must be reclaimed too.
        with make_store(tmp_path / "c.db") as store:
            dead = store.claim(f"{socket.gethostname()}:999999999#0")
            assert store.reclaim_dead() == 1
            assert store.job(dead.fingerprint).status == "pending"

    def test_open_missing_store_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            CampaignStore.open(str(tmp_path / "nope.db"))

    def test_open_non_database_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.db"
        bogus.write_text("this is not a sqlite database at all........")
        with pytest.raises(UsageError):
            CampaignStore.open(str(bogus))

    def test_locked_open_is_a_store_error(self, tmp_path, monkeypatch):
        # A lock held past the busy timeout is a fault of the moment,
        # not evidence that the file is not a store.
        path = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT", 0.2)
        holder = sqlite3.connect(path)
        try:
            holder.execute("BEGIN IMMEDIATE")
            with pytest.raises(StoreError, match="locked") as caught:
                CampaignStore.create(path, CampaignSpec.from_cli(FAST, []))
        finally:
            holder.close()
        assert path in str(caught.value)

    def test_open_wrong_schema_version_rejected(self, tmp_path):
        path = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        with CampaignStore.open(path) as store:
            store.set_meta("schema_version", "999")
        with pytest.raises(UsageError, match="schema version"):
            CampaignStore.open(path)

    def test_rejected_store_is_not_migrated(self, tmp_path):
        # A store of an unknown schema version is rejected before the
        # additive column migration could alter it.
        path = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("ALTER TABLE jobs DROP COLUMN metrics")
            connection.execute(
                "UPDATE meta SET value = '9' WHERE key = 'schema_version'"
            )
        columns = connection.execute("PRAGMA table_info(jobs)").fetchall()
        connection.close()
        with pytest.raises(UsageError, match="schema version"):
            CampaignStore.open(path)
        connection = sqlite3.connect(path)
        try:
            assert connection.execute("PRAGMA table_info(jobs)").fetchall() == columns
        finally:
            connection.close()

    def test_seed_axis_without_random_family_rejected(self):
        from repro.analysis.experiments import run_fig1a

        with pytest.raises(UsageError, match="random"):
            run_fig1a(n=2, scheduler="solo,lockstep", seed=3)


class TestDefaultParallelism:
    def test_unset_means_serial(self, monkeypatch):
        from repro.campaign.runner import default_parallelism

        monkeypatch.delenv("REPRO_ENGINE_PARALLEL", raising=False)
        assert default_parallelism() == 0

    def test_negative_clamps_to_zero(self, monkeypatch):
        from repro.campaign.runner import default_parallelism

        monkeypatch.setenv("REPRO_ENGINE_PARALLEL", "-3")
        assert default_parallelism() == 0

    def test_non_integer_is_usage_error_naming_the_variable(self, monkeypatch):
        from repro.campaign.runner import default_parallelism

        monkeypatch.setenv("REPRO_ENGINE_PARALLEL", "banana")
        with pytest.raises(UsageError, match="REPRO_ENGINE_PARALLEL"):
            default_parallelism()

    def test_valid_value_passes_through(self, monkeypatch):
        from repro.campaign.runner import default_parallelism

        monkeypatch.setenv("REPRO_ENGINE_PARALLEL", " 4 ")
        assert default_parallelism() == 4


class TestRunnerResumability:
    def test_interrupted_run_resumes_and_exports_identically(self, tmp_path):
        axes = ["n=2,3"]
        experiments = ["fig1a"] + FAST
        a, b = str(tmp_path / "a.db"), str(tmp_path / "b.db")
        make_store(tmp_path / "a.db", experiments, axes).close()
        make_store(tmp_path / "b.db", experiments, axes).close()

        # A: uninterrupted.
        assert run_campaign(a, workers=0)["pending"] == 0

        # B: two jobs, then a simulated kill -9 — a claim held by a
        # worker pid that no longer exists, dropped without completing.
        assert run_campaign(b, workers=0, max_jobs=2)["executed"] == 2
        store = CampaignStore.open(b)
        claimed = store.claim(f"{socket.gethostname()}:999999999")
        store.close()

        # Reopen and resume: only the remaining jobs run.
        summary = run_campaign(b, workers=0)
        assert summary["reclaimed"] == 1
        assert summary["executed"] == 2  # 4 jobs total, 2 already done
        assert summary["pending"] == 0
        with CampaignStore.open(b) as store:
            assert store.job(claimed.fingerprint).status == "done"
            export_b = export_campaign(store)
        with CampaignStore.open(a) as store:
            export_a = export_campaign(store)
        assert export_a == export_b

    def test_second_run_executes_zero_jobs(self, tmp_path):
        path = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        assert run_campaign(path, workers=0)["executed"] == 2
        assert run_campaign(path, workers=0)["executed"] == 0

    def test_job_error_is_recorded_not_raised(self, tmp_path):
        # lem54 requires n >= 3; at n=2 the job fails with a logged error.
        make_store(tmp_path / "c.db", ["lem54"], ["n=2"]).close()
        summary = run_campaign(str(tmp_path / "c.db"), workers=0)
        assert summary["failed"] == 1
        with CampaignStore.open(str(tmp_path / "c.db")) as store:
            (record,) = store.jobs("failed")
            assert "n >= 3" in record.error
            assert not store_all_ok(store)

    def test_fork_worker_pool_drains_store(self, tmp_path):
        path = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        summary = run_campaign(path, workers=2)
        assert summary["pending"] == 0 and summary["done"] == 2


class TestCampaignCli:
    def run_cli(self, *args):
        return main(["campaign", *args])

    def test_full_cycle_exit_codes(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert self.run_cli("init", "--store", store, "--grid", "thm44") == 0
        assert self.run_cli("status", "--store", store) == 1  # pending left
        assert self.run_cli("run", "--store", store) == 0
        assert self.run_cli("status", "--store", store) == 0
        out = capsys.readouterr().out
        assert "all done" in out
        assert self.run_cli("export", "--store", store) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["all_ok"] is True

    def test_pool_run_merges_the_serial_metrics(self, tmp_path):
        # Fork workers must record per-job metrics like a serial run:
        # the merged document sources every job row, and its counters
        # (work counts, no timings) are the serial run's.
        documents = {}
        for workers in ("0", "2"):
            store = str(tmp_path / f"c{workers}.db")
            out = str(tmp_path / f"m{workers}.json")
            assert self.run_cli(
                "init", "--store", store, "--grid", "fig1a", "n=2..3"
            ) == 0
            assert self.run_cli(
                "run", "--store", store, "--workers", workers,
                "--metrics-out", out,
            ) == 0
            with open(out) as handle:
                documents[workers] = json.load(handle)
        serial, pool = documents["0"], documents["2"]
        assert pool["meta"]["merged_from"] == serial["meta"]["merged_from"] == 2
        assert pool["counters"]["campaign/jobs"] == 2
        assert pool["counters"] == serial["counters"]

    def test_init_unknown_experiment_is_usage_error(self, tmp_path):
        assert self.run_cli(
            "init", "--store", str(tmp_path / "c.db"), "--grid", "fig9z"
        ) == 2

    def test_init_bad_axis_is_usage_error(self, tmp_path):
        assert self.run_cli(
            "init", "--store", str(tmp_path / "c.db"), "--grid", "thm44", "n=2"
        ) == 2

    def test_status_missing_store_is_usage_error(self, tmp_path):
        assert self.run_cli("status", "--store", str(tmp_path / "nope.db")) == 2

    def test_corrupt_result_row_is_a_diagnosed_exit(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert self.run_cli("init", "--store", store, "--grid", "thm44") == 0
        assert self.run_cli("run", "--store", store) == 0
        connection = sqlite3.connect(store)
        with connection:
            (fingerprint,) = connection.execute(
                "SELECT fingerprint FROM jobs WHERE result IS NOT NULL"
            ).fetchone()
            connection.execute(
                "UPDATE jobs SET result = substr(result, 1, 20) "
                "WHERE fingerprint = ?", (fingerprint,),
            )
        connection.close()
        capsys.readouterr()
        assert self.run_cli("export", "--store", store) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert store in err and fingerprint in err

    def test_locked_store_is_a_diagnosed_exit(
        self, tmp_path, capsys, monkeypatch
    ):
        store = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT", 0.2)
        holder = sqlite3.connect(store)
        try:
            holder.execute("BEGIN IMMEDIATE")
            capsys.readouterr()
            assert self.run_cli("run", "--store", store, "--workers", "1") == 1
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert store in err and "locked" in err
        with CampaignStore.open(store) as reopened:
            assert reopened.counts()["pending"] == len(reopened.jobs())

    def test_locked_init_is_a_diagnosed_exit(
        self, tmp_path, capsys, monkeypatch
    ):
        store = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT", 0.2)
        holder = sqlite3.connect(store)
        try:
            holder.execute("BEGIN IMMEDIATE")
            capsys.readouterr()
            assert self.run_cli("init", "--store", store, "--grid", "thm44") == 1
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert store in err and "locked" in err
        assert "not a campaign store" not in err

    def test_run_with_unreclaimable_claim_is_not_success(self, tmp_path):
        # A claim held by a foreign (unprobeable) worker means the
        # campaign is incomplete: run must not report exit 0.
        store_path = str(tmp_path / "c.db")
        make_store(tmp_path / "c.db").close()
        with CampaignStore.open(store_path) as store:
            store.claim("elsewhere:1")
        assert self.run_cli("run", "--store", store_path) == 1
        with CampaignStore.open(store_path) as store:
            assert store.counts()["claimed"] == 1

    def test_run_reports_mismatch(self, tmp_path, capsys):
        # The silent implementation alone cannot witness (1,1), so the
        # fig1a white-points claim mismatches: exit 1, recorded as data.
        store = str(tmp_path / "c.db")
        assert self.run_cli(
            "init", "--store", store, "--grid", "fig1a",
            "n=2", "registry=silent", "max_steps=60",
        ) == 0
        assert self.run_cli("run", "--store", store) == 1
        capsys.readouterr()
        assert self.run_cli("export", "--store", store) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["all_ok"] is False
        assert document["summary"]["done"] == 1

    def test_reset_failed_returns_jobs_to_pending(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert self.run_cli(
            "init", "--store", store, "--grid", "lem54", "n=2"
        ) == 0
        assert self.run_cli("run", "--store", store) == 1
        assert self.run_cli("reset", "--store", store) == 0
        capsys.readouterr()
        assert self.run_cli("status", "--store", store) == 1
        assert "pending" in capsys.readouterr().out
        with CampaignStore.open(store) as opened:
            assert opened.counts()["pending"] == 1

    def test_export_to_file_and_render(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        out = str(tmp_path / "campaign.json")
        assert self.run_cli(
            "init", "--store", store, "--grid", "fig1a", "n=2"
        ) == 0
        assert self.run_cli("run", "--store", store) == 0
        assert self.run_cli(
            "export", "--store", store, "--out", out, "--render"
        ) == 0
        rendered = capsys.readouterr().out
        assert "(l,k)-freedom vs agreement-validity" in rendered
        document = json.loads(open(out).read())
        (job,) = document["jobs"]
        assert job["experiment"] == "fig1a"
        assert job["result"]["grid"]["points"]

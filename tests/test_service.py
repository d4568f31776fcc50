"""Tests for the service layer: verdict cache, verify() memoization,
the HTTP application, and the asyncio server.

The load-bearing contract everywhere is byte-identity: a cache hit is
exactly the document the cold run produced — same canonical JSON, same
round-tripped :class:`Verdict` — and ``verify(cache="off")`` is exactly
the pre-cache facade.
"""

import asyncio
import json
import logging
import os
import pathlib
import re
import signal
import socket
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.obs.recorder import Recorder, Span, recording
from repro.scenarios import get_scenario, verify
from repro.service import (
    CorruptCacheEntry,
    VerdictCache,
    artifact_hash,
    cache_key,
    check_cache_mode,
    code_version,
    default_cache_path,
)
from repro.service import cache as cache_module
from repro.service import server as server_module
from repro.service.app import ServiceApp
from repro.service.server import READ_BUFFER_BYTES, start_service
from repro.util.errors import StoreError, UsageError
from repro.util.hashing import canonical_json

#: Exhaustible in a few milliseconds — cheap enough to run cold in
#: every test that needs a real verdict.
FAST = "consensus-grid:impl=cas,n=2,proposals=alt"
#: Fast *violating* scenario: its verdict embeds a counterexample
#: artifact, exercising the content-addressed artifact table.
VIOLATING = "inventing-consensus"
#: Ways a stored verdict row can go bad (see ``_damaged``).
DAMAGE = ("truncate", "flip", "undecodable")


@pytest.fixture(autouse=True)
def _clean_cache_env(monkeypatch):
    """Isolate every test from ambient cache configuration."""
    for name in ("REPRO_VERIFY_CACHE", "REPRO_CACHE_DB", "REPRO_CACHE_EPOCH"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "verdicts.db")


class TestCacheModeAndPath:
    def test_modes(self):
        for mode in ("off", "read", "readwrite"):
            assert check_cache_mode(mode) == mode
        with pytest.raises(UsageError):
            check_cache_mode("write")

    def test_default_path_resolution(self, monkeypatch):
        assert default_cache_path("x.db") == "x.db"
        assert default_cache_path(None) == "verdicts.db"
        monkeypatch.setenv("REPRO_CACHE_DB", "/tmp/env.db")
        assert default_cache_path(None) == "/tmp/env.db"
        assert default_cache_path("x.db") == "x.db"


class TestVerdictCache:
    def test_put_get_round_trip(self, db):
        document = {"scenario": "s", "backend": "fuzz", "outcome": "holds"}
        with VerdictCache.open(db) as cache:
            assert cache.get("k") is None
            cache.put("k", document)
            assert json.loads(cache.get("k")) == document
        # Durable across connections.
        with VerdictCache.open(db) as cache:
            assert json.loads(cache.get("k")) == document

    def test_artifacts_content_addressed(self, db):
        witness = {"schema": "repro-replay", "events": [[0, "propose", [1]]]}
        document = {
            "scenario": "s",
            "backend": "exhaustive",
            "outcome": "violated",
            "counterexample": witness,
        }
        with VerdictCache.open(db) as cache:
            cache.put("k", document)
            digest = artifact_hash(witness)
            assert cache.artifact(digest) == witness
            assert cache.artifact_hashes("k") == [digest]
            assert cache.artifact("0" * 64) is None
            assert cache.stats()["artifacts"] == 1

    def test_put_is_idempotent(self, db):
        document = {"scenario": "s", "backend": "fuzz", "outcome": "holds"}
        with VerdictCache.open(db) as cache:
            cache.put("k", document)
            cache.put("k", document)
            assert cache.stats()["verdicts"] == 1

    def test_obs_counters(self, db):
        with VerdictCache.open(db) as cache:
            with recording(Recorder()) as recorder:
                cache.get("missing")
                cache.put("k", {"scenario": "s", "backend": "fuzz"})
                cache.get("k")
            assert recorder.counters["cache/miss"] == 1
            assert recorder.counters["cache/store"] == 1
            assert recorder.counters["cache/hit"] == 1

    def test_gc_evicts_stale_code(self, db):
        with VerdictCache.open(db) as cache:
            cache.put("old", {"scenario": "s", "backend": "fuzz"}, code="0.9")
            cache.put("new", {"scenario": "s", "backend": "fuzz"})
            assert cache.gc() == 1
            assert cache.get("old") is None
            assert cache.get("new") is not None

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_gc_evicts_corrupt_verdict(self, db, damage):
        witness = {"events": [[0, "w", [1]]]}
        with VerdictCache.open(db) as cache:
            cache.put("k", {"scenario": "s", "runs": 12, "counterexample": witness})
            cache.put("other", {"scenario": "s", "backend": "fuzz"})
        _damage_verdict(db, "k", damage)
        with VerdictCache.open(db) as cache:
            assert cache.artifact_hashes("k") == []
            assert cache.gc() == 1
            assert cache.stats()["verdicts"] == 1
            assert cache.artifact(artifact_hash(witness)) is None
            assert cache.get("other") is not None

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_cli_gc_evicts_corrupt_verdict(self, db, damage, capsys):
        from repro.__main__ import main

        with VerdictCache.open(db) as cache:
            cache.put("k", {"scenario": "s", "backend": "fuzz", "runs": 12})
        _damage_verdict(db, "k", damage)
        assert main(["cache", "gc", "--cache-db", db]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-db", db]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == 0

    def test_gc_drops_unreferenced_artifacts(self, db):
        witness = {"events": [[0, "w", [1]]]}
        stale = {
            "scenario": "s",
            "backend": "exhaustive",
            "counterexample": witness,
        }
        with VerdictCache.open(db) as cache:
            cache.put("old", stale, code="0.9")
            cache.gc()
            assert cache.artifact(artifact_hash(witness)) is None

    def test_not_a_cache_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.db"
        bogus.write_text("not sqlite at all, definitely")
        with pytest.raises(UsageError):
            VerdictCache.open(str(bogus))

    def test_hit_counts_land_on_close(self, db):
        with VerdictCache.open(db) as cache:
            cache.put("k", {"scenario": "s", "backend": "fuzz"})
            for _ in range(3):
                cache.get("k")
            # Reads do not write: another connection sees no hits yet.
            with VerdictCache.open(db) as other:
                assert other.stats()["hits"] == 0
            assert cache.stats()["hits"] == 3  # stats() flushes its own
            cache.get("k")
        with VerdictCache.open(db) as cache:
            assert cache.stats()["hits"] == 4

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_corrupt_verdict_is_a_counted_miss(self, db, damage):
        with VerdictCache.open(db) as cache:
            cache.put("k", {"scenario": "s", "backend": "fuzz", "runs": 12})
        _damage_verdict(db, "k", damage)
        with VerdictCache.open(db) as cache:
            with recording(Recorder()) as recorder:
                assert cache.get("k") is None
            assert recorder.counters["cache/corrupt"] == 1
            assert recorder.counters["cache/miss"] == 1
            assert "cache/hit" not in recorder.counters

    def test_corrupt_artifact_is_never_returned(self, db):
        witness = {"schema": "repro-replay", "events": [[0, "propose", [1]]]}
        with VerdictCache.open(db) as cache:
            cache.put("k", {"scenario": "s", "backend": "fuzz", "counterexample": witness})
        digest = artifact_hash(witness)
        _damage_artifact(db, digest)
        with VerdictCache.open(db) as cache:
            with recording(Recorder()) as recorder:
                with pytest.raises(CorruptCacheEntry, match=digest):
                    cache.artifact(digest)
            assert recorder.counters["cache/corrupt"] == 1

    def test_schema_1_file_migrates(self, db):
        _schema_1_file(db, "k", {"scenario": "s", "backend": "fuzz"})
        with VerdictCache.open(db) as cache:
            with recording(Recorder()) as recorder:
                # A row without a digest is a plain miss, not corruption.
                assert cache.get("k") is None
            assert recorder.counters["cache/miss"] == 1
            assert "cache/corrupt" not in recorder.counters
            cache.put("k", {"scenario": "s", "backend": "fuzz"})
            assert json.loads(cache.get("k")) == {"scenario": "s", "backend": "fuzz"}
        connection = sqlite3.connect(db)
        try:
            assert connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone() == ("2",)
        finally:
            connection.close()

    def test_non_database_file_rejected(self, db):
        pathlib.Path(db).write_text("this is not a sqlite database at all....")
        with pytest.raises(UsageError, match="not a verdict cache"):
            VerdictCache.open(db)

    def test_locked_open_is_a_store_error(self, db, monkeypatch):
        # A lock held past the busy timeout is a fault of the moment,
        # not evidence that the file is not a verdict cache.
        VerdictCache.open(db).close()
        monkeypatch.setattr(cache_module, "BUSY_TIMEOUT", 0.2)
        holder = sqlite3.connect(db)
        try:
            holder.execute("BEGIN IMMEDIATE")
            with pytest.raises(StoreError, match="locked") as caught:
                VerdictCache.open(db)
        finally:
            holder.close()
        assert db in str(caught.value)

    def test_unknown_schema_rejected(self, db):
        VerdictCache.open(db).close()
        connection = sqlite3.connect(db)
        with connection:
            connection.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
        connection.close()
        with pytest.raises(UsageError, match="schema version"):
            VerdictCache.open(db)


#: The verdict cache's schema 1, as the first service release wrote it.
_SCHEMA_1 = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE verdicts (
    key        TEXT PRIMARY KEY,
    scenario   TEXT NOT NULL,
    backend    TEXT NOT NULL,
    code       TEXT NOT NULL,
    document   TEXT NOT NULL,
    created_at REAL NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX verdicts_code ON verdicts(code);
CREATE INDEX verdicts_scenario ON verdicts(scenario, backend);
CREATE TABLE artifacts (
    hash     TEXT PRIMARY KEY,
    kind     TEXT NOT NULL,
    document TEXT NOT NULL
);
INSERT INTO meta (key, value) VALUES ('schema_version', '1');
"""


def _schema_1_file(db, key, document):
    """A schema-1 cache file holding ``document`` under ``key``."""
    connection = sqlite3.connect(db)
    try:
        connection.executescript(_SCHEMA_1)
        with connection:
            connection.execute(
                "INSERT INTO verdicts "
                "(key, scenario, backend, code, document, created_at) "
                "VALUES (?, ?, ?, ?, ?, 0)",
                (key, document["scenario"], document["backend"],
                 code_version(), canonical_json(document)),
            )
    finally:
        connection.close()


def _damaged(text, damage):
    """``text`` truncated, with one digit flipped (still valid JSON), or
    as bytes that are not valid UTF-8 (stored as TEXT by the caller)."""
    if damage == "truncate":
        return text[: len(text) // 2]
    if damage == "undecodable":
        return text.encode("utf-8")[:-1] + b"\xff"
    at = next(index for index, char in enumerate(text) if char.isdigit())
    flipped = text[:at] + ("8" if text[at] == "9" else "9") + text[at + 1:]
    json.loads(flipped)
    return flipped


def _stored_verdict(db, key):
    connection = sqlite3.connect(db)
    try:
        return connection.execute(
            "SELECT document FROM verdicts WHERE key = ?", (key,)
        ).fetchone()[0]
    finally:
        connection.close()


def _damage_verdict(db, key, damage):
    """Corrupt the stored text of one verdict; returns the intact text."""
    text = _stored_verdict(db, key)
    connection = sqlite3.connect(db)
    with connection:
        connection.execute(
            "UPDATE verdicts SET document = CAST(? AS TEXT) WHERE key = ?",
            (_damaged(text, damage), key),
        )
    connection.close()
    return text


def _damage_artifact(db, hash_):
    connection = sqlite3.connect(db)
    with connection:
        (text,) = connection.execute(
            "SELECT document FROM artifacts WHERE hash = ?", (hash_,)
        ).fetchone()
        connection.execute(
            "UPDATE artifacts SET document = ? WHERE hash = ?",
            (_damaged(text, "flip"), hash_),
        )
    connection.close()


@pytest.fixture
def fixed_elapsed(monkeypatch):
    """Pin the one run-varying verdict stat, so that a recomputed
    verdict can be compared with the stored one byte for byte (executor
    workers forked afterwards inherit the patch)."""
    monkeypatch.setattr(Span, "elapsed_stat", property(lambda self: 0.0))


class TestVerifyCaching:
    def test_cold_then_hit_byte_identical(self, db):
        cold = verify(FAST, cache="readwrite", cache_path=db)
        hit = verify(FAST, cache="readwrite", cache_path=db)
        assert not cold.cached
        assert hit.cached
        assert cold.cache_key == hit.cache_key
        assert hit.to_document() == cold.to_document()
        assert json.dumps(
            hit.to_document(), sort_keys=True
        ) == json.dumps(cold.to_document(), sort_keys=True)

    def test_off_is_byte_identical_to_default(self, db):
        default = verify(FAST).to_document()
        off_verdict = verify(FAST, cache="off", cache_path=db)
        off = off_verdict.to_document()
        # Wall-clock elapsed is the one legitimately run-varying stat;
        # everything else must be byte-identical to the cache-less path.
        default["stats"].pop("elapsed", None)
        off["stats"].pop("elapsed", None)
        assert default == off
        assert not off_verdict.cached and off_verdict.cache_key is None

    def test_read_mode_never_stores(self, db):
        first = verify(FAST, cache="read", cache_path=db)
        second = verify(FAST, cache="read", cache_path=db)
        assert not first.cached and not second.cached
        with VerdictCache.open(db) as cache:
            assert cache.stats()["verdicts"] == 0

    def test_read_mode_serves_existing(self, db):
        verify(FAST, cache="readwrite", cache_path=db)
        hit = verify(FAST, cache="read", cache_path=db)
        assert hit.cached

    def test_violating_hit_replays_counterexample(self, db):
        cold = verify(VIOLATING, cache="readwrite", cache_path=db)
        hit = verify(VIOLATING, cache="readwrite", cache_path=db)
        assert hit.cached and hit.outcome == "violated"
        assert hit.counterexample is not None
        assert (
            hit.counterexample.to_document()
            == cold.counterexample.to_document()
        )

    def test_env_defaults(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_CACHE", "readwrite")
        monkeypatch.setenv("REPRO_CACHE_DB", db)
        verify(FAST)
        assert verify(FAST).cached

    def test_epoch_invalidates(self, db, monkeypatch):
        verify(FAST, cache="readwrite", cache_path=db)
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "bumped")
        miss = verify(FAST, cache="readwrite", cache_path=db)
        assert not miss.cached
        # The stale pre-epoch entry is gc-able, the new one survives.
        with VerdictCache.open(db) as cache:
            assert cache.stats()["verdicts"] == 2
            assert cache.gc() == 1
            assert cache.stats()["verdicts"] == 1

    def test_overrides_key_the_cache(self, db):
        base = verify(FAST, cache="readwrite", cache_path=db)
        other = verify(
            FAST, cache="readwrite", cache_path=db, max_configurations=9999
        )
        assert base.cache_key != other.cache_key
        assert not other.cached

    def test_bad_mode_rejected(self, db):
        with pytest.raises(UsageError):
            verify(FAST, cache="sideways", cache_path=db)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_corrupt_row_recomputed_and_rewritten(self, db, damage, fixed_elapsed):
        cold = verify(FAST, cache="readwrite", cache_path=db)
        intact = _damage_verdict(db, cold.cache_key, damage)
        with recording(Recorder()) as recorder:
            again = verify(FAST, cache="readwrite", cache_path=db)
        assert not again.cached
        assert recorder.counters["cache/corrupt"] == 1
        assert _stored_verdict(db, cold.cache_key) == intact
        assert verify(FAST, cache="readwrite", cache_path=db).cached

    def test_schema_1_rows_recomputed_once(self, db, fixed_elapsed):
        document = verify(FAST).to_document()
        key = cache_key(get_scenario(FAST), "exhaustive", {})
        _schema_1_file(db, key, document)
        with recording(Recorder()) as recorder:
            first = verify(FAST, cache="readwrite", cache_path=db)
            second = verify(FAST, cache="readwrite", cache_path=db)
        assert not first.cached and second.cached
        assert first.cache_key == key
        assert recorder.counters["cache/miss"] == 1
        assert recorder.counters["cache/hit"] == 1
        assert "cache/corrupt" not in recorder.counters
        assert second.to_document() == document


def _run(coroutine):
    return asyncio.run(coroutine)


async def _ask(app, method, path, body):
    """One ``app.handle`` call, its reply text parsed."""
    status, text = await app.handle(method, path, body)
    return status, json.loads(text)


class TestServiceApp:
    def test_submit_poll_then_inline_hit(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                status, doc = await _ask(
                    app,
                    "POST",
                    "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 202 and doc["status"] == "pending"
                request_id, key = doc["id"], doc["key"]
                while True:
                    status, doc = await _ask(
                        app, "GET", f"/v1/verify/{request_id}", None
                    )
                    if doc["status"] != "pending":
                        break
                    await asyncio.sleep(0.05)
                assert status == 200 and doc["status"] == "done"
                assert doc["backend"] == "exhaustive"
                cold = doc["verdict"]

                status, doc = await _ask(
                    app,
                    "POST",
                    "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 200 and doc["cached"] is True
                assert doc["key"] == key
                assert doc["verdict"] == cold

                status, doc = await _ask(
                    app, "GET", f"/v1/verdicts/{key}", None
                )
                assert status == 200 and doc == cold
            finally:
                app.close()

        _run(scenario())

    def test_artifact_route(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                status, doc = await _ask(
                    app, "POST", "/v1/verify", {"scenario": VIOLATING}
                )
                request_id = doc["id"]
                while True:
                    status, doc = await _ask(
                        app, "GET", f"/v1/verify/{request_id}", None
                    )
                    if doc["status"] != "pending":
                        break
                    await asyncio.sleep(0.05)
                witness = doc["verdict"]["counterexample"]
                status, fetched = await _ask(
                    app, "GET", f"/v1/artifacts/{artifact_hash(witness)}", None
                )
                assert status == 200 and fetched == witness
            finally:
                app.close()

        _run(scenario())

    def test_errors_and_metrics(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                assert (await _ask(app, "POST", "/v1/verify", None))[0] == 400
                assert (
                    await _ask(app, "POST", "/v1/verify", {"nope": 1})
                )[0] == 400
                assert (
                    await _ask(
                        app, "POST", "/v1/verify", {"scenario": "no-such"}
                    )
                )[0] == 400
                assert (
                    await _ask(
                        app,
                        "POST",
                        "/v1/verify",
                        {"scenario": FAST, "overrides": []},
                    )
                )[0] == 400
                assert (await _ask(app, "GET", "/v1/verify/nope", None))[
                    0
                ] == 404
                assert (
                    await _ask(app, "GET", "/v1/verdicts/" + "0" * 64, None)
                )[0] == 404
                assert (await _ask(app, "GET", "/nope", None))[0] == 404
                status, metrics = await _ask(app, "GET", "/v1/metrics", None)
                assert status == 200
                assert metrics["schema"] == "repro-metrics"
                counters = metrics["counters"]
                assert counters["service/requests"] >= 7
                status, health = await _ask(app, "GET", "/v1/healthz", None)
                assert status == 200 and health["ok"] is True
            finally:
                app.close()

        _run(scenario())

    def test_auto_backend_resolves_before_keying(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                # seed is fuzz-only; auto resolves the small scenario
                # to exhaustive and must drop it, matching verify()'s
                # key exactly.
                status, doc = await _ask(
                    app,
                    "POST",
                    "/v1/verify",
                    {"scenario": VIOLATING, "overrides": {"seed": 7}},
                )
                assert doc["backend"] == "exhaustive"
                assert doc["key"] == cache_key(
                    get_scenario(VIOLATING), "exhaustive", {}
                )
            finally:
                app.close()

        _run(scenario())

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_corrupt_row_recomputed_and_rewritten(self, db, damage, fixed_elapsed):
        body = {"scenario": FAST, "backend": "exhaustive"}

        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                status, doc = await _ask(app, "POST", "/v1/verify", body)
                key = doc["key"]
                await _until_done(app, doc)
                status, hit = await app.handle("POST", "/v1/verify", body)
                assert status == 200
                intact = _damage_verdict(db, key, damage)

                status, doc = await _ask(app, "POST", "/v1/verify", body)
                assert status == 202 and doc["status"] == "pending"
                await _until_done(app, doc)
                assert _stored_verdict(db, key) == intact
                status, again = await app.handle("POST", "/v1/verify", body)
                assert status == 200 and again == hit
                status, metrics = await _ask(app, "GET", "/v1/metrics", None)
                assert metrics["counters"]["cache/corrupt"] == 1
                assert metrics["counters"]["cache/hit"] == 2
            finally:
                app.close()
            with VerdictCache.open(db) as cache:
                assert cache.stats()["hits"] == 2

        _run(scenario())

    def test_corrupt_verdict_route_is_404(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                app.cache.put("k", {"scenario": "s", "backend": "fuzz", "runs": 12})
                _damage_verdict(db, "k", "flip")
                status, doc = await _ask(app, "GET", "/v1/verdicts/k", None)
                assert status == 404
                status, metrics = await _ask(app, "GET", "/v1/metrics", None)
                assert metrics["counters"]["cache/corrupt"] == 1
            finally:
                app.close()

        _run(scenario())

    def test_corrupt_artifact_route_is_500(self, db):
        witness = {"schema": "repro-replay", "events": [[0, "propose", [1]]]}
        digest = artifact_hash(witness)

        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                app.cache.put(
                    "k",
                    {"scenario": "s", "backend": "fuzz", "counterexample": witness},
                )
                _damage_artifact(db, digest)
                status, doc = await _ask(app, "GET", f"/v1/artifacts/{digest}", None)
                assert status == 500
                assert "corrupt" in doc["error"] and digest in doc["error"]
                assert "events" not in doc
                status, metrics = await _ask(app, "GET", "/v1/metrics", None)
                assert metrics["counters"]["cache/corrupt"] == 1
            finally:
                app.close()

        _run(scenario())


async def _until_done(app, reply):
    """Poll a submitted request until it leaves ``pending``."""
    while reply["status"] == "pending":
        await asyncio.sleep(0.05)
        _, reply = await _ask(app, "GET", f"/v1/verify/{reply['id']}", None)
    assert reply["status"] == "done", reply
    return reply


async def _http(reader, writer, method, path, body=None):
    """One keep-alive HTTP exchange against the test server."""
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length)
    return status, raw


class TestHttpServer:
    def test_end_to_end_over_tcp(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                status, raw = await _http(reader, writer, "GET", "/v1/healthz")
                assert status == 200 and json.loads(raw)["ok"] is True

                status, raw = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 202
                request_id = json.loads(raw)["id"]
                while True:
                    status, raw = await _http(
                        reader, writer, "GET", f"/v1/verify/{request_id}"
                    )
                    if json.loads(raw)["status"] != "pending":
                        break
                    await asyncio.sleep(0.05)
                assert json.loads(raw)["status"] == "done"

                # Two inline hits over the wire are byte-identical.
                status, first = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 200
                status, second = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 200
                assert first == second
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())

    def test_request_larger_than_the_read_buffer(self, db):
        """A connection receives into one buffer of READ_BUFFER_BYTES;
        a body several times that size arrives whole, and the next
        request on the connection is framed from where it ended."""
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                status, raw = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {
                        "scenario": "no-such-scenario",
                        "padding": "x" * (3 * READ_BUFFER_BYTES + 17),
                    },
                )
                assert status == 400
                assert "no-such-scenario" in json.loads(raw)["error"]
                status, raw = await _http(reader, writer, "GET", "/v1/healthz")
                assert status == 200 and json.loads(raw)["ok"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())

    def test_malformed_framing_is_400(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())


    @staticmethod
    async def _eof_after(request, db, within=5.0):
        """Send ``request`` raw to an in-process server; the bytes the
        server sent before closing the connection (fails after
        ``within`` seconds without EOF)."""
        app = ServiceApp(cache_path=db, workers=1)
        server = await start_service(app, host="127.0.0.1", port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request)
            await writer.drain()
            try:
                return await asyncio.wait_for(reader.read(), within)
            except asyncio.TimeoutError:
                pytest.fail(f"no EOF within {within} s")
            finally:
                writer.close()
        finally:
            server.close()
            await server.wait_closed()
            app.close()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: Close\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: TE, close\r\n\r\n",
            b"GET /v1/healthz HTTP/1.0\r\nHost: x\r\n\r\n",
        ],
        ids=["close-any-case", "close-token-list", "http-1.0-default"],
    )
    def test_connection_close_reaches_eof(self, db, request_bytes):
        received = _run(self._eof_after(request_bytes, db))
        assert received.startswith(b"HTTP/1.1 200"), received
        assert b"Connection: close\r\n" in received

    def test_http_1_0_keep_alive_stays_open(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for _ in range(2):
                    writer.write(
                        b"GET /v1/healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                    )
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert b"Connection: keep-alive" in head
                    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
                    await reader.readexactly(length)
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())

    def test_idle_connection_is_closed(self, db, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.3)
        started = time.monotonic()
        received = _run(
            self._eof_after(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n", db)
        )
        assert received.startswith(b"HTTP/1.1 200"), received
        assert b"Connection: keep-alive" in received
        assert time.monotonic() - started < 5.0

    def test_idle_mid_body_is_closed_quietly(self, db, monkeypatch, caplog):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.3)
        received = _run(
            self._eof_after(
                b"POST /v1/verify HTTP/1.1\r\nContent-Length: 10\r\n\r\n{", db
            )
        )
        assert received == b""
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_busy_connection_stays_open(self, db, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.3)

        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                started = time.monotonic()
                while time.monotonic() - started < 1.2:
                    status, raw = await _http(reader, writer, "GET", "/v1/healthz")
                    assert status == 200
                    await asyncio.sleep(0.1)
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())

    @staticmethod
    def _serve(db):
        """``python -m repro serve`` on an ephemeral port: the process
        and the port its banner names."""
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-db", db],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = server.stdout.readline()
        match = re.search(r":(\d+) ", banner)
        if match is None:
            server.kill()
            raise AssertionError(f"no banner: {banner!r} {server.communicate()}")
        return server, int(match.group(1))

    def test_cold_submit_with_connection_close_reaches_eof(self, db):
        """The executor's workers exist before the first connection, so
        no worker holds a copy of the client's socket: after a cold
        submit with ``Connection: close`` the client sees EOF at once."""
        server, port = self._serve(db)
        try:
            body = json.dumps({"scenario": FAST, "backend": "exhaustive"}).encode()
            request = (
                b"POST /v1/verify HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            ) + body
            with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
                conn.sendall(request)
                received = b""
                deadline = time.monotonic() + 2.0
                while True:
                    conn.settimeout(max(0.001, deadline - time.monotonic()))
                    try:
                        chunk = conn.recv(65536)
                    except socket.timeout:
                        pytest.fail(f"no EOF within 2 s; received {received!r}")
                    if not chunk:
                        break
                    received += chunk
            assert received.startswith(b"HTTP/1.1 202"), received
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                server.communicate(timeout=60)
            finally:
                if server.poll() is None:
                    server.kill()
                    server.communicate()

    def test_sigterm_with_idle_keep_alive_connection_exits_cleanly(self, db):
        """Shutdown cancels the handler of every open connection; that
        must be a clean close — exit 0 and no traceback on stderr."""
        server, port = self._serve(db)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
                conn.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                response = conn.recv(65536)
                assert b"keep-alive" in response
                # The connection now idles in the server's request read.
                server.send_signal(signal.SIGTERM)
                out, err = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        assert "Traceback" not in err, err
        assert "shutting down" in out


class TestCli:
    def test_verify_cache_flag(self, db, capsys):
        from repro.__main__ import main

        assert main(["verify", FAST, "--cache", "readwrite",
                     "--cache-db", db]) == 0
        assert main(["verify", FAST, "--cache", "readwrite",
                     "--cache-db", db]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out

    def test_cache_stats_and_gc(self, db, capsys):
        from repro.__main__ import main

        verify(FAST, cache="readwrite", cache_path=db)
        assert main(["cache", "stats", "--cache-db", db]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["verdicts"] == 1
        assert main(["cache", "gc", "--cache-db", db]) == 0
        assert "evicted 0" in capsys.readouterr().out

    def test_locked_cache_is_a_diagnosed_exit(self, db, capsys, monkeypatch):
        from repro.__main__ import main

        VerdictCache.open(db).close()
        monkeypatch.setattr(cache_module, "BUSY_TIMEOUT", 0.2)
        holder = sqlite3.connect(db)
        try:
            holder.execute("BEGIN IMMEDIATE")
            capsys.readouterr()
            assert main(["cache", "gc", "--cache-db", db]) == 1
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert db in err and "locked" in err
        assert "not a verdict cache" not in err

    def test_cache_stats_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = str(tmp_path / "nope.db")
        assert main(["cache", "stats", "--cache-db", missing]) == 1
        assert main(["cache", "gc", "--cache-db", missing]) == 0

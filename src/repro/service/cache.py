"""The content-addressed verdict cache (SQLite WAL, campaign idioms).

One file maps cache keys (:func:`repro.service.keys.cache_key`) to full
verdict documents, plus a content-addressed artifact table holding the
replayable counterexample/lasso sub-documents by their own SHA-256 —
``GET /v1/artifacts/{hash}`` serves straight from it, and two verdicts
that shrank to the same witness share one artifact row.

Byte-identity contract: :meth:`VerdictCache.get` returns exactly the
canonical JSON text :meth:`VerdictCache.put` stored, so a cached
re-verify serialises byte-identically to the cold run that populated
it — the property the ``serve-smoke`` CI job and the service gate
(``benchmarks/gates.py service``) assert.  The service sends that text
to the socket unparsed.

Verified reads: every verdict row carries ``digest``, the SHA-256 of
its stored text, and ``get`` serves a row only when the two still
match; artifacts are checked against their content address the same
way.  A row that fails the check — including one whose text is not
valid UTF-8 — counts ``cache/corrupt`` and is a miss (the caller
recomputes it, and a ``readwrite`` caller rewrites it).  A row without a
digest — one written under schema 1 — is a plain miss.  ``gc`` evicts
both kinds, since neither can ever be served.

Hit counts build up in memory and land in the ``hits`` column in one
transaction, on :meth:`VerdictCache.stats` and :meth:`VerdictCache.close`,
so the read path never writes.

Same durability idioms as :mod:`repro.campaign.store`: WAL journaling,
``synchronous=NORMAL``, a busy timeout, one transaction per mutation —
any number of readers and writers (the serve executor's worker
processes all write here) can share the file.

Obs counters (PR 7 recorder, no-op when no recorder is active):
``cache/hit``, ``cache/miss``, ``cache/store``, ``cache/corrupt``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time

from typing import Any, Dict, List, Optional

from repro.obs.recorder import active as _obs_active
from repro.service.keys import code_version
from repro.util.errors import (
    ReproError,
    StoreError,
    UsageError,
    is_busy,
    unknown_choice,
)
from repro.util.hashing import canonical_fingerprint, canonical_json

#: Bump on any schema or key-contract change.  Schema 2 added the
#: ``digest`` column; a schema-1 file migrates when it is opened.
CACHE_SCHEMA_VERSION = 2

#: ``verify()`` cache modes: disabled entirely, read-only (hits served,
#: misses computed but not stored), or read-write (the service default).
CACHE_MODES = ("off", "read", "readwrite")

#: Seconds a statement waits for another connection's write lock.
BUSY_TIMEOUT = 30.0

#: Default cache path; ``REPRO_CACHE_DB`` overrides it process-wide
#: (the campaign worker pool inherits it through the environment).
DEFAULT_CACHE_DB = "verdicts.db"
CACHE_DB_ENV = "REPRO_CACHE_DB"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS verdicts (
    key        TEXT PRIMARY KEY,
    scenario   TEXT NOT NULL,
    backend    TEXT NOT NULL,
    code       TEXT NOT NULL,
    document   TEXT NOT NULL,
    created_at REAL NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0,
    digest     TEXT
);
CREATE INDEX IF NOT EXISTS verdicts_code ON verdicts(code);
CREATE INDEX IF NOT EXISTS verdicts_scenario ON verdicts(scenario, backend);
CREATE TABLE IF NOT EXISTS artifacts (
    hash     TEXT PRIMARY KEY,
    kind     TEXT NOT NULL,
    document TEXT NOT NULL
);
"""


def check_cache_mode(mode: str) -> str:
    """Validate a cache mode (:class:`UsageError` on anything else)."""
    if mode not in CACHE_MODES:
        raise unknown_choice("cache mode", mode, CACHE_MODES)
    return mode


def default_cache_path(path: Optional[str] = None) -> str:
    """Resolve the cache path: explicit argument, then the
    ``REPRO_CACHE_DB`` environment variable, then ``verdicts.db``."""
    if path:
        return path
    return os.environ.get(CACHE_DB_ENV, "").strip() or DEFAULT_CACHE_DB


def artifact_hash(document: Dict[str, Any]) -> str:
    """The content address of one replayable artifact document."""
    return canonical_fingerprint(document)


def _sha256(stored: bytes) -> str:
    """The digest of a stored canonical text's UTF-8 bytes (for an
    artifact, its content address: ``artifact_hash`` of the document it
    encodes)."""
    return hashlib.sha256(stored).hexdigest()


def _verified(stored: bytes, digest: Optional[str]) -> Optional[str]:
    """The stored text when its bytes still match ``digest``, else
    ``None``.  Rows are read as bytes (``CAST(document AS BLOB)``), so
    text that is not valid UTF-8 fails the check instead of raising."""
    if digest is not None and _sha256(stored) == digest:
        return stored.decode("utf-8")
    return None


def _embedded_artifacts(document: Dict[str, Any]) -> List[str]:
    """Content addresses of a verdict document's counterexample/lasso."""
    return [
        artifact_hash(document[field])
        for field in ("counterexample", "lasso")
        if field in document
    ]


class CorruptCacheEntry(ReproError):
    """A stored artifact no longer matches its content address."""


class VerdictCache:
    """One verdict cache file (see module docstring)."""

    def __init__(self, path: str, create: bool = True):
        if not create and not os.path.exists(path):
            raise UsageError(f"no verdict cache at {path!r}")
        self.path = path
        #: Hits served since the last flush, by key (see module docstring).
        self._hits: Dict[str, int] = {}
        self._conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            with self._conn:
                # One write transaction: of several processes opening an
                # old file at once, exactly one migrates it.
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(CACHE_SCHEMA_VERSION)),
                )
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                found = None if row is None else row["value"]
                if found == "1":
                    # Schema 1 rows get a NULL digest, which ``get``
                    # treats as a miss: each is recomputed and
                    # rewritten on first use.
                    self._conn.execute(
                        "ALTER TABLE verdicts ADD COLUMN digest TEXT"
                    )
                    found = str(CACHE_SCHEMA_VERSION)
                    self._conn.execute(
                        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                        (found,),
                    )
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            if is_busy(exc):
                raise StoreError(f"verdict cache {path!r}: {exc}") from None
            raise UsageError(
                f"{path!r} is not a verdict cache: {exc}"
            ) from None
        if found != str(CACHE_SCHEMA_VERSION):
            self._conn.close()
            raise UsageError(
                f"{path!r} is not a verdict cache (schema version "
                f"{found!r}, expected {CACHE_SCHEMA_VERSION!r})"
            )

    @classmethod
    def open(cls, path: Optional[str] = None) -> "VerdictCache":
        """Open (creating if absent) the cache at ``path`` — resolved
        through :func:`default_cache_path`."""
        return cls(default_cache_path(path), create=True)

    def close(self) -> None:
        """Write the buffered hit counts, then close the file."""
        try:
            self._flush_hits()
        finally:
            self._conn.close()

    def __enter__(self) -> "VerdictCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the read path ------------------------------------------------------

    def get(self, key: str) -> Optional[str]:
        """The canonical JSON text of the verdict stored under ``key``,
        or ``None``.

        One indexed read and one digest check: a row whose text no
        longer matches its digest counts ``cache/corrupt`` and, like a
        row without a digest, is a miss.  Counts ``cache/hit`` /
        ``cache/miss`` on the active recorder; the hit also lands in
        the row's ``hits`` column on the next flush.
        """
        row = self._conn.execute(
            "SELECT CAST(document AS BLOB), digest FROM verdicts WHERE key = ?",
            (key,),
        ).fetchone()
        text = None if row is None else _verified(*row)
        recorder = _obs_active()
        if text is not None:
            if recorder is not None:
                recorder.count("cache/hit")
            self._hits[key] = self._hits.get(key, 0) + 1
            return text
        if recorder is not None:
            if row is not None and row[1] is not None:
                recorder.count("cache/corrupt")
            recorder.count("cache/miss")
        return None

    def artifact(self, hash_: str) -> Optional[Dict[str, Any]]:
        """The artifact document stored under ``hash_``, or ``None``.

        Raises :class:`CorruptCacheEntry` (and counts ``cache/corrupt``)
        when the stored text no longer hashes to ``hash_``: a corrupt
        artifact is never returned."""
        row = self._conn.execute(
            "SELECT CAST(document AS BLOB) FROM artifacts WHERE hash = ?",
            (hash_,),
        ).fetchone()
        if row is None:
            return None
        if _sha256(row[0]) != hash_:
            recorder = _obs_active()
            if recorder is not None:
                recorder.count("cache/corrupt")
            raise CorruptCacheEntry(
                f"artifact {hash_} in {self.path!r} is corrupt: its stored "
                "text no longer hashes to its content address"
            )
        return json.loads(row[0])

    def artifact_hashes(self, key: str) -> List[str]:
        """Content addresses of the artifacts embedded in the verdict
        stored under ``key`` (empty when no violation was witnessed, or
        when no servable verdict is stored there)."""
        row = self._conn.execute(
            "SELECT CAST(document AS BLOB), digest FROM verdicts WHERE key = ?",
            (key,),
        ).fetchone()
        text = None if row is None else _verified(*row)
        return [] if text is None else _embedded_artifacts(json.loads(text))

    # -- the write path -----------------------------------------------------

    def put(
        self,
        key: str,
        document: Dict[str, Any],
        code: Optional[str] = None,
    ) -> None:
        """Store one verdict document under ``key`` (idempotent:
        re-storing a key replaces the row — verdicts are deterministic
        functions of their key, so the document can only be equal).

        The embedded counterexample/lasso sub-documents are also
        indexed content-addressed in the artifact table.  Counts
        ``cache/store``.
        """
        artifacts = [
            (artifact_hash(document[field]), field, canonical_json(document[field]))
            for field in ("counterexample", "lasso")
            if field in document
        ]
        text = canonical_json(document)
        digest = _sha256(text.encode("utf-8"))
        with self._conn:
            self._conn.execute(
                "INSERT INTO verdicts "
                "(key, scenario, backend, code, document, created_at, digest) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "document = excluded.document, digest = excluded.digest",
                (
                    key,
                    str(document.get("scenario", "?")),
                    str(document.get("backend", "?")),
                    code if code is not None else code_version(),
                    text,
                    time.time(),
                    digest,
                ),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO artifacts (hash, kind, document) "
                "VALUES (?, ?, ?)",
                artifacts,
            )
        recorder = _obs_active()
        if recorder is not None:
            recorder.count("cache/store")

    # -- maintenance --------------------------------------------------------

    def _flush_hits(self) -> None:
        """Add the buffered hit counts to their rows in one transaction."""
        if not self._hits:
            return
        with self._conn:
            self._conn.executemany(
                "UPDATE verdicts SET hits = hits + ? WHERE key = ?",
                [(count, key) for key, count in self._hits.items()],
            )
        self._hits.clear()

    def gc(self, keep_code: Optional[str] = None) -> int:
        """Evict verdicts whose code-version component differs from
        ``keep_code`` (default: the current :func:`code_version`) and
        verdicts that can never be served (text that fails its digest,
        or no digest at all), then drop artifacts no surviving verdict
        references.  Returns the number of verdict rows evicted."""
        keep = keep_code if keep_code is not None else code_version()
        with self._conn:
            evicted = self._conn.execute(
                "DELETE FROM verdicts WHERE code != ?", (keep,)
            ).rowcount
            referenced, unservable = set(), []
            for key, stored, digest in self._conn.execute(
                "SELECT key, CAST(document AS BLOB), digest FROM verdicts"
            ).fetchall():
                text = _verified(stored, digest)
                if text is None:
                    unservable.append((key,))
                else:
                    referenced.update(_embedded_artifacts(json.loads(text)))
            self._conn.executemany(
                "DELETE FROM verdicts WHERE key = ?", unservable
            )
            evicted += len(unservable)
            for row in self._conn.execute("SELECT hash FROM artifacts"):
                if row["hash"] not in referenced:
                    self._conn.execute(
                        "DELETE FROM artifacts WHERE hash = ?", (row["hash"],)
                    )
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Cache-wide counts: verdicts, artifacts, hits served, and a
        per-code-version breakdown (stale entries are visible here
        before ``gc`` evicts them).  ``hits`` counts this connection's
        hits too (they are flushed first), but another process's only
        once it has closed its cache."""
        self._flush_hits()
        verdicts = self._conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(SUM(hits), 0) AS hits "
            "FROM verdicts"
        ).fetchone()
        artifacts = self._conn.execute(
            "SELECT COUNT(*) AS n FROM artifacts"
        ).fetchone()
        by_code = {
            row["code"]: row["n"]
            for row in self._conn.execute(
                "SELECT code, COUNT(*) AS n FROM verdicts "
                "GROUP BY code ORDER BY code"
            )
        }
        return {
            "path": self.path,
            "verdicts": verdicts["n"],
            "artifacts": artifacts["n"],
            "hits": verdicts["hits"],
            "by_code": by_code,
            "current_code": code_version(),
        }

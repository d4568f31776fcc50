"""The SQLite-backed campaign run store.

One file holds one campaign: its spec, and one row per
content-addressed job.  The job lifecycle is::

    pending ──claim──▶ claimed ──complete──▶ done
                          │
                          └──────fail──────▶ failed

and every transition is a single transaction, so the store survives
``kill -9`` at any point: a job is never half-recorded, and on reopen
the campaign resumes exactly where it stopped.  ``claim`` uses
``BEGIN IMMEDIATE`` (plus WAL journaling and a busy timeout), so any
number of worker processes can pull from the same store concurrently —
each open job is handed to exactly one worker.

Claims left behind by dead workers are recovered by
:meth:`CampaignStore.reclaim_dead` (workers are identified as
``host:pid``; a claim whose pid no longer exists on this host goes back
to pending) or explicitly by :meth:`CampaignStore.reset`.

Faults end in :class:`~repro.util.errors.StoreError` naming the file: a
write that waits longer than ``BUSY_TIMEOUT`` for another process's
lock, and a job row whose JSON no longer decodes (the message also
names the job's fingerprint).
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import sqlite3
import time

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.campaign.spec import CampaignSpec, Job, canonical_json
from repro.util.errors import StoreError, UsageError, is_busy

#: Bump on any incompatible schema or fingerprint-contract change.
SCHEMA_VERSION = 1

#: Seconds a write waits for another connection's lock before the
#: store gives up with a :class:`StoreError`.
BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    fingerprint TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    params      TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending'
                CHECK (status IN ('pending', 'claimed', 'done', 'failed')),
    worker      TEXT,
    attempts    INTEGER NOT NULL DEFAULT 0,
    claimed_at  REAL,
    finished_at REAL,
    elapsed     REAL,
    error       TEXT,
    result      TEXT
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs(status, experiment, fingerprint);
"""

#: Columns added after SCHEMA_VERSION 1 shipped, applied as guarded
#: ALTER TABLE migrations on open.  Nullable and additive only — old
#: readers ignore them, so no schema-version bump is needed.  ``metrics``
#: holds the job's ``repro-metrics`` v1 document (JSON) and is cleared
#: whenever the job returns to ``pending``: a reclaimed-and-re-executed
#: job therefore contributes exactly one document to merged exports.
_EXTRA_COLUMNS = (("metrics", "TEXT"),)

#: Job lifecycle states.
STATUSES = ("pending", "claimed", "done", "failed")


def local_worker_id() -> str:
    """This process's worker identity (``host:pid``)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@dataclass(frozen=True)
class JobRecord:
    """One job row, params and result decoded."""

    fingerprint: str
    experiment: str
    params: Dict[str, Any]
    status: str
    worker: Optional[str]
    attempts: int
    elapsed: Optional[float]
    error: Optional[str]
    result: Optional[Dict[str, Any]]
    #: The job's ``repro-metrics`` document (metrics-enabled runs only).
    metrics: Optional[Dict[str, Any]] = None

    @staticmethod
    def from_row(row: sqlite3.Row, path: str) -> "JobRecord":
        """Decode one job row of the store at ``path``; a column whose
        JSON does not decode raises :class:`StoreError`."""
        try:
            return JobRecord(
                fingerprint=row["fingerprint"],
                experiment=row["experiment"],
                params=json.loads(row["params"]),
                status=row["status"],
                worker=row["worker"],
                attempts=row["attempts"],
                elapsed=row["elapsed"],
                error=row["error"],
                result=json.loads(row["result"]) if row["result"] else None,
                metrics=json.loads(row["metrics"]) if row["metrics"] else None,
            )
        except ValueError as exc:
            raise StoreError(
                f"campaign store {path!r}: job {row['fingerprint']} is "
                f"corrupt: {exc}"
            ) from None


class CampaignStore:
    """One campaign's persistent job store (see module docstring)."""

    def __init__(self, path: str, create: bool = False):
        if not create and not os.path.exists(path):
            raise UsageError(
                f"no campaign store at {path!r}; create one with "
                "'python -m repro campaign init'"
            )
        self.path = path
        self._conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            if create:
                with self._conn:
                    self._conn.executescript(_SCHEMA)
                    self._conn.execute(
                        "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(SCHEMA_VERSION)),
                    )
            version = self.get_meta("schema_version")
            if version == str(SCHEMA_VERSION):
                self._migrate_columns()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            if is_busy(exc):
                raise StoreError(f"campaign store {path!r}: {exc}") from None
            # not SQLite at all, or SQLite without our schema
            raise UsageError(f"{path!r} is not a campaign store: {exc}") from None
        if version != str(SCHEMA_VERSION):
            self._conn.close()
            raise UsageError(
                f"{path!r} is not a campaign store (schema version "
                f"{version!r}, expected {SCHEMA_VERSION!r})"
            )

    def _migrate_columns(self) -> None:
        """Apply the additive column migrations (no-op when current)."""
        present = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(jobs)")
        }
        if not present:  # not our schema; the version check reports it
            return
        with self._conn:
            for name, column_type in _EXTRA_COLUMNS:
                if name not in present:
                    self._conn.execute(
                        f"ALTER TABLE jobs ADD COLUMN {name} {column_type}"
                    )

    @contextlib.contextmanager
    def _transaction(self, immediate: bool = False):
        """One write transaction (taking the write lock up front when
        ``immediate``), committed on success and rolled back on an
        exception.  A lock held past ``BUSY_TIMEOUT``, or any other
        SQLite fault, raises :class:`StoreError` naming the file."""
        try:
            with self._conn:
                if immediate:
                    self._conn.execute("BEGIN IMMEDIATE")
                yield self._conn
        except sqlite3.OperationalError as exc:
            raise StoreError(f"campaign store {self.path!r}: {exc}") from None

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, path: str, spec: CampaignSpec) -> "CampaignStore":
        """Create (or re-open) the store at ``path`` and record the
        spec.  Init is additive and idempotent: existing jobs are kept,
        and the stored spec becomes the *union* of every init's
        experiments and axis values (the cumulative description of what
        the store sweeps — the jobs table remains the ground truth)."""
        store = cls(path, create=True)
        existing = store.spec()
        store.set_meta(
            "spec", (spec if existing is None else existing.merged(spec)).to_json()
        )
        return store

    @classmethod
    def open(cls, path: str) -> "CampaignStore":
        return cls(path, create=False)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- meta ---------------------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        with self._transaction() as conn:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )

    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row["value"]

    def spec(self) -> Optional[CampaignSpec]:
        text = self.get_meta("spec")
        return None if text is None else CampaignSpec.from_json(text)

    # -- job intake ---------------------------------------------------------

    def add_jobs(self, jobs: Iterable[Job]) -> int:
        """Insert jobs; existing fingerprints are left untouched
        (whatever their status).  Returns the number actually added."""
        rows = [
            (job.fingerprint, job.experiment_id, canonical_json(dict(job.params)))
            for job in jobs
        ]
        with self._transaction() as conn:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO jobs (fingerprint, experiment, params) "
                "VALUES (?, ?, ?)",
                rows,
            )
            return conn.total_changes - before

    # -- the worker protocol ------------------------------------------------

    def claim(self, worker: Optional[str] = None) -> Optional[JobRecord]:
        """Atomically claim one pending job for ``worker``; ``None``
        when no job is pending.

        Deterministic order (experiment, fingerprint) so serial runs and
        exports are reproducible.
        """
        worker = worker or local_worker_id()
        with self._transaction(immediate=True) as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE status = 'pending' "
                "ORDER BY experiment, fingerprint LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET status = 'claimed', worker = ?, "
                "claimed_at = ?, attempts = attempts + 1, error = NULL "
                "WHERE fingerprint = ?",
                (worker, time.time(), row["fingerprint"]),
            )
        return self.job(row["fingerprint"])

    def complete(
        self,
        fingerprint: str,
        result: Dict[str, Any],
        elapsed: float,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a finished job (``claimed`` → ``done``) with its
        result payload, wall-clock timing, and (metrics-enabled runs)
        its ``repro-metrics`` document.  The metrics column is always
        overwritten — a re-executed job replaces, never accumulates."""
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'done', finished_at = ?, "
                "elapsed = ?, result = ?, error = NULL, metrics = ? "
                "WHERE fingerprint = ?",
                (
                    time.time(),
                    elapsed,
                    canonical_json(result),
                    canonical_json(metrics) if metrics is not None else None,
                    fingerprint,
                ),
            )

    def fail(
        self,
        fingerprint: str,
        error: str,
        elapsed: float,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a failed job (``claimed`` → ``failed``) with its
        error log."""
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'failed', finished_at = ?, "
                "elapsed = ?, error = ?, result = NULL, metrics = ? "
                "WHERE fingerprint = ?",
                (
                    time.time(),
                    elapsed,
                    error,
                    canonical_json(metrics) if metrics is not None else None,
                    fingerprint,
                ),
            )

    # -- recovery -----------------------------------------------------------

    def reset(
        self,
        statuses: Sequence[str] = ("failed",),
        experiment: Optional[str] = None,
    ) -> int:
        """Send jobs in the given states back to ``pending`` (optionally
        one experiment's subset).  Returns the number reset."""
        bad = [s for s in statuses if s not in ("claimed", "done", "failed")]
        if bad:
            raise UsageError(f"cannot reset status(es) {bad!r}")
        if not statuses:
            return 0
        placeholders = ",".join("?" for _ in statuses)
        query = (
            "UPDATE jobs SET status = 'pending', worker = NULL, "
            "claimed_at = NULL, finished_at = NULL, elapsed = NULL, "
            "error = NULL, result = NULL, metrics = NULL "
            f"WHERE status IN ({placeholders})"
        )
        arguments: List[Any] = list(statuses)
        if experiment is not None:
            query += " AND experiment = ?"
            arguments.append(experiment)
        with self._transaction() as conn:
            return conn.execute(query, arguments).rowcount

    def reclaim_dead(self) -> int:
        """Return claims of dead local workers to ``pending``.

        A worker id is ``host:pid`` or ``host:pid#slot`` (pool
        workers); only claims from *this* host are checked (a pid on
        another machine cannot be probed), and only pids that no longer
        exist are reclaimed.  Returns the number reclaimed.
        """
        host = socket.gethostname()
        reclaimed = 0
        rows = self._conn.execute(
            "SELECT fingerprint, worker FROM jobs WHERE status = 'claimed'"
        ).fetchall()
        with self._transaction() as conn:
            for row in rows:
                worker = row["worker"] or ""
                worker_host, _, pid_text = worker.rpartition(":")
                pid_text = pid_text.split("#", 1)[0]
                if worker_host != host or not pid_text.isdigit():
                    continue
                if _pid_alive(int(pid_text)):
                    continue
                # Guard on the observed worker too: between our snapshot
                # and this write another invocation may have reclaimed
                # the job and a live worker re-claimed it.
                # metrics = NULL is defensive (claimed jobs have none:
                # the document is only ever written on complete/fail)
                # but keeps the invariant airtight: a job going back to
                # pending never carries a stale metrics document that a
                # merged export could double-count after re-execution.
                cursor = conn.execute(
                    "UPDATE jobs SET status = 'pending', worker = NULL, "
                    "claimed_at = NULL, metrics = NULL "
                    "WHERE fingerprint = ? "
                    "AND status = 'claimed' AND worker = ?",
                    (row["fingerprint"], row["worker"]),
                )
                reclaimed += cursor.rowcount
        return reclaimed

    # -- queries ------------------------------------------------------------

    def job(self, fingerprint: str) -> Optional[JobRecord]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return None if row is None else JobRecord.from_row(row, self.path)

    def jobs(self, status: Optional[str] = None) -> List[JobRecord]:
        if status is None:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY experiment, fingerprint"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE status = ? "
                "ORDER BY experiment, fingerprint",
                (status,),
            ).fetchall()
        return [JobRecord.from_row(row, self.path) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Job counts by status (every status present, zeros included)."""
        counts = {status: 0 for status in STATUSES}
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        ):
            counts[row["status"]] = row["n"]
        return counts

    def counts_by_experiment(self) -> Dict[str, Dict[str, int]]:
        result: Dict[str, Dict[str, int]] = {}
        for row in self._conn.execute(
            "SELECT experiment, status, COUNT(*) AS n FROM jobs "
            "GROUP BY experiment, status ORDER BY experiment"
        ):
            result.setdefault(
                row["experiment"], {status: 0 for status in STATUSES}
            )[row["status"]] = row["n"]
        return result

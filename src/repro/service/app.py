"""The verification service application: routes, jobs, executor.

Transport-free by design — :class:`ServiceApp` maps ``(method, path,
body)`` to ``(status, document)`` and owns the request lifecycle; the
HTTP framing lives in :mod:`repro.service.server`, and tests can drive
the app directly.

The submit/poll/fetch shape::

    POST /v1/verify        {"scenario": id, "backend": b?, "overrides": {...}?}
      -> 200 {"status": "done", "cached": true, "key": k, "verdict": {...}}
         (cache hit: answered inline, no job created)
      -> 202 {"status": "pending", "id": rid, "key": k}
         (cold: submitted to the process-pool executor)
    GET  /v1/verify/{id}   -> {"status": "pending"|"done"|"failed", ...}
    GET  /v1/verdicts/{key}   -> the stored verdict document | 404
    GET  /v1/artifacts/{hash} -> the stored artifact document | 404
    GET  /v1/metrics       -> a repro-metrics v1 document
    GET  /v1/healthz       -> {"ok": true, ...}

Cold-path fan-out: misses run ``verify(scenario, backend=resolved,
cache="readwrite", cache_path=db)`` on a bounded
:class:`~concurrent.futures.ProcessPoolExecutor` — the engine's own
process-level parallel machinery stays available inside each worker,
and the worker's ``readwrite`` cache mode is what populates the store
(WAL journaling makes concurrent worker writes safe).  Identical
in-flight requests deduplicate onto one job id; once a job lands in
the cache, later identical submits answer inline.

Backend resolution happens at submit time (``"auto"`` resolves against
the scenario's tags, and auto-only overrides are dropped exactly as
``verify()`` drops them), so the request's cache key always equals the
key the worker stores under.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import secrets

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import metrics_document
from repro.obs.recorder import Recorder, install as _obs_install
from repro.scenarios import get_scenario, resolve_backend
from repro.scenarios.verify import (
    BACKENDS,
    EXHAUSTIVE_ONLY_OVERRIDES,
    FUZZ_ONLY_OVERRIDES,
)
from repro.service.cache import VerdictCache, default_cache_path
from repro.service.keys import cache_key, code_version
from repro.util.errors import UsageError

#: Completed jobs retained for polling; the verdicts themselves live in
#: the cache by content address, so eviction loses nothing durable.
MAX_RETAINED_JOBS = 4096


def execute_verify(
    scenario_id: str,
    backend: str,
    overrides: Dict[str, Any],
    cache_path: str,
) -> Tuple[Dict[str, Any], bool]:
    """One cold verify in an executor worker process (picklable,
    module-level).  Returns ``(verdict document, was it a cache hit)``
    — ``readwrite`` mode both answers racing duplicates and populates
    the cache for every later identical request."""
    from repro.scenarios import verify

    verdict = verify(
        scenario_id,
        backend=backend,
        cache="readwrite",
        cache_path=cache_path,
        **overrides,
    )
    return verdict.to_document(), verdict.cached


@dataclass
class VerifyJob:
    """One submitted cold verification."""

    request_id: str
    key: str
    scenario: str
    backend: str
    status: str = "pending"  # pending -> done | failed
    cached: bool = False
    verdict: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    future: Any = field(default=None, repr=False)

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "id": self.request_id,
            "status": self.status,
            "key": self.key,
            "scenario": self.scenario,
            "backend": self.backend,
        }
        if self.status == "done":
            document["cached"] = self.cached
            document["verdict"] = self.verdict
        if self.error is not None:
            document["error"] = self.error
        return document


class ServiceApp:
    """The long-running verification service (one per server process).

    Owns the verdict cache connection (inline hit path), the bounded
    process-pool executor (cold path), the in-memory job table, and a
    :class:`Recorder` serving ``GET /v1/metrics``.  Single-threaded by
    contract: every ``handle()`` call runs on the event loop.
    """

    def __init__(self, cache_path: Optional[str] = None, workers: int = 2):
        self.cache_path = default_cache_path(cache_path)
        self.workers = max(1, int(workers))
        self.recorder = Recorder(label="repro-serve")
        self.jobs: Dict[str, VerifyJob] = {}
        self._inflight: Dict[str, str] = {}  # cache key -> request id
        self._order = itertools.count(1)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._cache: Optional[VerdictCache] = None
        self._previous_recorder: Any = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Open the cache, install the service recorder (so the cache
        layer's ``cache/hit``/``cache/miss`` counters land in the
        ``/v1/metrics`` document), and fork the executor's workers.

        The workers are forked here, before the server opens any
        socket: a worker forked inside a request would inherit that
        client's connection (and the listening socket), and the client
        would never see EOF after the server closed the connection."""
        self._cache = VerdictCache.open(self.cache_path)
        self._previous_recorder = _obs_install(self.recorder)
        self._executor = ProcessPoolExecutor(max_workers=self.workers)
        # submit() forks the workers before it returns: one per submit
        # that finds no idle worker, or (a fork-based pool on Python
        # 3.11+) all of them on the first.  Nothing waits for the jobs.
        for _ in range(self.workers):
            self._executor.submit(os.getpid)

    def close(self) -> None:
        _obs_install(self._previous_recorder)
        if self._executor is not None:
            # wait=True so the workers are reaped before the server
            # process exits.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._cache is not None:
            self._cache.close()
            self._cache = None

    @property
    def cache(self) -> VerdictCache:
        if self._cache is None:
            raise UsageError("service app not started (call start())")
        return self._cache

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise UsageError("service app not started (call start())")
        return self._executor

    # -- routing ------------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch one request; returns ``(HTTP status, JSON doc)``."""
        self.recorder.count("service/requests")
        with self.recorder.span("service/request"):
            try:
                return await self._route(method, path, body)
            except UsageError as exc:
                self.recorder.count("service/bad_requests")
                return 400, {"error": str(exc)}

    async def _route(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        path = path.rstrip("/") or "/"
        if method == "POST" and path == "/v1/verify":
            return await self._submit(body)
        if method == "GET" and path.startswith("/v1/verify/"):
            return self._poll(path[len("/v1/verify/"):])
        if method == "GET" and path.startswith("/v1/verdicts/"):
            return self._verdict(path[len("/v1/verdicts/"):])
        if method == "GET" and path.startswith("/v1/artifacts/"):
            return self._artifact(path[len("/v1/artifacts/"):])
        if method == "GET" and path == "/v1/metrics":
            return self._metrics()
        if method == "GET" and path == "/v1/healthz":
            return 200, {
                "ok": True,
                "service": "repro-serve",
                "code": code_version(),
                "cache_db": self.cache_path,
                "workers": self.workers,
            }
        self.recorder.count("service/not_found")
        return 404, {"error": f"no route {method} {path}"}

    # -- the submit/poll protocol -------------------------------------------

    async def _submit(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(body, dict):
            raise UsageError("POST /v1/verify expects a JSON object body")
        scenario_id = body.get("scenario")
        if not isinstance(scenario_id, str) or not scenario_id:
            raise UsageError('body must name a "scenario" (string id)')
        backend = body.get("backend", "auto")
        overrides = body.get("overrides", {})
        if not isinstance(overrides, dict):
            raise UsageError('"overrides" must be a JSON object')
        scenario = get_scenario(scenario_id)  # UsageError -> 400
        resolved = resolve_backend(scenario, backend)
        if resolved not in BACKENDS:
            raise UsageError(
                f"unknown backend {backend!r} (one of {BACKENDS + ('auto',)})"
            )
        if backend == "auto":
            dropped = (
                FUZZ_ONLY_OVERRIDES
                if resolved == "exhaustive"
                else EXHAUSTIVE_ONLY_OVERRIDES
            )
            overrides = {
                key: value
                for key, value in overrides.items()
                if key not in dropped
            }
        key = cache_key(scenario, resolved, overrides)
        document = self.cache.get(key)  # counts cache/hit | cache/miss
        if document is not None:
            self.recorder.count("service/inline_hits")
            return 200, {
                "status": "done",
                "cached": True,
                "key": key,
                "scenario": scenario.scenario_id,
                "backend": resolved,
                "verdict": document,
            }
        pending = self._inflight.get(key)
        if pending is not None and self.jobs[pending].status == "pending":
            self.recorder.count("service/deduplicated")
            reply = self.jobs[pending].to_document()
            reply["deduplicated"] = True
            return 202, reply
        request_id = f"req-{next(self._order):06d}-{secrets.token_hex(4)}"
        job = VerifyJob(
            request_id=request_id,
            key=key,
            scenario=scenario.scenario_id,
            backend=resolved,
        )
        loop = asyncio.get_running_loop()
        job.future = loop.run_in_executor(
            self.executor(),
            execute_verify,
            scenario.scenario_id,
            resolved,
            overrides,
            self.cache_path,
        )
        job.future.add_done_callback(lambda fut: self._finish(job, fut))
        self.jobs[request_id] = job
        self._inflight[key] = request_id
        self._evict_finished()
        self.recorder.count("service/submitted")
        self.recorder.gauge("service/jobs", len(self.jobs))
        return 202, job.to_document()

    def _finish(self, job: VerifyJob, future) -> None:
        self._inflight.pop(job.key, None)
        try:
            job.verdict, job.cached = future.result()
            job.status = "done"
            self.recorder.count("service/completed")
        except Exception as exc:  # job errors are data, not crashes
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.recorder.count("service/failed")

    def _poll(self, request_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self.jobs.get(request_id)
        if job is None:
            self.recorder.count("service/not_found")
            return 404, {"error": f"no verify request {request_id!r}"}
        return 200, job.to_document()

    def _evict_finished(self) -> None:
        if len(self.jobs) < MAX_RETAINED_JOBS:
            return
        for request_id in list(self.jobs):
            if len(self.jobs) < MAX_RETAINED_JOBS:
                break
            if self.jobs[request_id].status != "pending":
                del self.jobs[request_id]

    # -- content-addressed fetches ------------------------------------------

    def _verdict(self, key: str) -> Tuple[int, Dict[str, Any]]:
        document = self.cache.get(key)
        if document is None:
            self.recorder.count("service/not_found")
            return 404, {"error": f"no cached verdict under key {key!r}"}
        return 200, document

    def _artifact(self, hash_: str) -> Tuple[int, Dict[str, Any]]:
        document = self.cache.artifact(hash_)
        if document is None:
            self.recorder.count("service/not_found")
            return 404, {"error": f"no artifact under hash {hash_!r}"}
        return 200, document

    def _metrics(self) -> Tuple[int, Dict[str, Any]]:
        return 200, metrics_document(self.recorder, label="repro-serve")

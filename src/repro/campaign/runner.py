"""The campaign worker pool: pull open jobs, execute, record.

Workers are plain processes around one loop — claim a job from the
store, run it through the experiment registry (whose batteries play
each run in-process), persist the result payload and timing.  The
store's atomic claim is the only coordination: workers never talk to
each other, any number of them (including workers of *other*
``campaign run`` invocations on the same store) can run concurrently,
and killing any of them loses at most the claims they held — which
:meth:`~repro.campaign.store.CampaignStore.reclaim_dead` recovers on
the next run.

``workers=None`` honours ``REPRO_ENGINE_PARALLEL``
(:func:`default_parallelism`).  Jobs are the only unit of parallelism:
a job runs its battery serially inside its worker.

Observability
-------------
With ``metrics=True`` every job executes inside its own obs recorder
(:func:`repro.obs.recorder.recording`) and its ``repro-metrics``
document is stored **on the job row** — so the merged campaign
document (:func:`repro.campaign.report.merged_metrics`) is assembled
from exactly one document per job, regardless of which worker (or
which resumed invocation) executed it, and a dead-worker reclaim can
never double-count: returning a job to ``pending`` clears its metrics
column and re-execution replaces the document.  With ``trace_dir``
set, each worker additionally wraps its whole drain in a tracing
recorder and writes a trace *fragment* file (raw Chrome events + lane
label) that the parent merges into one Perfetto timeline.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

from typing import Any, Dict, Optional

from repro.analysis.experiments import run_experiment
from repro.campaign.report import result_payload
from repro.campaign.store import CampaignStore, JobRecord, local_worker_id
from repro.obs.metrics import metrics_document
from repro.obs.recorder import active as _obs_active, recording as _obs_recording
from repro.obs.trace import write_trace_fragment
from repro.util.errors import StoreError
from repro.util.params import env_int


def default_parallelism() -> int:
    """The ``campaign run`` worker count when none is given:
    ``REPRO_ENGINE_PARALLEL`` (0 = serial), the variable's only use.

    Negative values clamp to 0 (serial); a non-integer value raises
    :class:`~repro.util.errors.UsageError` rather than being silently
    ignored (the shared ``REPRO_*`` env grammar of
    :func:`repro.util.params.env_int`).
    """
    return env_int("REPRO_ENGINE_PARALLEL", default=0, minimum=0)


def _run(record: JobRecord):
    """Execute one job's experiment; returns (payload, error, elapsed)
    with exactly one of payload/error set."""
    started = time.perf_counter()
    try:
        result = run_experiment(record.experiment, **record.params)
        payload, error = result_payload(result), None
    except Exception as exc:  # job errors are data, not crashes
        payload, error = None, f"{type(exc).__name__}: {exc}"
    return payload, error, time.perf_counter() - started


def execute_job(
    store: CampaignStore, record: JobRecord, metrics: bool = False
) -> bool:
    """Run one claimed job to ``done``/``failed``; True when it
    completed with a result payload.

    With ``metrics`` the job runs inside its own recorder (nested, so
    an enclosing worker recorder still absorbs the totals) and its
    metrics document is persisted on the job row.  The document is
    snapshotted *after* the ``campaign/job`` span closes so the span
    itself is part of it.
    """
    document = None
    if not metrics:
        payload, error, elapsed = _run(record)
    else:
        parent = _obs_active()
        trace = parent.trace if parent is not None else False
        with _obs_recording(
            label=f"job:{record.fingerprint[:12]}", trace=trace
        ) as recorder:
            recorder.count("campaign/jobs")
            with recorder.span(f"campaign/job:{record.experiment}"):
                payload, error, elapsed = _run(record)
            if error is not None:
                recorder.count("campaign/job_failures")
            document = metrics_document(recorder)
    if error is not None:
        store.fail(record.fingerprint, error, elapsed, metrics=document)
        return False
    store.complete(record.fingerprint, payload, elapsed, metrics=document)
    return True


def _drain(
    store: CampaignStore,
    worker: str,
    max_jobs: Optional[int] = None,
    metrics: bool = False,
) -> int:
    """Claim and execute jobs until the store runs dry (or ``max_jobs``
    is hit); returns the number executed."""
    executed = 0
    while max_jobs is None or executed < max_jobs:
        record = store.claim(worker)
        if record is None:
            break
        execute_job(store, record, metrics=metrics)
        executed += 1
    return executed


def _worker_main(
    store_path: str, worker_index: int, obs_dir: Optional[str] = None
) -> None:
    worker = f"{local_worker_id()}#{worker_index}"
    try:
        with CampaignStore.open(store_path) as store:
            if obs_dir is None:
                _drain(store, worker)
                return
            # Tracing run: a worker-lifetime recorder absorbs every
            # per-job recorder's events, then lands on disk as one
            # fragment per worker — the parent merges fragments into
            # one timeline with a lane per pid.
            with _obs_recording(label=f"worker:{worker}", trace=True) as rec:
                with rec.span("campaign/worker"):
                    _drain(store, worker, metrics=True)
    except StoreError as error:
        # The parent reports the unfinished jobs; the worker's own
        # diagnosis is one line, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(1) from None
    write_trace_fragment(
        os.path.join(obs_dir, f"worker-{worker_index}.json"),
        worker,
        os.getpid(),
        rec.trace_events,
    )


def run_campaign(
    store_path: str,
    workers: Optional[int] = None,
    max_jobs: Optional[int] = None,
    reclaim: bool = True,
    metrics: bool = False,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Execute the open jobs of a campaign store; returns a summary.

    ``workers=None`` consults :func:`default_parallelism`; ``0``/``1``
    runs serially in-process.  ``max_jobs`` bounds how many jobs this
    invocation executes (serial only — used for drip-feeding and the
    resumability tests).  ``reclaim`` recovers claims of dead local
    workers before starting.  ``metrics`` stores a ``repro-metrics``
    document per job row; ``trace_dir`` (implies ``metrics``) makes
    every worker write a Chrome trace fragment file into that
    directory, named ``worker-<index>.json`` (serial runs write
    ``worker-0.json``).
    """
    if trace_dir is not None:
        metrics = True
        os.makedirs(trace_dir, exist_ok=True)
    with CampaignStore.open(store_path) as store:
        reclaimed = store.reclaim_dead() if reclaim else 0
        before = store.counts()
        if workers is None:
            workers = default_parallelism()
        pending = before["pending"]
        use_pool = (
            workers > 1
            and pending > 1
            and max_jobs is None
            and "fork" in multiprocessing.get_all_start_methods()
        )
        if use_pool:
            context = multiprocessing.get_context("fork")
            procs = [
                context.Process(
                    target=_worker_main,
                    args=(store_path, index, trace_dir),
                )
                for index in range(min(workers, pending))
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join()
        elif trace_dir is not None:
            # Serial tracing mirrors the pool's per-worker fragment
            # contract so downstream merging is shape-independent.
            worker = local_worker_id()
            with _obs_recording(label=f"worker:{worker}", trace=True) as rec:
                with rec.span("campaign/worker"):
                    _drain(store, worker, max_jobs=max_jobs, metrics=True)
            write_trace_fragment(
                os.path.join(trace_dir, "worker-0.json"),
                worker,
                os.getpid(),
                rec.trace_events,
            )
        else:
            _drain(
                store, local_worker_id(), max_jobs=max_jobs, metrics=metrics
            )
        after = store.counts()
        return {
            "reclaimed": reclaimed,
            "executed": before["pending"] - after["pending"],
            "done": after["done"],
            "failed": after["failed"],
            "pending": after["pending"],
            "claimed": after["claimed"],
        }

"""Aggregation and export: regenerate the paper's artifacts *from the
store*, without re-running anything.

Two consumers:

* ``campaign export`` — a deterministic JSON document (sorted keys,
  jobs ordered by (experiment, fingerprint), no timings or worker ids),
  so an interrupted-and-resumed campaign exports byte-identically to an
  uninterrupted one;
* ``campaign status``/``export --render`` — the existing ASCII
  renderers (:func:`repro.analysis.report.render_claims`,
  :func:`~repro.analysis.report.render_grid`) applied to result
  payloads reconstructed from the store, regenerating the Figure 1
  panels and theorem claim tables offline.
"""

from __future__ import annotations

import json
import math
import time

from typing import Any, Callable, Dict, List, Optional

from repro.analysis.classification import ClassifiedGrid, GridPoint
from repro.analysis.experiments import ExperimentResult
from repro.analysis.report import render_claims, render_grid
from repro.campaign.store import STATUSES, CampaignStore, JobRecord
from repro.core.properties import Certainty
from repro.obs.metrics import merge_metrics


# ---------------------------------------------------------------------------
# Result payloads (what the runner persists per job)
# ---------------------------------------------------------------------------


def grid_to_payload(grid: ClassifiedGrid) -> Dict[str, Any]:
    """A JSON-safe encoding of one Figure-1 panel."""
    return {
        "n": grid.n,
        "safety_name": grid.safety_name,
        "semantics": grid.semantics,
        "points": [
            {
                "l": point.l,
                "k": point.k,
                "excludes": point.excludes,
                "certainty": point.certainty.name,
                "evidence": point.evidence,
                "undetermined": point.undetermined,
            }
            for point in grid.points
        ],
    }


def grid_from_payload(payload: Dict[str, Any]) -> ClassifiedGrid:
    """Rebuild a :class:`ClassifiedGrid` from its stored encoding."""
    grid = ClassifiedGrid(
        n=payload["n"],
        safety_name=payload["safety_name"],
        semantics=payload["semantics"],
    )
    for point in payload["points"]:
        grid.points.append(
            GridPoint(
                l=point["l"],
                k=point["k"],
                excludes=point["excludes"],
                certainty=Certainty[point["certainty"]],
                evidence=point["evidence"],
                undetermined=point["undetermined"],
            )
        )
    return grid


def _json_value(value: Any) -> bool:
    """Whether an artifact round-trips through JSON as-is.

    Scalars always do; lists/dicts are probed with an actual encode so
    structured artifacts (e.g. the fuzzer's shrunk replay traces, and
    the liveness backend's verdict documents with their embedded lasso
    certificates) are persisted while object-valued artifacts (grids,
    witnesses, certificates) stay excluded.
    """
    if isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, dict)):
        try:
            # repro-lint: disable=DT003 -- serializability probe, output discarded; sort_keys=True would reject mixed-type keys the real encoder accepts
            json.dumps(value)
        except (TypeError, ValueError):
            return False
        return True
    return False


def result_payload(result: ExperimentResult) -> Dict[str, Any]:
    """The JSON-safe result of one job: claim verdicts, grid cells, and
    JSON-value artifacts (history counts, fuzz corpus sizes, shrunk
    counterexample traces)."""
    payload: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "all_ok": result.all_ok,
        "claims": [
            {
                "name": claim.name,
                "expected": claim.expected,
                "measured": claim.measured,
                "ok": claim.ok,
            }
            for claim in result.claims
        ],
    }
    grid = result.artifacts.get("grid")
    if isinstance(grid, ClassifiedGrid):
        payload["grid"] = grid_to_payload(grid)
    artifacts = {
        key: value
        for key, value in result.artifacts.items()
        if _json_value(value)
    }
    if artifacts:
        payload["artifacts"] = artifacts
    return payload


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _job_document(record: JobRecord) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "fingerprint": record.fingerprint,
        "experiment": record.experiment,
        "params": record.params,
        "status": record.status,
    }
    if record.result is not None:
        document["result"] = record.result
    if record.error is not None:
        document["error"] = record.error
    return document


def export_campaign(store: CampaignStore) -> str:
    """The canonical JSON export of a campaign store.

    Deterministic by construction: only content-addressed fields are
    included (no timings, timestamps, workers, or attempt counts), keys
    are sorted, and jobs are ordered by (experiment, fingerprint).
    """
    records = store.jobs()
    counts = store.counts()
    spec = store.get_meta("spec")
    document = {
        "schema_version": int(store.get_meta("schema_version") or 0),
        "campaign": json.loads(spec) if spec else None,
        "summary": {
            "jobs": len(records),
            **counts,
            "all_ok": all(
                record.result is not None and record.result.get("all_ok", False)
                for record in records
            )
            and bool(records),
        },
        "jobs": [_job_document(record) for record in records],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# ASCII reports
# ---------------------------------------------------------------------------


def _params_label(params: Dict[str, Any]) -> str:
    if not params:
        return "defaults"
    return ", ".join(f"{key}={params[key]}" for key in sorted(params))


def render_status(
    store: CampaignStore, done_records: Optional[List[JobRecord]] = None
) -> str:
    """The ``campaign status`` table: per-experiment job counts by
    lifecycle state.

    ``done_records`` lets callers that already materialised the done
    jobs (payload decoding is the expensive part on large stores) share
    the pass.
    """
    by_experiment = store.counts_by_experiment()
    counts = store.counts()
    width = max([len(e) for e in by_experiment] + [len("experiment")])
    lines = [
        f"{'experiment':<{width}}  "
        + "".join(f"{status:>9}" for status in STATUSES)
    ]
    lines.append("=" * len(lines[0]))
    for experiment, statuses in sorted(by_experiment.items()):
        lines.append(
            f"{experiment:<{width}}  "
            + "".join(f"{statuses[status]:>9}" for status in STATUSES)
        )
    lines.append(
        f"{'total':<{width}}  "
        + "".join(f"{counts[status]:>9}" for status in STATUSES)
    )
    total = sum(counts.values())
    done = counts["done"]
    lines.append(f"{done}/{total} jobs done" + (": all done" if done == total and total else ""))
    if done_records is None:
        done_records = store.jobs("done")
    mismatches = [
        record.fingerprint[:12]
        for record in done_records
        if record.result is not None and not record.result.get("all_ok", True)
    ]
    if mismatches:
        lines.append(f"claim mismatches in jobs: {', '.join(mismatches)}")
    failures = store.jobs("failed")
    for record in failures:
        lines.append(
            f"failed {record.fingerprint[:12]} [{record.experiment} "
            f"{_params_label(record.params)}]: {record.error}"
        )
    return "\n".join(lines)


def render_results(store: CampaignStore) -> str:
    """Regenerate claim tables and Figure-1 panels from stored results."""
    sections: List[str] = []
    for record in store.jobs("done"):
        payload = record.result or {}
        title = (
            f"[{record.experiment} | {_params_label(record.params)}] "
            f"{payload.get('title', '')}"
        )
        rows = [
            (claim["name"], claim["expected"], claim["measured"], claim["ok"])
            for claim in payload.get("claims", [])
        ]
        section = render_claims(title, rows)
        if "grid" in payload:
            section += "\n\n" + render_grid(grid_from_payload(payload["grid"]))
        sections.append(section)
    if not sections:
        return "(no completed jobs in store)"
    return "\n\n".join(sections)


def merged_metrics(store: CampaignStore) -> Dict[str, Any]:
    """The campaign's merged ``repro-metrics`` document.

    Sources exactly one document per finished job **row** (written on
    complete/fail, cleared whenever a job returns to ``pending``), so
    the merge is reclaim-safe by construction: a job a dead worker lost
    and another re-executed contributes its latest document once,
    never the half-finished one.  Order-independent
    (:func:`~repro.obs.metrics.merge_metrics` is commutative), so an
    interrupted-and-resumed campaign merges identically to an
    uninterrupted one.
    """
    documents = [
        record.metrics
        for record in store.jobs()
        if record.metrics is not None
    ]
    spec = store.get_meta("spec")
    label = None
    if spec:
        label = f"campaign:{json.loads(spec).get('name', '?')}"
    return merge_metrics(documents, label=label)


# ---------------------------------------------------------------------------
# Live progress (campaign status --watch)
# ---------------------------------------------------------------------------


def render_watch_line(
    counts: Dict[str, int], rate: Optional[float]
) -> str:
    """One ``--watch`` progress line: lifecycle counts, throughput of
    this watch session, and a naive remaining-work ETA.

    The ETA field is always present so consecutive lines stay
    column-comparable; without a usable rate (no job finished during
    this session yet, a zero/negative/non-finite measurement) it reads
    ``eta --`` instead of dividing by it."""
    total = sum(counts.values())
    remaining = counts["pending"] + counts["claimed"]
    parts = [
        f"{counts['done']}/{total} done",
        f"{counts['claimed']} claimed",
        f"{counts['pending']} pending",
        f"{counts['failed']} failed",
    ]
    if rate is not None and rate > 0 and math.isfinite(rate):
        parts.append(f"{rate:.2f} jobs/s")
        parts.append(f"eta {remaining / rate:.0f}s")
    else:
        parts.append("eta --")
    return "  ".join(parts)


def watch_status(
    store_path: str,
    interval: float = 2.0,
    emit: Callable[[str], None] = print,
    max_polls: Optional[int] = None,
) -> Dict[str, int]:
    """Poll a store until no open jobs remain, emitting one progress
    line per change; returns the final counts.

    Read-only: safe to run alongside any number of workers (including
    ones from other hosts sharing the store file).  The job rate is
    measured over this watch session (done-delta / elapsed), so the ETA
    reflects current throughput, not the campaign's lifetime average.
    ``max_polls`` bounds the loop for tests.
    """
    started = time.monotonic()
    first_done: Optional[int] = None
    last_line = ""
    polls = 0
    while True:
        with CampaignStore.open(store_path) as store:
            counts = store.counts()
        if first_done is None:
            first_done = counts["done"]
        elapsed = time.monotonic() - started
        # The done count can *shrink* while we watch (a reset/reclaim
        # returning jobs to pending); a negative or zero delta means no
        # measurable throughput this session, never a negative ETA.
        delta = counts["done"] - first_done
        rate = delta / elapsed if delta > 0 and elapsed > 0 else None
        line = render_watch_line(counts, rate)
        if line != last_line:
            emit(line)
            last_line = line
        polls += 1
        if counts["pending"] + counts["claimed"] == 0:
            return counts
        if max_polls is not None and polls >= max_polls:
            return counts
        time.sleep(interval)


def store_all_ok(
    store: CampaignStore, done_records: Optional[List[JobRecord]] = None
) -> bool:
    """Whether every finished job has every claim OK (the CLI's exit-0
    condition; pair with pending/claimed counts for completeness)."""
    counts = store.counts()
    if counts["failed"]:
        return False
    if done_records is None:
        done_records = store.jobs("done")
    return all(
        record.result is not None and record.result.get("all_ok", False)
        for record in done_records
    )

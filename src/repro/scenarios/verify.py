"""``verify()``: one facade, every backend, one verdict shape.

``verify(scenario, backend="exhaustive"|"fuzz"|"liveness", **overrides)``
resolves a scenario (by id or object), runs the requested backend with
the scenario's bounds (overridable per call), and normalizes the
outcome to a :class:`~repro.scenarios.scenario.Verdict`:

* ``exhaustive`` — enumerate every interleaving of the plan through the
  snapshot engine (:func:`repro.sim.explore.check_all_histories`).  A
  completed enumeration is a depth-bounded *proof* (``certainty:
  "proof"``); blowing the configuration budget is reported as the
  ``budget-exhausted`` outcome instead of an exception.
* ``fuzz`` — sample seeded random interleavings
  (:func:`repro.fuzz.driver.fuzz_workload`); a clean run is *horizon*
  evidence only (``certainty: "horizon"``).
* ``liveness`` — play the scenario's adversary strategy (or branch
  exhaustively over the scheduler choices of its plan) through the
  snapshot engine (:class:`repro.sim.liveness_search.LivenessSearch`)
  and judge the scenario's liveness property on every maximal run.  A
  fair cycle in which the victims collect no good response is an exact
  starvation *proof* (``outcome: "violated"``, ``certainty: "proof"``)
  packaged as a replayable
  :class:`~repro.fuzz.trace.LassoTrace`; horizon-truncated runs yield
  ``certainty: "horizon"`` evidence either way.

A safety violation is ddmin-shrunk (unless ``shrink=False``),
re-executed on a fresh plain runtime independent of the snapshot
machinery, and attached as a replayable
:class:`~repro.fuzz.trace.ReplayTrace` — the same artifact
``python -m repro fuzz --replay`` consumes.  A liveness proof is
cycle/stem-shrunk (:func:`repro.sim.lasso_shrink.shrink_lasso`) and
replay-verified the same way.  Either artifact failing to re-violate on
the independent replay is surfaced loudly (``shrink_unfaithful`` /
``lasso_shrink_unfaithful`` stats), never silently.

Stats key schema
----------------
Every backend reports a consistent ``Verdict.stats`` schema instead of
hand-rolled timings: ``elapsed`` is always the ``elapsed_stat`` of the
one obs span wrapping the backend's search (``verify/exhaustive``,
``verify/fuzz``, ``verify/liveness`` — seconds rounded to 4 digits,
present on success *and* budget paths); evidence counts keep their
backend-specific names (``runs_checked`` for exhaustive enumeration,
``interleavings``/``interleavings_per_second`` for fuzz sampling,
``runs``/``certainty`` for liveness classification); shrink fidelity
flags are ``shrink_unfaithful`` / ``lasso_shrink_unfaithful``.  When an
obs recorder is active the per-call ``repro-metrics`` document rides
along as ``stats["metrics"]`` (in memory only — see
:meth:`~repro.scenarios.scenario.Verdict.to_document`).

Unknown override keys and overrides the chosen backend cannot honour
raise :class:`~repro.util.errors.UsageError` (exit code 2 at the CLI)
rather than being silently dropped — except under ``backend="auto"``,
where the resolved backend drops the *other* backend's exclusive knobs
(:data:`FUZZ_ONLY_OVERRIDES` / :data:`EXHAUSTIVE_ONLY_OVERRIDES`) so
one override set can serve a mixed-backend sweep, at the CLI and at the
library level alike.
"""

from __future__ import annotations

import gc
import json
import os

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.engine.dpor import DporParityError, check_reduction
from repro.engine.explorer import SearchBudgetExceeded
from repro.objects.opacity import (
    SearchBudgetExceeded as CheckerBudgetExceeded,
)
from repro.fuzz.driver import fuzz_workload
from repro.fuzz.shrink import shrink_schedule
from repro.obs.metrics import metrics_document
from repro.obs.recorder import (
    active as _obs_active,
    recording as _obs_recording,
    span as _obs_span,
)
from repro.fuzz.trace import (
    LassoTrace,
    ReplayTrace,
    decisions_to_labels,
    replay_schedule,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.scenario import Scenario, Verdict
from repro.sim.explore import check_all_histories
from repro.sim.lasso_shrink import certifies_starvation, shrink_lasso
from repro.sim.liveness_search import (
    AdversaryPolicy,
    LivenessSearch,
    PlanPolicy,
)
from repro.util.errors import UsageError, unknown_choice

#: The verification backends the facade dispatches on.
BACKENDS = ("exhaustive", "fuzz", "liveness")

#: Overrides each backend honours (everything else is an error).
_EXHAUSTIVE_OVERRIDES = (
    "max_depth",
    "max_configurations",
    "mode",
    "shrink",
    "crash",  # accepted only as none: the enumerated space is crash-free
    "reduction",  # "none" | "dpor" | "dpor-parity" (repro.engine.dpor)
)
_FUZZ_OVERRIDES = (
    "seed",
    "iterations",
    "max_depth",
    "crash",
    "shrink",
    "crash_probability",
    "corpus_size",
    "min_corpus_depth",
    "explore_every",
)
_LIVENESS_OVERRIDES = (
    "max_depth",  # the step horizon (default: Bounds.horizon)
    "max_configurations",
    "shrink",  # cycle/stem minimization of the lasso certificate
    "lasso_stride",
    "reduction",  # "none" | "dpor" | "dpor-parity" (repro.engine.dpor)
)

#: Sampling knobs only the fuzz backend understands.  Auto-mode callers
#: (the CLI, the ``verify`` experiment) drop these for scenarios that
#: resolve to the exhaustive backend instead of erroring — ``crash`` is
#: deliberately NOT here: a crash model changes the verified space, so
#: an exhaustive cell must fail loudly rather than silently run
#: crash-free.
FUZZ_ONLY_OVERRIDES = tuple(
    key for key in _FUZZ_OVERRIDES if key not in _EXHAUSTIVE_OVERRIDES and key != "crash"
)

#: The mirror image: budget knobs only the exhaustive backend
#: understands, dropped by auto-mode callers for fuzz-resolved
#: scenarios so one override set can serve a mixed-backend list.
EXHAUSTIVE_ONLY_OVERRIDES = tuple(
    key for key in _EXHAUSTIVE_OVERRIDES if key not in _FUZZ_OVERRIDES
)

#: The budget exceptions the exhaustive backend folds into the
#: ``budget-exhausted`` outcome: the engine's configuration budget and
#: the opacity checker's per-history serialization-search budget (two
#: distinct classes sharing a name).
_BUDGET_ERRORS = (SearchBudgetExceeded, CheckerBudgetExceeded)


#: The young-generation threshold every verify runs under (CPython's
#: default is 700).  A search keeps tens of thousands of live tracked
#: objects (dedup keys, snapshots, the checkers' prefix tries) and makes
#: almost no cyclic garbage, so at the default the collector mostly
#: re-traverses live state.  Chosen from a sweep over the proof-sweep
#: requests; docs/architecture.md, "Memory and the cyclic collector".
YOUNG_GC_THRESHOLD = 200_000


@contextmanager
def _collector_policy() -> Iterator[None]:
    """Run the body with the young-generation threshold raised to
    :data:`YOUNG_GC_THRESHOLD`, then restore the caller's thresholds
    and enabled state exactly (on errors and in nested calls too).  A
    caller's threshold of 0 (automatic collection off) or above the
    constant is left as it is.  The settings are process-wide: with
    ``verify()`` calls overlapping in several threads, the last to
    return restores what it saw on entry."""
    thresholds = gc.get_threshold()
    enabled = gc.isenabled()
    if 0 < thresholds[0] < YOUNG_GC_THRESHOLD:
        gc.set_threshold(YOUNG_GC_THRESHOLD, *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        if enabled:
            gc.enable()
        else:
            gc.disable()


def resolve_backend(scenario: Union[str, Scenario], backend: str) -> str:
    """Resolve ``"auto"`` to a concrete backend: ``exhaustive`` for
    scenarios tagged ``small`` (a full proof is affordable there),
    ``fuzz`` otherwise.  Concrete backends pass through unchanged."""
    if backend == "auto":
        return "exhaustive" if get_scenario(scenario).small else "fuzz"
    return backend


def _expected(scenario: Scenario, outcome: str, backend: str = "exhaustive") -> bool:
    """A budget-exhausted run is never the expected verdict; otherwise
    the outcome must match the scenario's declared expectation for the
    backend's property kind (safety vs liveness)."""
    if outcome == "budget-exhausted":
        return False
    expectation = (
        scenario.expect_liveness_violation
        if backend == "liveness"
        else scenario.expect_violation
    )
    return (outcome == "violated") == expectation


def _check_overrides(backend: str, overrides: Dict[str, Any], known) -> None:
    for key in overrides:
        if key not in known:
            raise unknown_choice(f"{backend!r}-backend verify override", key, known)


def _counterexample(
    scenario: Scenario,
    schedule: Tuple,
    reason: Optional[str],
    seed: Optional[int],
    shrink: bool,
) -> Tuple[ReplayTrace, Dict[str, Any]]:
    """Minimize (optionally), replay-verify, and package a violation.

    ``reason=None`` derives the recorded failure reason from the replay
    verdict (the exhaustive backend's path — the enumeration does not
    keep the failing verdict, and re-checking a deep history just for
    its reason would repeat the most expensive check of the run).

    Shrinking can lose the violation only when the safety checker is
    non-monotone across calls (stateful, or not prefix-closed over the
    replayed candidates) — then the shrunk schedule, or even the
    original, fails to re-violate on a fresh replay.  That is never
    silent: the unshrunk schedule is replayed as a fallback for the
    recorded reason, and a ``shrink_unfaithful`` stat flags the witness
    as suspect alongside ``counterexample_replays``.
    """
    original = tuple(schedule)
    stats: Dict[str, Any] = {"counterexample_length": len(schedule)}
    replay = None
    try:
        if shrink:
            try:
                with _obs_span("shrink/schedule"):
                    shrunk = shrink_schedule(
                        scenario.factory, scenario.plan, schedule,
                        scenario.safety_factory(),
                    )
                schedule = shrunk.schedule
                stats["shrunk_from"] = shrunk.original_length
                stats["counterexample_length"] = len(schedule)
            except UsageError as exc:
                # The enumerated witness itself does not replay to a
                # violation (non-monotone/stateful checker): keep it,
                # but loudly.
                stats["shrink_unfaithful"] = True
                stats["shrink_error"] = str(exc)
        replay = replay_schedule(
            scenario.factory, scenario.plan, schedule, scenario.safety_factory()
        )
        stats["counterexample_replays"] = replay.violates
        if not replay.violates and tuple(schedule) != original:
            # The shrunk schedule lost the violation: fall back to the
            # unshrunk witness for the reason (and, if it still
            # violates, for the recorded schedule too).
            stats["shrink_unfaithful"] = True
            fallback = replay_schedule(
                scenario.factory, scenario.plan, original,
                scenario.safety_factory(),
            )
            stats["unshrunk_replays"] = fallback.violates
            if fallback.violates:
                schedule = original
                replay = fallback
                stats["counterexample_replays"] = True
                stats["counterexample_length"] = len(original)
    except _BUDGET_ERRORS as exc:
        # The violation itself stands (the real checker judged a real
        # history); only minimization/replay of *candidate* schedules
        # blew the checker's search budget.  Keep the best witness we
        # have and record why the follow-up checks are missing.
        stats["witness_check_error"] = str(exc)
    if reason is None:
        reason = (
            replay.verdict.reason or ""
            if replay is not None
            and replay.verdict is not None
            and replay.violates
            else ""
        )
    trace = ReplayTrace(
        plan=scenario.plan,
        schedule=tuple(schedule),
        workload=scenario.scenario_id,
        implementation=getattr(scenario.factory(), "name", None),
        safety=getattr(scenario.safety_factory(), "name", None),
        holds=False,
        reason=reason,
        seed=seed,
    )
    return trace, stats


def _verify_exhaustive(scenario: Scenario, overrides: Dict[str, Any]) -> Verdict:
    _check_overrides("exhaustive", overrides, _EXHAUSTIVE_OVERRIDES)
    crash = overrides.get("crash")
    if crash not in (None, "", "none"):
        raise UsageError(
            f"the exhaustive backend enumerates the crash-free schedule "
            f"space; a crash model (got {crash!r}) only applies to "
            "backend='fuzz'"
        )
    bounds = scenario.bounds.override(
        max_depth=overrides.get("max_depth"),
        max_configurations=overrides.get("max_configurations"),
    )
    mode = overrides.get("mode", "snapshot")
    reduction = check_reduction(str(overrides.get("reduction", "none")))
    stats: Dict[str, Any] = {
        "max_depth": bounds.max_depth,
        "max_configurations": bounds.max_configurations,
        "mode": mode,
    }
    if reduction != "none":
        stats["reduction"] = reduction
    # Every backend's ``elapsed`` stat is one obs span around the search
    # itself (witness minimization excluded): the span's rounded reading
    # is the one normalized encoding, and the same timer feeds the
    # metrics document whenever a recorder is active.
    error: Optional[Exception] = None
    report = None
    with _obs_span("verify/exhaustive") as span:
        try:
            report = check_all_histories(
                scenario.factory,
                scenario.plan,
                scenario.safety_factory(),
                max_depth=bounds.max_depth,
                max_configurations=bounds.max_configurations,
                mode=mode,
                reduction=reduction,
            )
        except _BUDGET_ERRORS as exc:
            error = exc
    stats["elapsed"] = span.elapsed_stat
    if report is None:
        stats["error"] = str(error)
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="exhaustive",
            outcome="budget-exhausted",
            expected=_expected(scenario, "budget-exhausted"),
            stats=stats,
        )
    stats["runs_checked"] = report.runs_checked
    if report.runs_checked_unreduced is not None:
        stats["runs_checked_unreduced"] = report.runs_checked_unreduced
    if report.counterexample is None:
        stats["certainty"] = "proof"
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="exhaustive",
            outcome="holds",
            expected=_expected(scenario, "holds"),
            stats=stats,
        )
    run = report.counterexample
    trace, witness_stats = _counterexample(
        scenario,
        run.schedule,
        reason=None,  # derived from the replay verdict
        seed=None,
        shrink=bool(overrides.get("shrink", True)),
    )
    stats.update(witness_stats)
    stats["reason"] = trace.reason
    return Verdict(
        scenario_id=scenario.scenario_id,
        backend="exhaustive",
        outcome="violated",
        expected=_expected(scenario, "violated"),
        stats=stats,
        counterexample=trace,
    )


def _verify_fuzz(scenario: Scenario, overrides: Dict[str, Any]) -> Verdict:
    _check_overrides("fuzz", overrides, _FUZZ_OVERRIDES)
    bounds = scenario.bounds.override(
        max_depth=overrides.get("max_depth"),
        iterations=overrides.get("iterations"),
    )
    seed = overrides.get("seed", 0)
    crash = overrides.get("crash", scenario.crash)
    options = {
        key: overrides[key]
        for key in (
            "crash_probability",
            "corpus_size",
            "min_corpus_depth",
            "explore_every",
        )
        if key in overrides
    }
    error: Optional[Exception] = None
    report = None
    with _obs_span("verify/fuzz") as span:
        try:
            report = fuzz_workload(
                scenario,
                seed=seed,
                iterations=bounds.iterations,
                max_depth=bounds.max_depth,
                crash=crash,
                **options,
            )
        except CheckerBudgetExceeded as exc:
            # The safety checker's own search budget (e.g. the opacity
            # serialization search) folds into the same explicit outcome.
            error = exc
    if report is None:
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="fuzz",
            outcome="budget-exhausted",
            expected=_expected(scenario, "budget-exhausted"),
            stats={
                "seed": seed,
                "iterations": bounds.iterations,
                "max_depth": bounds.max_depth,
                "elapsed": span.elapsed_stat,
                "error": str(error),
            },
        )
    stats: Dict[str, Any] = {
        "seed": report.seed,
        "iterations": report.iterations,
        "max_depth": bounds.max_depth,
        "interleavings": report.interleavings,
        "corpus": report.corpus,
        "histories_checked": report.histories_checked,
        "elapsed": span.elapsed_stat,
        "interleavings_per_second": round(report.interleavings_per_second, 1),
    }
    if crash:
        stats["crash"] = crash
    if report.violation is None:
        stats["certainty"] = "horizon"
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="fuzz",
            outcome="holds",
            expected=_expected(scenario, "holds"),
            stats=stats,
        )
    stats["violation_iteration"] = report.violation.iteration
    stats["reason"] = report.violation.reason
    trace, witness_stats = _counterexample(
        scenario,
        report.violation.schedule,
        report.violation.reason,
        seed=report.seed,
        shrink=bool(overrides.get("shrink", True)),
    )
    stats.update(witness_stats)
    return Verdict(
        scenario_id=scenario.scenario_id,
        backend="fuzz",
        outcome="violated",
        expected=_expected(scenario, "violated"),
        stats=stats,
        counterexample=trace,
    )


# ---------------------------------------------------------------------------
# The liveness backend
# ---------------------------------------------------------------------------

#: Preference order when several proof-certainty violations compete for
#: the packaged certificate: exact lassos are unconditionally sound,
#: abstract ones conditionally (bisimulation-quotient contract), finite
#: fair executions carry no cycle at all.
_CERTIFICATE_RANK = {"exact": 0, "abstract": 1, "finite": 2}


def _lasso_artifact(
    scenario: Scenario,
    liveness,
    progress_mode,
    run,
    starving,
    reason: str,
    shrink: bool,
) -> Tuple[LassoTrace, Dict[str, Any]]:
    """Split, minimize (optionally), replay-verify, and package a
    proof-certainty starvation witness as a :class:`LassoTrace`."""
    certificate = run.result.lasso
    if certificate is not None:
        stem = tuple(run.decisions[: certificate.cycle_start])
        cycle = tuple(
            run.decisions[certificate.cycle_start : certificate.cycle_end]
        )
        kind = certificate.fingerprint_kind
    else:  # a complete fair finite execution that starves the victims
        stem = tuple(run.decisions)
        cycle = ()
        kind = "finite"
    stats: Dict[str, Any] = {"lasso_kind": kind}
    if shrink:
        with _obs_span("shrink/lasso"):
            shrunk = shrink_lasso(
                scenario.factory, stem, cycle, kind, liveness, progress_mode,
                starving=starving,
            )
        if shrunk.faithful:
            if (len(shrunk.stem), len(shrunk.cycle)) != (len(stem), len(cycle)):
                stats["lasso_shrunk_from"] = [len(stem), len(cycle)]
            stem, cycle = shrunk.stem, shrunk.cycle
        else:
            stats["lasso_shrink_unfaithful"] = True
        # faithful == the kept stem/cycle passed certifies_starvation
        # during shrinking (replays are deterministic) — re-running the
        # same replay here would be pure duplication.
        replays = shrunk.faithful
    else:
        replays = certifies_starvation(
            scenario.factory, stem, cycle, kind, liveness, progress_mode,
            starving,
        )
    stats["lasso_replays"] = replays
    stats["lasso_stem"] = len(stem)
    stats["lasso_cycle"] = len(cycle)
    trace = LassoTrace(
        stem=tuple(tuple(label) for label in decisions_to_labels(stem)),
        cycle=tuple(tuple(label) for label in decisions_to_labels(cycle)),
        fingerprint_kind=kind,
        scenario=scenario.scenario_id,
        implementation=getattr(scenario.factory(), "name", None),
        liveness=getattr(liveness, "name", None),
        starving=tuple(starving),
        reason=reason,
    )
    return trace, stats


def _verify_liveness(scenario: Scenario, overrides: Dict[str, Any]) -> Verdict:
    from repro.core.properties import Certainty

    _check_overrides("liveness", overrides, _LIVENESS_OVERRIDES)
    if scenario.liveness_factory is None:
        raise UsageError(
            f"scenario {scenario.scenario_id!r} declares no liveness "
            "property; backend='liveness' needs Scenario.liveness_factory "
            "(and optionally an adversary_factory)"
        )
    reduction = check_reduction(str(overrides.get("reduction", "none")))
    if reduction == "dpor-parity":
        unreduced = _verify_liveness(
            scenario, {**overrides, "reduction": "none"}
        )
        reduced = _verify_liveness(scenario, {**overrides, "reduction": "dpor"})
        if unreduced.outcome != reduced.outcome:
            raise DporParityError(
                f"liveness verdict divergence on {scenario.scenario_id}: "
                f"unreduced {unreduced.outcome} "
                f"({unreduced.stats.get('runs')} runs) vs dpor "
                f"{reduced.outcome} ({reduced.stats.get('runs')} runs)"
            )
        reduced.stats["reduction"] = "dpor-parity"
        reduced.stats["runs_unreduced"] = unreduced.stats.get("runs")
        reduced.stats["configurations_unreduced"] = unreduced.stats.get(
            "configurations"
        )
        return reduced
    liveness = scenario.liveness_factory()
    progress_mode = scenario.factory().object_type.progress_mode
    horizon = int(overrides.get("max_depth", scenario.bounds.horizon))
    budget = int(
        overrides.get("max_configurations", scenario.bounds.max_configurations)
    )
    policy = (
        AdversaryPolicy(scenario.adversary_factory())
        if scenario.adversary_factory is not None
        else PlanPolicy(scenario.plan)
    )
    search = LivenessSearch(
        scenario.factory,
        policy,
        max_depth=horizon,
        max_configurations=budget,
        lasso_stride=int(overrides.get("lasso_stride", 1)),
        reduction=reduction,
    )
    stats: Dict[str, Any] = {
        "liveness": getattr(liveness, "name", "?"),
        "policy": policy.name,
        "max_depth": horizon,
        "max_configurations": budget,
    }
    if reduction != "none":
        stats["reduction"] = reduction
    counts = {"lasso": 0, "finite": 0, "horizon": 0}
    runs = escaped = 0
    all_proved = True
    best_proof = None  # (rank, run, starving, reason)
    best_horizon = None  # (run, starving, reason)
    error: Optional[Exception] = None
    with _obs_span("verify/liveness") as span:
        try:
            for run in search.runs():
                runs += 1
                counts[run.kind] += 1
                if run.escaped:
                    escaped += 1
                summary = run.result.summary(progress_mode)
                verdict = liveness.evaluate(summary)
                if verdict.holds:
                    if verdict.certainty is not Certainty.PROVED:
                        all_proved = False
                    continue
                starving = sorted(summary.correct - summary.progressors)
                if verdict.certainty is Certainty.PROVED:
                    kind = (
                        run.result.lasso.fingerprint_kind
                        if run.result.lasso is not None
                        else "finite"
                    )
                    rank = _CERTIFICATE_RANK.get(kind, len(_CERTIFICATE_RANK))
                    if best_proof is None or rank < best_proof[0]:
                        best_proof = (rank, run, starving, verdict.reason)
                elif best_horizon is None:
                    best_horizon = (run, starving, verdict.reason)
        except SearchBudgetExceeded as exc:
            error = exc
    stats["elapsed"] = span.elapsed_stat
    if error is not None:
        stats["error"] = str(error)
        stats["runs"] = runs
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="liveness",
            outcome="budget-exhausted",
            expected=_expected(scenario, "budget-exhausted", "liveness"),
            stats=stats,
        )
    stats["runs"] = runs
    stats["lassos"] = counts["lasso"]
    stats["finite_runs"] = counts["finite"]
    stats["horizon_runs"] = counts["horizon"]
    stats["configurations"] = search.configurations
    if search.merges:
        stats["merged_schedules"] = search.merges
    if escaped:
        stats["escaped"] = escaped
    if best_proof is not None:
        _, run, starving, reason = best_proof
        stats["certainty"] = "proof"
        stats["starving"] = starving
        stats["reason"] = reason
        trace, witness_stats = _lasso_artifact(
            scenario,
            liveness,
            progress_mode,
            run,
            starving,
            reason,
            shrink=bool(overrides.get("shrink", True)),
        )
        stats.update(witness_stats)
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="liveness",
            outcome="violated",
            expected=_expected(scenario, "violated", "liveness"),
            stats=stats,
            lasso=trace,
        )
    if best_horizon is not None:
        run, starving, reason = best_horizon
        stats["certainty"] = "horizon"
        stats["starving"] = starving
        stats["reason"] = reason
        stats["horizon_steps"] = run.result.total_steps
        return Verdict(
            scenario_id=scenario.scenario_id,
            backend="liveness",
            outcome="violated",
            expected=_expected(scenario, "violated", "liveness"),
            stats=stats,
        )
    stats["certainty"] = "proof" if all_proved and runs else "horizon"
    return Verdict(
        scenario_id=scenario.scenario_id,
        backend="liveness",
        outcome="holds",
        expected=_expected(scenario, "holds", "liveness"),
        stats=stats,
    )


def verify(
    scenario: Union[str, Scenario],
    backend: str = "exhaustive",
    cache: Optional[str] = None,
    cache_path: Optional[str] = None,
    **overrides: Any,
) -> Verdict:
    """Verify one scenario under one backend; see the module docstring.

    ``backend="auto"`` picks ``exhaustive`` for scenarios tagged
    ``small`` (a full proof is affordable there) and ``fuzz``
    otherwise — the CLI default.  Auto mode may resolve the scenarios
    of one mixed list to different backends, so it drops the overrides
    exclusive to the backend it did *not* pick
    (:data:`FUZZ_ONLY_OVERRIDES` / :data:`EXHAUSTIVE_ONLY_OVERRIDES`)
    instead of erroring; an explicit backend stays strict.

    ``cache`` selects the content-addressed verdict cache mode
    (:mod:`repro.service`): ``"off"`` (the default — this code path is
    byte-identical to the pre-cache facade), ``"read"`` (hits are
    served from the cache, misses are computed but not stored), or
    ``"readwrite"`` (misses are stored for the next caller).  ``None``
    defers to the ``REPRO_VERIFY_CACHE`` environment variable (how the
    campaign worker pool shares one mode), falling back to ``"off"``.
    ``cache_path`` names the SQLite cache file (default:
    ``REPRO_CACHE_DB`` or ``verdicts.db``).  A cache hit returns
    :meth:`Verdict.from_document` of the stored text, parsed — serialized
    byte-identically to the cold verdict — flagged with the in-memory
    markers ``verdict.cached=True`` / ``verdict.cache_key``; a miss
    under any mode also carries its ``cache_key``.

    When an obs recorder is active (``repro.obs.recording``), the call
    runs under a nested per-verify recorder and attaches its
    ``repro-metrics`` v1 document as ``verdict.stats["metrics"]`` (also
    available as ``verdict.metrics``).  The sub-document lives on the
    in-memory verdict only: :meth:`Verdict.to_document` excludes it, so
    serialized verdicts are byte-identical with metrics on or off, and
    with no recorder installed the stats gain no keys at all.

    The backend (not the cache lookup) runs under
    :func:`_collector_policy`: a raised young-generation threshold,
    undone on return.
    """
    scenario = get_scenario(scenario)
    resolved = resolve_backend(scenario, backend)
    if resolved not in BACKENDS:
        raise unknown_choice("verify backend", resolved, BACKENDS + ("auto",))
    if backend == "auto":
        dropped = (
            FUZZ_ONLY_OVERRIDES
            if resolved == "exhaustive"
            else EXHAUSTIVE_ONLY_OVERRIDES
        )
        overrides = {
            key: value for key, value in overrides.items() if key not in dropped
        }

    def dispatch() -> Verdict:
        with _collector_policy():
            if resolved == "exhaustive":
                return _verify_exhaustive(scenario, overrides)
            if resolved == "liveness":
                return _verify_liveness(scenario, overrides)
            return _verify_fuzz(scenario, overrides)

    def observed() -> Verdict:
        parent = _obs_active()
        if parent is None:
            return dispatch()
        with _obs_recording(
            label=f"verify:{scenario.scenario_id}", trace=parent.trace
        ) as recorder:
            verdict = dispatch()
        verdict.stats["metrics"] = metrics_document(recorder)
        return verdict

    if cache is None:
        cache = os.environ.get("REPRO_VERIFY_CACHE", "").strip() or "off"
    # Imported lazily and only on the cache path: the "off" path must
    # stay byte-identical to (and as import-light as) the pre-cache
    # facade.
    if cache != "off":
        from repro.service.cache import VerdictCache, check_cache_mode

        mode = check_cache_mode(cache)
        from repro.service.keys import cache_key as _cache_key

        key = _cache_key(scenario, resolved, overrides)
        with VerdictCache.open(cache_path) as store:
            text = store.get(key)
            if text is not None:
                hit = Verdict.from_document(json.loads(text))
                hit.cached = True
                hit.cache_key = key
                return hit
            verdict = observed()
            if mode == "readwrite":
                store.put(key, verdict.to_document())
        verdict.cache_key = key
        return verdict
    return observed()

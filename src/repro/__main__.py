"""Command-line entry point: run the paper's experiments.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig1a            # one experiment
    python -m repro run all              # everything (exit 1 on mismatch)
    python -m repro run fig1b --param n=4 --param max_steps=300

    python -m repro scenarios list                    # the scenario catalog
    python -m repro scenarios list --tag small --format md
    python -m repro scenarios list --family tm-grid   # generated instances
    python -m repro scenarios list --no-families      # curated catalog only
    python -m repro verify agp-opacity                # exhaustive proof
    python -m repro verify tm-grid:impl=norec,n=2,plan=rw,vars=2
    python -m repro verify agp-opacity-3p --backend fuzz --set seed=7
    python -m repro verify stubborn-consensus --out verdict.json
    python -m repro verify trivial-local-progress-f1 --backend liveness
    python -m repro verify agp-opacity --metrics-out m.json --trace-out t.json
    python -m repro profile agp-opacity --backend fuzz     # hotspot table

    python -m repro campaign init --grid fig1a n=2..4 seed=0..4
    python -m repro campaign init --grid verify scenario=agp-opacity backend=fuzz seed=0..4
    python -m repro campaign run --workers 4 --trace-out trace.json
    python -m repro campaign status
    python -m repro campaign status --watch          # live progress + ETA
    python -m repro campaign export --out campaign.json --metrics-out m.json

    python -m repro fuzz --list                       # fuzzable scenarios
    python -m repro fuzz agp-opacity --seed 7         # random sampling
    python -m repro fuzz small --oracle               # vs exhaustive
    python -m repro fuzz stubborn-consensus --artifact-dir artifacts/
    python -m repro fuzz --replay artifacts/fuzz-....json

    python -m repro mutate --list                     # the seeded mutants
    python -m repro mutate --backend fuzz --backend liveness --out kill.json
    python -m repro mutate --mutant agp-dropped-cas --md

    python -m repro verify agp-opacity --cache readwrite   # memoized verify
    python -m repro serve --port 8765 --workers 4          # HTTP service
    python -m repro cache stats                            # verdict cache
    python -m repro cache gc                               # evict stale code

    python -m repro lint                              # project static analysis
    python -m repro lint --list-rules                 # the rule table
    python -m repro lint --select FP001,OB001 --format md
    python -m repro lint --footprints                 # static vs dynamic FP001

Exit codes: 0 all claims OK (verify/fuzz: every verdict as expected /
oracle agreement), 1 a paper claim mismatched, a job failed, or a
verdict surprised (including budget-exhausted), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List

from repro.analysis import EXPERIMENTS, run_experiment
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    export_campaign,
    render_results,
    render_status,
    run_campaign,
    store_all_ok,
)
from repro.util.errors import UsageError
from repro.util.params import parse_params

#: Default campaign store path (override with ``--store``).
DEFAULT_STORE = "campaign.db"


def _parse_params(pairs: List[str], option: str = "--param") -> Dict[str, Any]:
    """Parse ``key=value`` pairs (the shared
    :func:`repro.util.params.parse_params` grammar; malformed pairs are
    usage errors -> exit code 2)."""
    return parse_params(pairs, option=option)


def cmd_list() -> int:
    width = max(len(spec.experiment_id) for spec in EXPERIMENTS.values())
    for experiment_id in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[experiment_id]
        axes = f"  [axes: {', '.join(spec.grid_axes)}]" if spec.grid_axes else ""
        print(f"{experiment_id:<{width}}  {spec.title}{axes}")
    return 0


def cmd_run(targets: List[str], params: Dict[str, Any]) -> int:
    if targets == ["all"]:
        targets = sorted(EXPERIMENTS)
    failures = 0
    for experiment_id in targets:
        if experiment_id not in EXPERIMENTS:
            print(f"unknown experiment {experiment_id!r}; try 'list'", file=sys.stderr)
            return 2
        started = time.time()
        result = run_experiment(experiment_id, **params) if params else run_experiment(
            experiment_id
        )
        elapsed = time.time() - started
        print(result.render())
        print(f"[{experiment_id}] {'ALL OK' if result.all_ok else 'MISMATCH'} "
              f"({elapsed:.2f}s)")
        print()
        if not result.all_ok:
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# campaign subcommands
# ---------------------------------------------------------------------------


def cmd_campaign_init(arguments) -> int:
    spec = CampaignSpec.from_cli(
        arguments.grid, arguments.axes, name=arguments.name
    )
    jobs = spec.expand()
    with CampaignStore.create(arguments.store, spec) as store:
        added = store.add_jobs(jobs)
        counts = store.counts()
    total = sum(counts.values())
    print(
        f"{arguments.store}: {added} job(s) added "
        f"({len(jobs) - added} already present), {total} total "
        f"({counts['done']} done, {counts['pending']} pending)"
    )
    return 0


def cmd_campaign_run(arguments) -> int:
    if arguments.cache is not None:
        # The worker pool forks, so the cache configuration travels by
        # environment: every verify() a job issues sees the same mode
        # and shares the one WAL store.
        from repro.service import check_cache_mode, default_cache_path

        os.environ["REPRO_VERIFY_CACHE"] = check_cache_mode(arguments.cache)
        os.environ["REPRO_CACHE_DB"] = default_cache_path(arguments.cache_db)
    trace_dir = None
    stack = contextlib.ExitStack()
    with stack:
        if arguments.trace_out is not None:
            # Workers write per-process trace fragments here; merged
            # into one Perfetto timeline (a lane per worker) below.
            trace_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-trace-")
            )
        summary = run_campaign(
            arguments.store,
            workers=arguments.workers,
            max_jobs=arguments.max_jobs,
            reclaim=not arguments.no_reclaim,
            metrics=arguments.metrics_out is not None,
            trace_dir=trace_dir,
        )
        if arguments.trace_out is not None:
            from repro.obs import merge_trace_fragments, write_trace

            fragments = sorted(
                os.path.join(trace_dir, name)
                for name in os.listdir(trace_dir)
            )
            events, names = merge_trace_fragments(fragments)
            write_trace(arguments.trace_out, events, names)
            print(f"wrote {arguments.trace_out} ({len(names)} worker lane(s))")
    if arguments.metrics_out is not None:
        from repro.campaign import merged_metrics
        from repro.obs import write_metrics

        with CampaignStore.open(arguments.store) as store:
            write_metrics(arguments.metrics_out, merged_metrics(store))
        print(f"wrote {arguments.metrics_out}")
    print(
        f"executed {summary['executed']} job(s)"
        + (f" (reclaimed {summary['reclaimed']})" if summary["reclaimed"] else "")
        + f"; store now: {summary['done']} done, {summary['failed']} failed, "
        f"{summary['claimed']} claimed, {summary['pending']} pending"
    )
    with CampaignStore.open(arguments.store) as store:
        complete = summary["pending"] == 0 and summary["claimed"] == 0
        return 0 if store_all_ok(store) and complete else 1


def cmd_campaign_status(arguments) -> int:
    if arguments.watch:
        from repro.campaign import watch_status

        watch_status(arguments.store, interval=arguments.interval)
        print("campaign finished; final status:")
        # fall through to the one-shot report for the closing summary
    with CampaignStore.open(arguments.store) as store:
        done = store.jobs("done")
        print(render_status(store, done_records=done))
        if arguments.render:
            print()
            print(render_results(store))
        counts = store.counts()
        ok = (
            store_all_ok(store, done_records=done)
            and counts["pending"] == counts["claimed"] == 0
        )
    return 0 if ok else 1


def cmd_campaign_reset(arguments) -> int:
    statuses: List[str] = []
    if arguments.failed or not (arguments.claimed or arguments.all):
        statuses.append("failed")
    if arguments.claimed:
        statuses.append("claimed")
    if arguments.all:
        statuses = ["claimed", "done", "failed"]
    with CampaignStore.open(arguments.store) as store:
        count = store.reset(statuses, experiment=arguments.experiment)
    print(f"reset {count} job(s) ({', '.join(statuses)} -> pending)")
    return 0


def cmd_campaign_export(arguments) -> int:
    with CampaignStore.open(arguments.store) as store:
        document = export_campaign(store)
        if arguments.metrics_out is not None:
            from repro.campaign import merged_metrics
            from repro.obs import write_metrics

            write_metrics(arguments.metrics_out, merged_metrics(store))
            print(f"wrote {arguments.metrics_out}", file=sys.stderr)
        if arguments.render:
            # keep stdout a pure JSON stream when no --out is given
            print(render_results(store), file=sys.stdout if arguments.out else sys.stderr)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {arguments.out}")
    else:
        sys.stdout.write(document)
    return 0


# ---------------------------------------------------------------------------
# fuzz subcommand
# ---------------------------------------------------------------------------


def _fuzz_targets(names: List[str]) -> List[str]:
    from repro.scenarios import iter_scenarios, scenario_ids

    if not names:
        return ["agp-opacity"]
    if names == ["all"]:
        return scenario_ids()
    if names == ["small"]:
        return [scenario.scenario_id for scenario in iter_scenarios(tags="small")]
    return names


def cmd_fuzz(arguments) -> int:
    from repro.fuzz import (
        ReplayTrace,
        differential_check,
        fuzz_workload,
        load_trace,
        replay_schedule,
        save_trace,
        shrink_schedule,
    )
    from repro.scenarios import get_scenario, iter_scenarios

    if arguments.list_workloads:
        scenarios = iter_scenarios()
        width = max(len(scenario.scenario_id) for scenario in scenarios)
        for spec in scenarios:
            tags = ("violating" if spec.expect_violation else "satisfying") + (
                ", oracle-eligible" if spec.small else ""
            )
            print(f"{spec.scenario_id:<{width}}  [{tags}]  {spec.notes}")
        return 0

    if arguments.replay is not None:
        trace = load_trace(arguments.replay)
        if not trace.workload:
            raise UsageError(
                f"trace {arguments.replay!r} names no workload; cannot "
                "reconstruct the implementation to replay against"
            )
        spec = get_scenario(trace.workload)
        replay = replay_schedule(
            spec.factory, trace.plan, trace.schedule, spec.safety_factory()
        )
        if not replay.valid:
            print(f"replay invalid: {replay.error}")
            return 1
        holds = replay.verdict.holds
        print(
            f"{trace.workload}: replayed {len(trace.schedule)} steps, "
            f"safety {'holds' if holds else 'violated'}"
            + (f" ({replay.verdict.reason})" if not holds else "")
        )
        if trace.holds is not None and holds != trace.holds:
            print(
                f"MISMATCH: trace records holds={trace.holds}", file=sys.stderr
            )
            return 1
        return 0

    if arguments.oracle and arguments.crash:
        raise UsageError(
            "--crash only applies to plain fuzzing; the oracle compares "
            "verdicts over the crash-free schedule space"
        )
    surprises = 0
    for name in _fuzz_targets(arguments.workloads):
        spec = get_scenario(name)
        if arguments.oracle:
            oracle = differential_check(
                spec,
                seed=arguments.seed,
                iterations=arguments.iterations,
                max_depth=arguments.max_depth,
            )
            report = oracle.fuzz
            ok = oracle.agree
            print(
                f"[{name}] oracle: exhaustive="
                f"{'holds' if oracle.exhaustive_holds else 'violated'} "
                f"({oracle.exhaustive_runs} runs), fuzz="
                f"{'holds' if oracle.fuzz_holds else 'violated'} "
                f"({report.interleavings} interleavings) -> "
                f"{'AGREE' if ok else 'DISAGREE'}"
            )
        else:
            report = fuzz_workload(
                spec,
                seed=arguments.seed,
                iterations=arguments.iterations,
                max_depth=arguments.max_depth,
                crash=arguments.crash,
            )
            ok = (report.violation is not None) == spec.expect_violation
            verdict = (
                f"violation at iteration {report.violation.iteration}"
                if report.violation
                else "no violation"
            )
            print(
                f"[{name}] {verdict} "
                f"({report.interleavings} interleavings, "
                f"{report.coverage} states covered, "
                f"{report.interleavings_per_second:,.0f}/s) -> "
                f"{'expected' if ok else 'SURPRISE'}"
            )
        if not ok:
            surprises += 1
        if report.violation is not None and not arguments.no_shrink:
            shrunk = shrink_schedule(
                spec.factory,
                spec.plan,
                report.violation.schedule,
                spec.safety_factory(),
            )
            rendered = " ".join(f"{k}(p{p})" for k, p in shrunk.schedule)
            print(
                f"  shrunk {shrunk.original_length} -> "
                f"{len(shrunk.schedule)} steps: {rendered}"
            )
            # The shrinker replays candidates from snapshots of its
            # witness; an artifact must stand on its own, so re-execute
            # it from step 0 on the plain runtime with a fresh checker.
            replay = replay_schedule(
                spec.factory, spec.plan, shrunk.schedule, spec.safety_factory()
            )
            if not replay.violates:
                print(
                    "  SURPRISE: the shrunk schedule does not re-violate on "
                    "a fresh replay; no artifact written"
                )
                surprises += 1
            elif arguments.artifact_dir is not None:
                os.makedirs(arguments.artifact_dir, exist_ok=True)
                path = os.path.join(
                    arguments.artifact_dir,
                    f"fuzz-{name}-seed{arguments.seed}.json",
                )
                save_trace(
                    path,
                    ReplayTrace(
                        plan=spec.plan,
                        schedule=shrunk.schedule,
                        workload=spec.name,
                        implementation=spec.factory().name,
                        safety=spec.safety_factory().name,
                        holds=False,
                        reason=report.violation.reason,
                        seed=report.seed,
                    ),
                )
                print(f"  wrote {path}")
    return 1 if surprises else 0


# ---------------------------------------------------------------------------
# scenarios / verify subcommands
# ---------------------------------------------------------------------------


def _scenario_rows(
    tags: List[str], family: str = None, no_families: bool = False
) -> List[Dict[str, str]]:
    from repro.scenarios import TAG_FAMILY, get_family, iter_scenarios

    wanted = list(tags or [])
    if family is not None:
        get_family(family)  # unknown family ids fail with a suggestion
        wanted.append(f"family:{family}")
    scenarios = iter_scenarios(tags=wanted or None)
    if no_families:
        scenarios = [
            scenario
            for scenario in scenarios
            if not scenario.has_tags(TAG_FAMILY)
        ]
    if not scenarios:
        raise UsageError(
            f"no registered scenario carries all of the tags {wanted!r}"
        )
    return [scenario.describe() for scenario in scenarios]


def cmd_scenarios(arguments) -> int:
    if arguments.scenarios_command != "list":  # pragma: no cover - argparse
        raise UsageError(f"unknown scenarios command {arguments.scenarios_command!r}")
    if arguments.family is not None and arguments.no_families:
        raise UsageError(
            "--family selects generated instances and --no-families hides "
            "them; the combination can never match a scenario"
        )
    rows = _scenario_rows(
        arguments.tag, family=arguments.family, no_families=arguments.no_families
    )
    columns = ("id", "object", "property", "tags", "notes")
    if arguments.format == "md":
        print("| " + " | ".join(columns) + " |")
        print("|" + "|".join("---" for _ in columns) + "|")
        for row in rows:
            cells = [f"`{row['id']}`", f"`{row['object']}`",
                     f"`{row['property']}`", row["tags"], row["notes"]]
            print("| " + " | ".join(cells) + " |")
        return 0
    widths = {
        column: max([len(column)] + [len(row[column]) for row in rows])
        for column in columns[:-1]
    }
    header = "  ".join(f"{column:<{widths[column]}}" for column in columns[:-1])
    print(header + "  notes")
    print("=" * len(header) + "=======")
    for row in rows:
        line = "  ".join(f"{row[column]:<{widths[column]}}" for column in columns[:-1])
        print(line + "  " + row["notes"])
    return 0


def cmd_verify(arguments) -> int:
    from repro.scenarios import get_scenario, verify

    overrides = _parse_params(arguments.set, option="--set")
    if arguments.cache is not None:
        from repro.service import check_cache_mode

        check_cache_mode(arguments.cache)  # fail fast -> exit 2
    # Fail fast on unknown ids, before any scenario runs.
    scenarios = [get_scenario(s) for s in arguments.scenarios]
    observe = arguments.metrics_out is not None or arguments.trace_out is not None
    with contextlib.ExitStack() as stack:
        recorder = None
        if observe:
            # One session recorder: verify() nests a per-scenario
            # recorder inside it, so each verdict gets its own metrics
            # document while this one accumulates the totals and every
            # trace event.
            from repro.obs import recording

            recorder = stack.enter_context(
                recording(
                    label="verify-cli", trace=arguments.trace_out is not None
                )
            )
        surprises = _verify_scenarios(arguments, scenarios, overrides, recorder)
    return 1 if surprises else 0


def _verify_scenarios(arguments, scenarios, overrides, recorder) -> int:
    from repro.scenarios import verify

    documents = []
    metric_documents = []
    surprises = 0
    for scenario in scenarios:
        # Auto mode may mix backends across the listed scenarios; the
        # library-level facade drops the knobs the resolved backend
        # does not own (an explicit --backend stays strict).
        verdict = verify(
            scenario,
            backend=arguments.backend,
            cache=arguments.cache,
            cache_path=arguments.cache_db,
            **overrides,
        )
        documents.append(verdict.to_document())
        if verdict.metrics is not None:
            metric_documents.append(verdict.metrics)
        stats = verdict.stats
        if verdict.cached:
            evidence = f"cache hit {verdict.cache_key[:12]}"
        elif verdict.budget_exhausted:
            evidence = "search budget exceeded"
        elif "runs_checked" in stats:
            evidence = f"{stats['runs_checked']} runs enumerated"
        elif "runs" in stats:
            evidence = (
                f"{stats['runs']} maximal runs classified, "
                f"certainty {stats.get('certainty')}"
            )
        else:
            evidence = f"{stats.get('interleavings', 0)} interleavings sampled"
        print(
            f"[{scenario.scenario_id}] {verdict.backend}: {verdict.outcome} "
            f"({evidence}) -> "
            f"{'expected' if verdict.expected else 'SURPRISE'}"
        )
        if verdict.lasso is not None:
            replays = stats.get("lasso_replays")
            print(
                f"  lasso certificate ({verdict.lasso.fingerprint_kind}: "
                f"stem {stats.get('lasso_stem')} + cycle "
                f"{stats.get('lasso_cycle')} steps, starving "
                f"{list(verdict.lasso.starving)}, replay "
                f"{'re-certifies' if replays else 'FAILS (!)'})"
            )
        if verdict.counterexample is not None:
            rendered = " ".join(
                f"{kind}(p{pid})" for kind, pid in verdict.counterexample.schedule
            )
            replays = stats.get("counterexample_replays")
            if replays is None:
                # Replay never ran (the checker budget blew during
                # minimization); "passes (!)" would discredit a
                # genuine violation.
                replay_note = "replay skipped: " + stats.get(
                    "witness_check_error", "not run"
                )
            else:
                replay_note = f"replay {'violates' if replays else 'passes (!)'}"
            print(
                f"  counterexample ({len(verdict.counterexample.schedule)} "
                f"steps, {replay_note}): {rendered}"
            )
        if not verdict.expected:
            surprises += 1
    if arguments.out is not None:
        document = documents[0] if len(documents) == 1 else documents
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {arguments.out}")
    if arguments.metrics_out is not None:
        from repro.obs import merge_metrics, write_metrics

        merged = (
            metric_documents[0]
            if len(metric_documents) == 1
            else merge_metrics(metric_documents, label="verify-cli")
        )
        write_metrics(arguments.metrics_out, merged)
        print(f"wrote {arguments.metrics_out}")
    if arguments.trace_out is not None:
        from repro.obs import write_trace

        write_trace(arguments.trace_out, recorder.trace_events)
        print(f"wrote {arguments.trace_out}")
    return surprises


def cmd_profile(arguments) -> int:
    from repro.obs import render_metrics_summary
    from repro.obs.profile import profile_verify, render_hotspots

    overrides = _parse_params(arguments.set, option="--set")
    report = profile_verify(
        arguments.scenario,
        backend=arguments.backend,
        overrides=overrides,
        top=arguments.top,
    )
    verdict = report.verdict
    print(
        f"[{verdict.scenario_id}] {verdict.backend}: {verdict.outcome} -> "
        f"{'expected' if verdict.expected else 'SURPRISE'}"
    )
    print()
    print(render_hotspots(report.hotspots))
    print()
    print(render_metrics_summary(report.metrics))
    if arguments.metrics_out is not None:
        from repro.obs import write_metrics

        write_metrics(arguments.metrics_out, report.metrics)
        print(f"wrote {arguments.metrics_out}")
    return 0 if verdict.expected else 1


def cmd_mutate(arguments) -> int:
    from repro.mutate import get_mutant, iter_mutants, kill_matrix

    if arguments.list_mutants:
        mutants = iter_mutants()
        width = max(len(mutant.mutant_id) for mutant in mutants)
        for mutant in mutants:
            print(
                f"{mutant.mutant_id:<{width}}  [{mutant.kind} on "
                f"{mutant.target}; expected killers: "
                f"{', '.join(mutant.expected_killers)}]  {mutant.description}"
            )
        return 0

    # Fail fast on unknown mutant ids, before any cell runs.
    chosen = (
        [get_mutant(mutant_id) for mutant_id in arguments.mutant]
        if arguments.mutant
        else None
    )
    matrix = kill_matrix(
        mutants=chosen,
        seed=arguments.seed,
        iterations=arguments.iterations,
        backends=arguments.backend or None,
    )
    for mutant in matrix.mutants:
        killed_by = matrix.killed_by(mutant.mutant_id)
        cells = matrix.cells_for(mutant.mutant_id)
        missed = [
            cell.backend
            for cell in cells
            if cell.expected_kill and not cell.killed
        ]
        false = [cell.backend for cell in cells if cell.false_kill]
        status = "killed by " + ", ".join(killed_by) if killed_by else "SURVIVED"
        if missed:
            status += f"; MISSED by expected {', '.join(missed)}"
        if false:
            status += f"; FALSE KILL on baseline ({', '.join(false)})"
        print(f"[{mutant.mutant_id}] {status}")
    expected = matrix.expected_cells
    achieved = sum(1 for cell in expected if cell.killed)
    ok = (
        matrix.sensitivity >= arguments.min_sensitivity
        and not matrix.false_kills
    )
    print(
        f"sensitivity {matrix.sensitivity:.2f} "
        f"({achieved}/{len(expected)} expected kills), "
        f"{len(matrix.false_kills)} false kill(s) -> "
        f"{'OK' if ok else 'FAIL'} "
        f"(gate: >= {arguments.min_sensitivity:.2f}, 0 false kills)"
    )
    if arguments.md:
        print()
        print(matrix.render_markdown())
    if arguments.out is not None:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(matrix.to_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {arguments.out}")
    return 0 if ok else 1


def cmd_campaign(arguments) -> int:
    handlers = {
        "init": cmd_campaign_init,
        "run": cmd_campaign_run,
        "status": cmd_campaign_status,
        "reset": cmd_campaign_reset,
        "export": cmd_campaign_export,
    }
    return handlers[arguments.campaign_command](arguments)


def _add_campaign_parser(subparsers) -> None:
    campaign = subparsers.add_parser(
        "campaign",
        help="persistent, resumable experiment sweeps (grid -> store -> workers)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def store_arg(parser) -> None:
        parser.add_argument(
            "--store", default=DEFAULT_STORE,
            help=f"campaign store path (default: {DEFAULT_STORE})",
        )

    init = campaign_sub.add_parser(
        "init", help="expand a parameter grid into the store (idempotent)"
    )
    store_arg(init)
    init.add_argument(
        "--grid", action="append", default=[], metavar="EXPERIMENT",
        help="experiment id to sweep (repeatable; default: all experiments)",
    )
    init.add_argument("--name", default="campaign", help="campaign name")
    init.add_argument(
        "axes", nargs="*", metavar="axis=values",
        help="grid axes, e.g. n=2..4 seed=0..4 crash=none,p0@40 "
        "registry=commit-adopt lk=2x3; axes an experiment does not "
        "support are dropped for it",
    )

    run = campaign_sub.add_parser("run", help="execute open jobs from the store")
    store_arg(run)
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_ENGINE_PARALLEL; 0/1 = serial)",
    )
    run.add_argument(
        "--max-jobs", type=int, default=None,
        help="execute at most this many jobs (serial only)",
    )
    run.add_argument(
        "--no-reclaim", action="store_true",
        help="do not recover claims of dead local workers first",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="store per-job metrics and write the merged repro-metrics "
        "document here after the run",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace of the run (one lane per "
        "worker process; implies per-job metrics)",
    )
    run.add_argument(
        "--cache", default=None, choices=("off", "read", "readwrite"),
        help="verdict cache mode for every verify the campaign issues "
        "(threaded to fork workers via REPRO_VERIFY_CACHE)",
    )
    run.add_argument(
        "--cache-db", default=None, metavar="FILE",
        help="verdict cache path shared by the workers "
        "(default: REPRO_CACHE_DB or verdicts.db)",
    )

    status = campaign_sub.add_parser("status", help="job counts and failures")
    store_arg(status)
    status.add_argument(
        "--render", action="store_true",
        help="also re-render claim tables and grids from stored results",
    )
    status.add_argument(
        "--watch", action="store_true",
        help="poll the store and print live progress (done/claimed/failed, "
        "jobs/s, ETA) until no open jobs remain",
    )
    status.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="--watch poll interval (default: 2.0)",
    )

    reset = campaign_sub.add_parser(
        "reset", help="send failed (default), claimed, or all jobs back to pending"
    )
    store_arg(reset)
    reset.add_argument("--failed", action="store_true", help="reset failed jobs")
    reset.add_argument("--claimed", action="store_true", help="reset claimed jobs")
    reset.add_argument("--all", action="store_true", help="reset every job")
    reset.add_argument(
        "--experiment", default=None, help="restrict to one experiment id"
    )

    export = campaign_sub.add_parser(
        "export", help="deterministic JSON export of the store"
    )
    store_arg(export)
    export.add_argument("--out", default=None, help="write to file instead of stdout")
    export.add_argument(
        "--render", action="store_true",
        help="also re-render claim tables and grids from stored results",
    )
    export.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the merged repro-metrics document of the campaign "
        "(requires a run with --metrics-out/--trace-out)",
    )


def _add_fuzz_parser(subparsers) -> None:
    fuzz = subparsers.add_parser(
        "fuzz",
        help="randomized schedule/crash fuzzing (+ differential oracle)",
    )
    fuzz.add_argument(
        "workloads", nargs="*", metavar="scenario",
        help="scenario ids (default: agp-opacity); 'all' = every "
        "registered scenario, 'small' = the oracle-eligible ones",
    )
    fuzz.add_argument(
        "--list", action="store_true", dest="list_workloads",
        help="list the registered scenarios (all are fuzzable)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="master fuzz seed")
    fuzz.add_argument(
        "--iterations", type=int, default=2_000,
        help="interleavings to sample per workload (default: 2000)",
    )
    fuzz.add_argument(
        "--max-depth", type=int, default=64, help="schedule depth bound"
    )
    fuzz.add_argument(
        "--crash", default=None,
        help="crash pattern injected into every exploration walk "
        "(p0@40+p1@60 syntax; default: randomized crash points)",
    )
    fuzz.add_argument(
        "--oracle", action="store_true",
        help="cross-check fuzz verdicts against the exhaustive engine "
        "(small workloads only)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="do not minimize found violations",
    )
    fuzz.add_argument(
        "--artifact-dir", default=None,
        help="write shrunk counterexample traces (replayable JSON) here",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="TRACE",
        help="replay a trace file and re-judge it instead of fuzzing",
    )


def _add_scenarios_parser(subparsers) -> None:
    scenarios = subparsers.add_parser(
        "scenarios",
        help="the declarative scenario registry (one catalog, every backend)",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )
    lister = scenarios_sub.add_parser("list", help="list registered scenarios")
    lister.add_argument(
        "--tag", action="append", default=[], metavar="TAG",
        help="only scenarios carrying this tag (repeatable; AND semantics)",
    )
    lister.add_argument(
        "--format", choices=("text", "md"), default="text",
        help="output format: aligned text (default) or a Markdown table "
        "(the README scenario catalog is generated with --format=md)",
    )
    lister.add_argument(
        "--family", default=None, metavar="FAMILY",
        help="only instances generated by this scenario family "
        "(shorthand for --tag family:FAMILY, with id validation)",
    )
    lister.add_argument(
        "--no-families", action="store_true",
        help="hide generated family instances (the curated catalog only; "
        "the README table is generated with this flag)",
    )


def _add_mutate_parser(subparsers) -> None:
    mutate = subparsers.add_parser(
        "mutate",
        help="mutation-test the oracles: seeded bugs vs the verify backends",
    )
    mutate.add_argument(
        "--list", action="store_true", dest="list_mutants",
        help="list the seeded mutants and their expected killers",
    )
    mutate.add_argument(
        "--mutant", action="append", default=[], metavar="ID",
        help="restrict the matrix to this mutant (repeatable; "
        "default: all mutants)",
    )
    mutate.add_argument(
        "--backend", action="append", default=[],
        choices=("exhaustive", "fuzz", "liveness"), metavar="BACKEND",
        help="restrict the evaluated backends (repeatable; the CI "
        "mutation-smoke job runs the fast fuzz+liveness slice)",
    )
    mutate.add_argument("--seed", type=int, default=0, help="fuzz seed")
    mutate.add_argument(
        "--iterations", type=int, default=None,
        help="fuzz sampling budget per cell (default: scenario bounds)",
    )
    mutate.add_argument(
        "--min-sensitivity", type=float, default=1.0, metavar="SCORE",
        help="fail (exit 1) when the achieved/expected kill ratio drops "
        "below this (default: 1.0, the seed score)",
    )
    mutate.add_argument(
        "--md", action="store_true",
        help="also print the kill matrix as a Markdown table",
    )
    mutate.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the kill-matrix JSON artifact (repro-kill-matrix v1)",
    )


def _add_verify_parser(subparsers) -> None:
    verify = subparsers.add_parser(
        "verify",
        help="verify registered scenarios through the uniform facade",
    )
    verify.add_argument(
        "scenarios", nargs="+", metavar="scenario",
        help="scenario ids (see 'scenarios list')",
    )
    verify.add_argument(
        "--backend", choices=("auto", "exhaustive", "fuzz", "liveness"),
        default="auto",
        help="verification backend; 'auto' (default) picks 'exhaustive' "
        "for scenarios tagged small and 'fuzz' otherwise; 'liveness' "
        "judges the scenario's liveness property over every maximal "
        "run (scenarios tagged 'liveness' only)",
    )
    verify.add_argument(
        "--set", action="append", default=[], metavar="key=value",
        help="verify override as key=value (repeatable): seed, iterations, "
        "max_depth, max_configurations, crash, shrink, lasso_stride, "
        "reduction (none|dpor|dpor-parity: partial-order reduction for "
        "exhaustive/liveness search), ...",
    )
    verify.add_argument(
        "--cache", default=None, choices=("off", "read", "readwrite"),
        help="content-addressed verdict cache mode (default: the "
        "REPRO_VERIFY_CACHE environment variable, else off); hits are "
        "byte-identical to the cold verdict document",
    )
    verify.add_argument(
        "--cache-db", default=None, metavar="FILE",
        help="verdict cache path (default: REPRO_CACHE_DB or verdicts.db)",
    )
    verify.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the verdict document(s) as JSON here",
    )
    verify.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="run with instrumentation on and write the repro-metrics "
        "document (merged across scenarios) here; the verdict and "
        "--out artifact stay byte-identical either way",
    )
    verify.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write a Chrome/Perfetto trace of the span timeline",
    )


def _add_profile_parser(subparsers) -> None:
    profile = subparsers.add_parser(
        "profile",
        help="profile one scenario verification: cProfile hotspot table "
        "+ span/counter summary",
    )
    profile.add_argument(
        "scenario", metavar="scenario",
        help="scenario id (see 'scenarios list')",
    )
    profile.add_argument(
        "--backend", choices=("auto", "exhaustive", "fuzz", "liveness"),
        default="auto", help="verification backend (as in 'verify')",
    )
    profile.add_argument(
        "--set", action="append", default=[], metavar="key=value",
        help="verify override as key=value (repeatable)",
    )
    profile.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="hotspot rows to print (default: 20)",
    )
    profile.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="also write the run's repro-metrics document here",
    )


def cmd_serve(arguments) -> int:
    from repro.service.server import serve

    return serve(
        host=arguments.host,
        port=arguments.port,
        cache_path=arguments.cache_db,
        workers=arguments.workers,
    )


def _add_serve_parser(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="run the verification HTTP service (submit/poll verify "
        "requests; cache hits answer inline)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (default: 8765)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="process-pool workers for cold verdicts (default: 2)",
    )
    serve.add_argument(
        "--cache-db", default=None, metavar="FILE",
        help="verdict cache path (default: REPRO_CACHE_DB or verdicts.db)",
    )


def cmd_cache(arguments) -> int:
    from repro.service import VerdictCache, default_cache_path

    path = default_cache_path(arguments.cache_db)
    if arguments.cache_command == "gc":
        if not os.path.exists(path):
            print(f"{path}: no cache, nothing to evict")
            return 0
        with VerdictCache.open(path) as cache:
            evicted = cache.gc()
            remaining = cache.stats()["verdicts"]
        print(
            f"{path}: evicted {evicted} stale verdict(s), "
            f"{remaining} remaining"
        )
        return 0
    # stats
    if not os.path.exists(path):
        print(f"{path}: no cache")
        return 1
    with VerdictCache.open(path) as cache:
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    return 0


def _add_cache_parser(subparsers) -> None:
    cache = subparsers.add_parser(
        "cache", help="inspect and maintain the content-addressed verdict cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def db_arg(parser) -> None:
        parser.add_argument(
            "--cache-db", default=None, metavar="FILE",
            help="verdict cache path (default: REPRO_CACHE_DB or verdicts.db)",
        )

    gc = cache_sub.add_parser(
        "gc", help="evict verdicts recorded under a different code version"
    )
    db_arg(gc)
    stats = cache_sub.add_parser(
        "stats", help="print cache statistics as JSON"
    )
    db_arg(stats)


def cmd_lint(arguments) -> int:
    from repro.lint import (
        crosscheck_catalog,
        footprint_parity,
        lint_paths,
        rules_table_markdown,
    )
    from repro.util.hashing import canonical_json

    if arguments.list_rules:
        print(rules_table_markdown())
        return 0
    select = (
        [part for part in arguments.select.split(",")]
        if arguments.select
        else None
    )
    report = lint_paths(arguments.paths or None, select=select)
    if arguments.format == "json":
        document = report.to_document()
    elif arguments.format == "md":
        print(report.render_markdown())
        document = None
    else:
        print(report.render_text())
        document = None
    exit_code = 0 if report.clean else 1
    if arguments.footprints:
        parity = footprint_parity()
        catalog = crosscheck_catalog(parity.static_map)
        issues = parity.problems + parity.mismatches + catalog
        if document is not None:
            document["footprints"] = {
                "static": parity.static_map,
                "dynamic": parity.dynamic_map,
                "issues": issues,
            }
        else:
            state = "byte-match" if not issues else "MISMATCH"
            print(
                f"footprints: static vs dynamic {state} for "
                f"{len(parity.static_map)} base object classes, "
                f"catalog walk {'clean' if not catalog else 'diverged'}"
            )
            for issue in issues:
                print(f"footprint issue: {issue}")
        if issues:
            exit_code = max(exit_code, 1)
    if document is not None:
        print(canonical_json(document))
    return exit_code


def _add_lint_parser(subparsers) -> None:
    lint = subparsers.add_parser(
        "lint",
        help="project-specific static analysis (footprint soundness, "
        "determinism, obs discipline, error conventions)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "md", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint.add_argument(
        "--footprints", action="store_true",
        help="also cross-check the static FP001 footprint map against "
        "footprints recorded by a live runtime (and a seeded walk over "
        "the exhaustible scenario slice)",
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce Bushkov & Guerraoui, PODC 2015.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="+", help="experiment ids, or 'all'"
    )
    run_parser.add_argument(
        "--param",
        action="append",
        default=[],
        help="runner parameter as key=value (repeatable); applied to every "
        "listed experiment",
    )
    _add_scenarios_parser(subparsers)
    _add_verify_parser(subparsers)
    _add_profile_parser(subparsers)
    _add_campaign_parser(subparsers)
    _add_fuzz_parser(subparsers)
    _add_mutate_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_lint_parser(subparsers)
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "list":
            return cmd_list()
        if arguments.command == "scenarios":
            return cmd_scenarios(arguments)
        if arguments.command == "verify":
            return cmd_verify(arguments)
        if arguments.command == "profile":
            return cmd_profile(arguments)
        if arguments.command == "campaign":
            return cmd_campaign(arguments)
        if arguments.command == "fuzz":
            return cmd_fuzz(arguments)
        if arguments.command == "mutate":
            return cmd_mutate(arguments)
        if arguments.command == "serve":
            return cmd_serve(arguments)
        if arguments.command == "cache":
            return cmd_cache(arguments)
        if arguments.command == "lint":
            return cmd_lint(arguments)
        return cmd_run(arguments.experiments, _parse_params(arguments.param))
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

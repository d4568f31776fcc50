"""The performance ledger: end-to-end and per-layer metrics of the verifier.

Run every workload, untraced then traced, and print every metric::

    python3 perfledger/run.py --seed 7 [--workload NAME] [--out ledger.json]

One workload, one kind of metric (``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones)::

    python3 perfledger/run.py --workload proof-sweep --seed 7 --seconds 15 --trace 0

Compare ledgers written with ``--out`` (parent, change, parent, change…)::

    python3 perfledger/run.py compare parent.json change.json [...]

Each pass runs in a fresh interpreter (``workload.py``); the program
under test is imported from ``src/`` of the checkout this file sits in.
The last line of the output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 for a
correct run, 1 when a request failed, 2 for a usage error (or a
checkout without the program) and 3 for an invalid measurement.  See
README.md for the workloads, the metric glossary and the layer table.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import math
import os
import statistics
import subprocess
import sys
import time

from typing import Any, Dict, List, Optional

import workload as passes
from speed import SpeedProbe, cpus, on_cpu

HERE = passes.HERE
ROOT = passes.ROOT
OUT = os.path.join(HERE, "out")

#: Scale 1 is sized to take about this long per pass on a 2-core machine.
NOMINAL_SECONDS = 20.0
SETUP_STARTS = 5

#: (name, unit, better) — BENCHMARK.json lists the same, with bounds.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("verdicts_per_s", "1/s", "higher"),
    ("verdict_p50_ms", "ms", "lower"),
    ("verdict_p90_ms", "ms", "lower"),
    ("checked_interleavings_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer self time, as a share of the traced request time: metric
#: name -> the tracer layer it reads.
LAYER_SHARES = {
    "scenarios.verify_self_share": "scenarios.verify",
    "engine.search_self_share": "engine.search",
    "engine.apply_share": "engine.apply",
    "engine.capture_share": "engine.capture",
    "engine.restore_share": "engine.restore",
    "engine.fingerprint_share": "engine.fingerprint",
    "engine.dpor_share": "engine.dpor",
    "sim.step_share": "sim.step",
    "sim.liveness_share": "sim.liveness",
    "sim.lasso_shrink_share": "sim.lasso_shrink",
    "sim.lasso_replay_share": "sim.lasso_replay",
    "objects.check_share": "objects.check",
    "fuzz.run_self_share": "fuzz.run",
    "fuzz.shrink_share": "fuzz.shrink",
    "fuzz.replay_share": "fuzz.replay",
    "service.handle_share": "service.handle",
    "service.cache_get_share": "service.cache_get",
}

#: Per-layer call counts of wrapped entry points: metric -> layer.
LAYER_CALLS = {
    "sim.steps": "sim.step",
    "engine.apply_calls": "engine.apply",
    "engine.captures": "engine.capture",
    "engine.restores": "engine.restore",
    "engine.fingerprints": "engine.fingerprint",
    "objects.checks": "objects.check",
}

#: Per-layer counts read from the program's own repro.obs counters.
COUNTERS = {
    "sim.kernel_decisions": "kernel/decisions",
    "sim.state_hashes": "kernel/state_hashes",
    "engine.dpor_sleep_blocked": "dpor/sleep_blocked",
    "engine.dpor_pruned": "dpor/pruned",
    "sim.liveness_configurations": "liveness/configurations",
    "sim.liveness_merges": "liveness/merges",
    "fuzz.corpus_adds": "fuzz/corpus_adds",
    "fuzz.shrink_replays": "shrink/replays",
    "service.cache_hits": "cache/hit",
    "service.cache_misses": "cache/miss",
    "service.cache_stores": "cache/store",
}

PER_LAYER = (
    tuple((name, "share", "lower") for name in LAYER_SHARES)
    + (("obs.unattributed_share", "share", "lower"),)
    + tuple((name, "count", "lower") for name in LAYER_CALLS)
    + tuple(
        (name, "count", "higher" if name == "service.cache_hits" else "lower")
        for name in COUNTERS
    )
    + (
        ("objects.parse_calls", "count", "lower"),
        ("objects.parse_per_check", "ratio", "lower"),
        ("engine.dedup_ratio", "ratio", "higher"),
        ("fuzz.walks", "count", "lower"),
        ("fuzz.check_cache_hit_ratio", "ratio", "higher"),
        ("fuzz.shrink_yield", "ratio", "higher"),
        ("fuzz.cex_steps_mean", "steps", "lower"),
        ("obs.traced_request_s", "s", "lower"),
        ("obs.trace_overhead", "ratio", "lower"),
    )
)

#: Counts that repeat exactly for one seed and scale: ``compare``
#: requires them equal, and a change that moves one did different work.
DETERMINISTIC = (
    "sim.kernel_decisions",
    "engine.captures",
    "engine.dpor_sleep_blocked",
    "objects.checks",
    "fuzz.shrink_replays",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_stores",
    "fuzz.cex_steps_mean",
)

#: Per-layer self times must add up to the traced request time.
SUM_TOLERANCE = 0.01


class InvalidRun(Exception):
    """The measurement itself is unusable (exit code 3)."""


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz), converging for ``x < (a + 1) / (a + b + 2)``."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 100_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-14:
            return fraction
    raise ArithmeticError("incomplete beta fraction did not converge")


def _beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: List[float], q: int) -> Optional[float]:
    """The q-th percentile, or ``None`` when fewer than ten samples lie
    beyond it (the highest percentile a sample set supports).

    The Harrell-Davis estimate: a Beta-weighted mean of the order
    statistics around rank q% instead of one or two of them.  Latencies
    are multimodal (proof-sweep's median falls where 25 ms
    verdicts end and 80 ms ones begin), and there the sample median
    moved 19-39% between runs with the machine's speed; the weighted
    estimate moves a fraction of that."""
    n = len(values)
    if not n or n * (100 - q) / 100 < 10:
        return None
    ordered = sorted(values)
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # Weights beyond 12 standard deviations of rank q% are below 1e-30.
    width = 12 * math.sqrt(n * p * (1 - p)) + 2
    low = max(0, int(p * n - width))
    high = min(n, int(p * n + width) + 1)
    estimate = 0.0
    below = _beta_cdf(a, b, low / n)
    for i in range(low, high):
        above = _beta_cdf(a, b, (i + 1) / n)
        estimate += (above - below) * ordered[i]
        below = above
    return estimate


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def _library_start() -> float:
    """Interpreter start until the scenario registry is built."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import repro.scenarios as s; s.iter_scenarios(); print('ready', flush=True)",
        ],
        cwd=ROOT,
        env=passes.program_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    process.stdout.close()
    if process.wait() != 0 or line != b"ready\n":
        raise InvalidRun("the scenario registry did not build")
    return elapsed


def _service_start(workdir: str) -> float:
    """Server spawn until ``/v1/healthz`` answers 200."""
    database = passes.fresh_database(workdir)
    stderr_path = os.path.join(workdir, "server.stderr")
    start = time.perf_counter()
    process, port = passes.start_server(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--cache-db", database],
        stderr_path,
    )

    async def healthz():
        connection = await passes.Connection.open(port)
        try:
            status, _ = await connection.request("GET", "/v1/healthz")
            return status, time.perf_counter() - start
        finally:
            await connection.close()

    try:
        status, elapsed = asyncio.run(healthz())
    finally:
        passes.stop_server(process, stderr_path)
    if status != 200:
        raise InvalidRun(f"/v1/healthz answered HTTP {status}")
    return elapsed


def measure_setup(workload: str) -> List[float]:
    """Fresh starts at the reference speed (:mod:`speed`): the starts run
    on one core, probed between them."""
    if workload == "service-mixed":
        start_once = functools.partial(_service_start, os.path.join(OUT, "setup"))
    else:
        start_once = _library_start
    probe = SpeedProbe()
    starts = []
    with on_cpu(cpus()[-1]):
        probe.take(passes.EDGE_PROBES)
        for _ in range(SETUP_STARTS):
            before = time.perf_counter()
            elapsed = start_once()
            starts.append((elapsed, before, time.perf_counter()))
            probe.take(passes.EDGE_PROBES)
    return [elapsed / probe.slowness(before, after) for elapsed, before, after in starts]


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------


def run_pass(workload: str, seed: int, scale: float, trace: int) -> Dict[str, Any]:
    out = os.path.join(OUT, f"{workload}-{trace}.json")
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", str(trace), "--out", out,
    ]
    if trace:
        command += ["--trace-out", os.path.join(OUT, f"{workload}.trace.json")]
    if os.path.exists(out):
        os.remove(out)
    completed = subprocess.run(command, cwd=ROOT, stdin=subprocess.DEVNULL)
    if completed.returncode != 0:
        raise InvalidRun(f"the {workload} pass exited with {completed.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1000.0


def end_to_end(workload: str, result: Dict[str, Any], setup: List[float]):
    """The end-to-end metrics of an untraced pass, plus diagnostics."""
    latencies = result["latencies_s"]
    if workload == "service-mixed":
        verdicts_per_s = result["fill_completed"] / result["fill_s"]
    else:
        verdicts_per_s = result["completed"] / sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": verdicts_per_s,
        "verdict_p50_ms": _ms(percentile(latencies, 50)),
        "verdict_p90_ms": _ms(percentile(latencies, 90)),
        "checked_interleavings_per_s": _ratio(result["interleavings"], result["search_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    diagnostics: Dict[str, Any] = {
        "setup_starts_s": setup,
        "latency_samples": len(latencies),
        "raw_request_s": result["raw_s"],
        "slowness": result["slowness"],
        "speed_probes": result["probes"],
    }
    if workload == "service-mixed":
        diagnostics.update(
            {
                "service.hit_p99_ms": _ms(percentile(latencies, 99)),
                "service.cold_samples": len(result["cold_latencies_s"]),
                "service.cold_p50_ms": _ms(percentile(result["cold_latencies_s"], 50)),
                "service.miss_wait_ms": _ms(percentile(result["cold_wait_s"], 50)),
            }
        )
    return metrics, diagnostics


def per_layer(workload: str, traced: Dict[str, Any], untraced: Dict[str, Any]):
    """The per-layer metrics of a traced pass (``untraced`` gives the
    tracing overhead), plus diagnostics."""
    trace = traced["traced"]
    layers = trace["layers"]
    counters = trace["counters"]
    request_s = trace["request_seconds"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    metrics: Dict[str, Any] = {
        name: self_s(layer) / request_s for name, layer in LAYER_SHARES.items()
    }
    if workload == "service-mixed":
        # Client round trips enclose the server's handle spans; what the
        # server does not account for is transport and framing.
        unattributed = request_s - sum(layer["self_s"] for layer in layers.values())
    else:
        unattributed = self_s("request")
    metrics["obs.unattributed_share"] = unattributed / request_s
    total = sum(metrics[name] for name in LAYER_SHARES) + metrics["obs.unattributed_share"]
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidRun(f"layer shares add up to {total:.4f}, not 1")
    metrics.update({name: calls(layer) for name, layer in LAYER_CALLS.items()})
    metrics.update({name: counters.get(key, 0) for name, key in COUNTERS.items()})
    parses = trace["calls"].get("objects.parse", 0)
    checks = calls("objects.check")
    walks = counters.get("fuzz/explore_walks", 0) + counters.get("fuzz/fast_walks", 0)
    cex = traced["cex_lengths"]
    metrics.update(
        {
            "objects.parse_calls": parses,
            "objects.parse_per_check": _ratio(parses, checks),
            "engine.dedup_ratio": _ratio(
                counters.get("engine/dedup_hits", 0),
                counters.get("engine/frontier_pushes", 0),
            ),
            "fuzz.walks": walks,
            "fuzz.check_cache_hit_ratio": _ratio(
                counters.get("fuzz/check_cache_hits", 0), walks
            ),
            "fuzz.shrink_yield": _ratio(
                counters.get("shrink/removed_steps", 0),
                counters.get("shrink/candidates", 0),
            ),
            "fuzz.cex_steps_mean": _ratio(sum(cex), len(cex)),
            "obs.traced_request_s": request_s,
            # Library passes: both at the reference speed, so a slower
            # core during one pass does not read as tracing cost.
            "obs.trace_overhead": traced["request_s"] / untraced["request_s"] - 1.0,
        }
    )
    diagnostics: Dict[str, Any] = {"layer_share_sum": total}
    if workload == "service-mixed":
        hit_p50 = percentile(traced["latencies_s"], 50)
        if hit_p50 is not None:
            diagnostics["service.transport_ms"] = _ms(hit_p50 - trace["handle_p50_s"])
    return metrics, diagnostics


def run_workload(workload: str, seed: int, scale: float, modes) -> Dict[str, Any]:
    """Run the passes ``modes`` asks for; returns the ledger entry."""
    entry: Dict[str, Any] = {"seed": seed, "scale": scale, "diagnostics": {}}
    setup = measure_setup(workload) if 0 in modes else []
    untraced = run_pass(workload, seed, scale, 0)
    results = [untraced]
    if 0 in modes:
        entry["end_to_end"], diagnostics = end_to_end(workload, untraced, setup)
        entry["diagnostics"].update(diagnostics)
    problems: List[str] = []
    if 1 in modes:
        traced = run_pass(workload, seed, scale, 1)
        results.append(traced)
        entry["per_layer"], diagnostics = per_layer(workload, traced, untraced)
        entry["diagnostics"].update(diagnostics)
        problems = [
            f"the traced and untraced passes differ in {key}"
            for key in ("requests_digest", "verdicts_digest")
            if untraced[key] != traced[key]
        ]
    entry["attempted"] = sum(result["attempted"] for result in results)
    entry["failed"] = sum(result["failed"] for result in results)
    entry["failures"] = [f for result in results for f in result["failures"]] + problems
    entry["correct"] = entry["failed"] == 0 and not problems
    entry["requests_digest"] = untraced["requests_digest"]
    entry["verdicts_digest"] = untraced["verdicts_digest"]
    return entry


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_entry(workload: str, entry: Dict[str, Any]) -> None:
    print(
        f"[{workload}] seed {entry['seed']}, scale {entry['scale']:.3g}: "
        f"{entry['attempted']} requests attempted, {entry['failed']} failed"
    )
    for failure in entry["failures"][:10]:
        print(f"  FAILED {failure}")
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        values = entry.get(section)
        if values is None:
            continue
        print(f"  {section}:")
        for name, unit, better in table:
            value = values.get(name)
            if value is None:
                print(f"    {name:<34} omitted: fewer than ten samples beyond it")
            else:
                print(f"    {name:<34} {_fmt(value):>14} {unit:<6} ({better} is better)")
    if entry["diagnostics"]:
        print("  diagnostics:")
        for name, value in sorted(entry["diagnostics"].items()):
            if value is None:
                value = "omitted: fewer than ten samples beyond it"
            elif isinstance(value, list):
                value = ", ".join(_fmt(v) for v in value)
            print(f"    {name:<34} {_fmt(value)}")


def result_line(entries: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The contract's last line; metrics of several workloads are keyed
    ``workload/metric``."""
    single = len(entries) == 1
    metrics: Dict[str, Any] = {}
    for workload, entry in entries.items():
        for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            values = entry.get(section) or {}
            for name, unit, _ in table:
                if values.get(name) is not None:
                    key = name if single else f"{workload}/{name}"
                    metrics[key] = {"value": values[name], "unit": unit}
    return {
        "correct": all(entry["correct"] for entry in entries.values()),
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": sum(entry["failed"] for entry in entries.values()),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(paths: List[str]) -> int:
    """Parent/change comparison of ledgers (see README.md)."""
    if len(paths) < 2 or len(paths) % 2:
        print("compare needs parent/change pairs: P1 C1 [P2 C2 ...]", file=sys.stderr)
        return 2
    ledgers = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    parents, changes = ledgers[0::2], ledgers[1::2]
    pairs = len(parents)
    workloads = sorted(set.intersection(*(set(l["workloads"]) for l in ledgers)))
    bad = False
    for workload in workloads:
        print(f"[{workload}] {pairs} pair(s)")
        sides = [[l["workloads"][workload] for l in side] for side in (parents, changes)]
        for name, unit, better in END_TO_END:
            values = [
                [e["end_to_end"][name] for e in side
                 if e.get("end_to_end", {}).get(name) is not None]
                for side in sides
            ]
            if len(values[0]) != pairs or len(values[1]) != pairs:
                continue
            (p1, pm, p3), (c1, cm, c3) = map(_quartiles, values)
            worse = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
            verdict = ""
            if worse > bounds.get(name, 0.0):
                verdict = f"REGRESSION beyond {bounds[name]:.0%}"
                bad = True
            if pairs >= 10:
                wins = sum(
                    (c < p) if better == "lower" else (c > p)
                    for p, c in zip(*values)
                )
                if wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1:
                    verdict = (verdict + " " if verdict else "") + f"GAIN ({wins}/{pairs} pairs)"
            print(
                f"  {name:<30} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {unit}  "
                f"{-worse:+.1%} {verdict}"
            )
        entries = sides[0] + sides[1]
        shares = [e["failed"] / e["attempted"] for e in entries]
        if max(shares[pairs:]) > max(shares[:pairs]):
            print("  failed_share increased")
            bad = True
        same_inputs = len({(e["seed"], e["scale"]) for e in entries}) == 1
        for name in DETERMINISTIC + ("verdicts_digest",):
            seen = {
                json.dumps(e.get("per_layer", {}).get(name, e.get(name)))
                for e in entries
                if name == "verdicts_digest" or "per_layer" in e
            }
            if same_inputs and len(seen) > 1:
                print(f"  {name} MOVED: {sorted(seen)}")
                bad = True
        if not same_inputs:
            print("  deterministic counts not compared: seeds or scales differ")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(
        description="The performance ledger (see README.md).",
        epilog="Subcommand: run.py compare PARENT.json CHANGE.json [...]",
    )
    parser.add_argument("--workload", choices=passes.WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="measured time per pass (sets --scale)")
    parser.add_argument("--scale", type=float, default=None,
                        help=f"request-list scale (default: seconds/{NOMINAL_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, 1: per-layer only "
                        "(default: both)")
    parser.add_argument("--out", default=None, help="write the ledger JSON here")
    arguments = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(passes.SRC, "repro", "__init__.py")):
        print(f"no program to measure: {passes.SRC}/repro is missing", file=sys.stderr)
        return 2
    scale = arguments.scale
    if scale is None:
        scale = arguments.seconds / NOMINAL_SECONDS
    if scale <= 0:
        parser.error("--scale and --seconds must be positive")
    modes = (0, 1) if arguments.trace is None else (arguments.trace,)
    workloads = passes.WORKLOADS if arguments.workload is None else (arguments.workload,)
    os.makedirs(OUT, exist_ok=True)
    entries: Dict[str, Dict[str, Any]] = {}
    try:
        for workload in workloads:
            entries[workload] = run_workload(workload, arguments.seed, scale, modes)
            print_entry(workload, entries[workload])
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"schema": "perfledger", "version": 1, "workloads": entries},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    line = result_line(entries)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

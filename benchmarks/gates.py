"""CI performance gates: one subcommand per gate.

Each subcommand prints its numbers to the job log and exits 1 when its
gate or one of its correctness checks fails::

    PYTHONPATH=src python benchmarks/gates.py engine|fuzz|dpor|service|obs

* ``engine``: replay and snapshot modes explore equal history sets on
  every workload, and snapshot exploration is at least
  ``MIN_SNAPSHOT_SPEEDUP`` times faster in aggregate (each timing is
  the best of 2 runs, 1 for ``agp-opacity-deep``).
* ``fuzz``: the fuzzer's unchecked throughput profile samples at least
  ``MIN_FUZZ_SPEEDUP`` times more interleavings per second than
  snapshot exploration enumerates on ``agp-opacity`` (best of 5
  alternating runs per side), and the differential oracle agrees on
  ``ORACLE_INSTANCES``.
* ``dpor``: unreduced and DPOR verdicts are equal on every workload,
  and ``agp-opacity-deep`` checks at least ``MIN_DPOR_REDUCTION`` times
  fewer maximal runs (a deterministic count).
* ``service``: a verdict-cache hit (best of 5) is at least
  ``MIN_CACHED_SPEEDUP`` times faster than the cold exhaustive proof of
  ``agp-opacity`` and byte-identical to it, and 200 cache-hit
  ``POST /v1/verify`` round trips return identical bytes.
* ``obs``: the best of 3 recorder-off checked fuzz runs reaches at
  least ``1 - MAX_DISABLED_OVERHEAD`` of one later run of the same
  call.  Both sides run the same code with no recorder installed, so
  this bounds run-to-run noise on the runner, not the cost of the
  disabled instrumentation sites.  The rates with a metrics recorder
  and with tracing are reported, not gated.

The workloads are catalog scenarios (``repro.scenarios``), so each gate
measures the same instances the verifier and the benchmark ledger
(``perfledger/``) run.  Wall-clock ratios are noisy on shared runners;
the thresholds leave a wide margin, and the deterministic checks
(history sets, verdicts, run counts, bytes) are exact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import tempfile
import time
from pathlib import Path

from repro.fuzz.driver import FuzzDriver, fuzz_workload
from repro.fuzz.oracle import differential_check
from repro.obs import recording
from repro.scenarios import get_scenario, verify
from repro.service.app import ServiceApp
from repro.service.server import start_service
from repro.sim import check_all_histories, explore_histories
from repro.util.hashing import canonical_json

MIN_SNAPSHOT_SPEEDUP = 2.0
MIN_FUZZ_SPEEDUP = 10.0
MIN_DPOR_REDUCTION = 10.0
MIN_CACHED_SPEEDUP = 100.0
MAX_DISABLED_OVERHEAD = 0.05

#: The exhaustive workloads and the engine gate's runs per timing; the
#: deep plan doubles p0's schedule depth, where replay's O(depth) cost
#: per edge pulls away from snapshot restore.
WORKLOADS = {
    "cas-consensus": 2,
    "agp-opacity": 2,
    "i12-opacity": 2,
    "agp-opacity-deep": 1,
}
ORACLE_INSTANCES = (
    "cas-consensus",
    "stubborn-consensus",
    "inventing-consensus",
    "agp-opacity",
)


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def timed(call):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def gate_engine() -> int:
    totals = {"replay": 0.0, "snapshot": 0.0}
    for name, repetitions in WORKLOADS.items():
        scenario = get_scenario(name)
        seconds, histories = {}, {}
        for mode in totals:
            timings = [
                timed(lambda: list(explore_histories(
                    scenario.factory, scenario.plan, mode=mode
                )))
                for _ in range(repetitions)
            ]
            seconds[mode] = min(elapsed for elapsed, _ in timings)
            histories[mode] = {run.history for run in timings[-1][1]}
            totals[mode] += seconds[mode]
        if histories["replay"] != histories["snapshot"]:
            return fail(f"engine modes explored different histories on {name}")
        print(
            f"{name}: explore replay={seconds['replay']:.3f}s "
            f"snapshot={seconds['snapshot']:.3f}s "
            f"speedup={seconds['replay'] / seconds['snapshot']:.2f}x "
            f"({len(histories['snapshot'])} interleavings)"
        )
    aggregate = totals["replay"] / totals["snapshot"]
    print(f"aggregate exploration speedup: {aggregate:.2f}x")
    if aggregate < MIN_SNAPSHOT_SPEEDUP:
        return fail(
            f"aggregate snapshot speedup {aggregate:.2f}x is below "
            f"{MIN_SNAPSHOT_SPEEDUP}x"
        )
    return 0


def gate_fuzz() -> int:
    scenario = get_scenario("agp-opacity")
    exhaustive, fuzz = [], []
    for _ in range(5):  # alternate, so a noisy moment hits one side once
        exhaustive.append(timed(lambda: sum(1 for _ in explore_histories(
            scenario.factory, scenario.plan, mode="snapshot"
        ))))
        fuzz.append(FuzzDriver(
            scenario.factory, scenario.plan, safety=None, seed=1,
            explore_every=64, min_corpus_depth=10,
        ).run(50_000))
    seconds, runs = min(exhaustive)
    best = min(fuzz, key=lambda report: report.elapsed)
    speedup = best.interleavings_per_second / (runs / seconds)
    print(
        f"exhaustive: {runs} interleavings in {seconds:.3f}s "
        f"= {runs / seconds:,.0f}/s"
    )
    print(
        f"fuzz (throughput): {best.interleavings} interleavings in "
        f"{best.elapsed:.3f}s = {best.interleavings_per_second:,.0f}/s "
        f"-> {speedup:.1f}x"
    )
    disagreements = 0
    for name in ORACLE_INSTANCES:
        oracle = differential_check(name, seed=2025, iterations=1_500)
        print(
            f"oracle {name}: exhaustive holds={oracle.exhaustive_holds}, "
            f"fuzz holds={oracle.fuzz_holds} -> "
            f"{'AGREE' if oracle.agree else 'DISAGREE'}"
        )
        disagreements += not oracle.agree
    if disagreements:
        return fail(f"{disagreements} oracle instance(s) disagree")
    if speedup < MIN_FUZZ_SPEEDUP:
        return fail(f"fuzz speedup {speedup:.1f}x is below {MIN_FUZZ_SPEEDUP}x")
    return 0


def gate_dpor() -> int:
    reductions = {}
    for name in WORKLOADS:
        scenario = get_scenario(name)
        seconds, reports = {}, {}
        for reduction in ("none", "dpor"):
            seconds[reduction], reports[reduction] = timed(
                lambda: check_all_histories(
                    scenario.factory, scenario.plan,
                    scenario.safety_factory(), reduction=reduction,
                )
            )
        none, dpor = reports["none"], reports["dpor"]
        if none.holds != dpor.holds:
            return fail(
                f"verdict divergence on {name}: unreduced holds={none.holds}, "
                f"dpor holds={dpor.holds}"
            )
        reductions[name] = none.runs_checked / max(dpor.runs_checked, 1)
        print(
            f"{name}: runs {none.runs_checked} -> {dpor.runs_checked} "
            f"({reductions[name]:.2f}x fewer), time {seconds['none']:.3f}s -> "
            f"{seconds['dpor']:.3f}s, verdicts agree (holds={dpor.holds})"
        )
    deep = reductions["agp-opacity-deep"]
    if deep < MIN_DPOR_REDUCTION:
        return fail(
            f"agp-opacity-deep run reduction {deep:.2f}x is below "
            f"{MIN_DPOR_REDUCTION}x"
        )
    return 0


async def _hit_round_trips(db: str, requests: int) -> float:
    """Seconds for ``requests`` cache-hit ``POST /v1/verify`` round
    trips on one connection; raises when a reply is not 200 or differs
    from the first."""
    app = ServiceApp(cache_path=db, workers=1)
    server = await start_service(app, host="127.0.0.1", port=0)
    body = json.dumps(
        {"scenario": "agp-opacity", "backend": "exhaustive"}
    ).encode()
    request = (
        b"POST /v1/verify HTTP/1.1\r\nHost: gate\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )

    async def round_trip(reader, writer) -> bytes:
        writer.write(request)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if head.split()[1] != b"200":
            raise RuntimeError(f"cache-hit request answered {head!r}")
        length = re.search(rb"(?i)content-length: *(\d+)", head).group(1)
        return await reader.readexactly(int(length))

    try:
        reader, writer = await asyncio.open_connection(
            *server.sockets[0].getsockname()[:2]
        )
        first = await round_trip(reader, writer)
        start = time.perf_counter()
        for _ in range(requests):
            if await round_trip(reader, writer) != first:
                raise RuntimeError("cache-hit replies are not byte-identical")
        elapsed = time.perf_counter() - start
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
        app.close()
    return elapsed


def gate_service() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-gate-") as tmp:
        db = str(Path(tmp) / "verdicts.db")

        def cached_verify():
            return verify(
                "agp-opacity", backend="exhaustive",
                cache="readwrite", cache_path=db,
            )

        cold_seconds, cold = timed(cached_verify)
        hits = [timed(cached_verify) for _ in range(5)]
        hit_seconds = min(seconds for seconds, _ in hits)
        if cold.cached or not all(hit.cached for _, hit in hits):
            return fail("expected one cold verify, then cache hits")
        if any(
            canonical_json(hit.to_document()) != canonical_json(cold.to_document())
            for _, hit in hits
        ):
            return fail("cached verdict document differs from the cold one")
        speedup = cold_seconds / hit_seconds
        print(
            f"agp-opacity (exhaustive): cold {cold_seconds:.3f}s, cached "
            f"{hit_seconds * 1000:.2f}ms ({speedup:.0f}x), byte-identical"
        )
        requests = 200
        elapsed = asyncio.run(_hit_round_trips(db, requests))
        print(
            f"service cache-hit round trips: {requests / elapsed:.0f} requests/s "
            f"({requests} byte-identical replies in {elapsed:.2f}s)"
        )
    if speedup < MIN_CACHED_SPEEDUP:
        return fail(
            f"cached speedup {speedup:.0f}x is below {MIN_CACHED_SPEEDUP:.0f}x"
        )
    return 0


def gate_obs() -> int:
    scenario = get_scenario("agp-opacity")

    def rate(mode: str = "off") -> float:
        if mode == "off":
            report = fuzz_workload(scenario, seed=1, iterations=10_000)
        else:
            with recording(label=f"gate:{mode}", trace=mode == "trace"):
                report = fuzz_workload(scenario, seed=1, iterations=10_000)
        return report.interleavings_per_second

    off = max(rate() for _ in range(3))
    # The baseline runs warm, after the off runs: the first run of a
    # process pays one-time costs that no later run does.
    baseline = rate()
    print(f"baseline: {baseline:,.0f} checked interleavings/s (one run)")
    print(
        f"     off: {off:,.0f}/s (best of 3), {off / baseline - 1:+.1%} vs "
        f"baseline (gate: >= {-MAX_DISABLED_OVERHEAD:+.0%})"
    )
    for mode in ("metrics", "trace"):
        value = max(rate(mode) for _ in range(3))
        print(f"{mode:>8}: {value:,.0f}/s (best of 3), {value / off - 1:+.1%} vs off")
    if off < baseline * (1 - MAX_DISABLED_OVERHEAD):
        return fail(
            f"recorder-off rate {off:,.0f}/s is more than "
            f"{MAX_DISABLED_OVERHEAD:.0%} below the baseline {baseline:,.0f}/s"
        )
    return 0


GATES = {
    "engine": gate_engine,
    "fuzz": gate_fuzz,
    "dpor": gate_dpor,
    "service": gate_service,
    "obs": gate_obs,
}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("gate", choices=GATES)
    raise SystemExit(GATES[parser.parse_args().gate]())

"""Record fuzz-vs-exhaustive throughput and the differential oracle.

Measures, on the ``agp-opacity`` reference workload (the same instance
``benchmarks/engine_timing.py`` times):

* the exhaustive engine's interleaving rate — maximal runs yielded per
  second of snapshot-mode exploration (no safety checking, matching
  engine_timing's "exploration phase" basis);
* the fuzzer's interleaving rate in its throughput profile (sampling
  only, no safety checking): seeded random walks restarting from
  corpus snapshots;
* for context, the fuzzer's rate with safety checking on (the verdict
  mode the oracle and CI use).

Both rates are the best of ``REPETITIONS`` alternating timings
(exhaustive, fuzz, exhaustive, ...), so a noisy moment on a shared
machine slows one repetition of one side, not the recorded ratio.

Asserts the fuzzer samples at least ``MIN_FUZZ_SPEEDUP``× more
interleavings per second than exhaustive exploration, runs the
differential oracle over the CI instances (one violating, several
satisfying — verdicts must agree exactly), and writes everything to
``BENCH_fuzz.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_fuzz.py [output.json]
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro.fuzz import FuzzDriver, differential_check, fuzz_workload
from repro.scenarios import get_scenario
from repro.sim.explore import explore_histories

#: The fuzzer must sample interleavings at least this much faster than
#: exhaustive snapshot-mode exploration enumerates them.
MIN_FUZZ_SPEEDUP = 10.0

WORKLOAD = "agp-opacity"
FUZZ_ITERATIONS = 50_000
#: The throughput profile: mostly corpus restarts, deep restart points.
THROUGHPUT_PROFILE = {"explore_every": 64, "min_corpus_depth": 10}
#: Each side's rate is its best of this many alternating timings.
REPETITIONS = 5

#: The CI oracle instances: >= 3 small instances including violating
#: and satisfying cases.
ORACLE_INSTANCES = (
    "cas-consensus",
    "stubborn-consensus",
    "inventing-consensus",
    "agp-opacity",
)
ORACLE_SEED = 2025
ORACLE_ITERATIONS = 1_500


def time_exhaustive(workload):
    """One snapshot-mode enumeration, as (runs, seconds)."""
    start = time.perf_counter()
    runs = sum(1 for _ in explore_histories(
        workload.factory, workload.plan, mode="snapshot"
    ))
    return runs, time.perf_counter() - start


def time_fuzz_throughput(workload):
    """One unchecked fuzz run in the throughput profile (its report)."""
    driver = FuzzDriver(
        workload.factory, workload.plan, safety=None, seed=1,
        **THROUGHPUT_PROFILE,
    )
    return driver.run(FUZZ_ITERATIONS)


def measure_alternating(workload):
    """Best-of-``REPETITIONS`` for both sides, timed alternately."""
    exhaustive, fuzz = [], []
    for _ in range(REPETITIONS):
        exhaustive.append(time_exhaustive(workload))
        fuzz.append(time_fuzz_throughput(workload))
    return (
        min(exhaustive, key=lambda timing: timing[1]),
        min(fuzz, key=lambda report: report.elapsed),
    )


def main(output: Path) -> int:
    workload = get_scenario(WORKLOAD)
    record = {
        "benchmark": "fuzz vs exhaustive interleaving throughput",
        "python": platform.python_version(),
        "workload": WORKLOAD,
        "min_fuzz_speedup": MIN_FUZZ_SPEEDUP,
        "rate_basis": "interleavings/second, no safety checking on "
        "either side (the engine_timing 'exploration phase' basis)",
        "timing": f"best of {REPETITIONS} alternating repetitions per side",
    }

    (exhaustive_runs, exhaustive_seconds), throughput = measure_alternating(
        workload
    )
    exhaustive_rate = exhaustive_runs / exhaustive_seconds
    record["exhaustive"] = {
        "interleavings": exhaustive_runs,
        "seconds": round(exhaustive_seconds, 4),
        "interleavings_per_second": round(exhaustive_rate, 1),
    }
    print(
        f"exhaustive: {exhaustive_runs} interleavings in "
        f"{exhaustive_seconds:.3f}s = {exhaustive_rate:,.0f}/s"
    )

    fuzz_rate = throughput.interleavings_per_second
    record["fuzz_throughput"] = {
        "profile": THROUGHPUT_PROFILE,
        "interleavings": throughput.interleavings,
        "seconds": round(throughput.elapsed, 4),
        "corpus": throughput.corpus,
        "interleavings_per_second": round(fuzz_rate, 1),
    }
    speedup = fuzz_rate / exhaustive_rate
    record["fuzz_speedup"] = round(speedup, 2)
    print(
        f"fuzz (throughput): {throughput.interleavings} interleavings in "
        f"{throughput.elapsed:.3f}s = {fuzz_rate:,.0f}/s -> {speedup:.1f}x"
    )

    checked = fuzz_workload(workload, seed=1, iterations=10_000)
    record["fuzz_checked"] = {
        "interleavings": checked.interleavings,
        "seconds": round(checked.elapsed, 4),
        "histories_checked": checked.histories_checked,
        "interleavings_per_second": round(
            checked.interleavings_per_second, 1
        ),
        "holds": checked.holds,
    }
    print(
        f"fuzz (checked): {checked.interleavings_per_second:,.0f}/s, "
        f"{checked.histories_checked} distinct histories judged, "
        f"holds={checked.holds}"
    )

    record["oracle"] = []
    disagreements = 0
    for name in ORACLE_INSTANCES:
        oracle = differential_check(
            name, seed=ORACLE_SEED, iterations=ORACLE_ITERATIONS
        )
        record["oracle"].append(
            {
                "workload": name,
                "exhaustive_holds": oracle.exhaustive_holds,
                "exhaustive_runs": oracle.exhaustive_runs,
                "fuzz_holds": oracle.fuzz_holds,
                "agree": oracle.agree,
            }
        )
        print(
            f"oracle {name}: exhaustive="
            f"{'holds' if oracle.exhaustive_holds else 'violated'}, fuzz="
            f"{'holds' if oracle.fuzz_holds else 'violated'} -> "
            f"{'AGREE' if oracle.agree else 'DISAGREE'}"
        )
        if not oracle.agree:
            disagreements += 1
    record["oracle_seed"] = ORACLE_SEED

    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"-> {output}")
    if disagreements:
        print(
            f"FAIL: {disagreements} oracle instance(s) disagree",
            file=sys.stderr,
        )
        return 1
    if speedup < MIN_FUZZ_SPEEDUP:
        print(
            f"FAIL: fuzz speedup {speedup:.1f}x is below "
            f"{MIN_FUZZ_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"
    )
    raise SystemExit(main(target))

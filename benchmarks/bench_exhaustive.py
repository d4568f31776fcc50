"""Exhaustive-interleaving verification benchmarks.

Not a paper artifact: measures the cost of model-checking small
workloads over *all* schedules — the strongest safety evidence the
artifact produces (no random battery can match it) and the natural
scaling ablation for the exploration engine.  Every workload is
benchmarked in both engine modes: ``replay`` (the seed behaviour —
re-execute the run from scratch per configuration-DAG edge, O(depth)
per node) and ``snapshot`` (restore an incremental configuration
snapshot per edge, O(configuration) per node).  The
``benchmarks/engine_timing.py`` script runs the same workloads
standalone and records the speedups into ``BENCH_engine.json``.
"""

import pytest

from repro.algorithms.consensus import CasConsensus
from repro.algorithms.tm import AgpTransactionalMemory, I12TransactionalMemory
from repro.objects.consensus import AgreementValidity
from repro.objects.opacity import OpacityChecker
from repro.sim import check_all_histories

MODES = ("replay", "snapshot")

TM_PLAN = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_exhaustive_cas_consensus(benchmark, mode):
    report = benchmark(
        check_all_histories,
        lambda: CasConsensus(2),
        {0: [("propose", (0,))], 1: [("propose", (1,))]},
        AgreementValidity(),
        mode=mode,
    )
    assert report.holds
    benchmark.extra_info["interleavings"] = report.runs_checked
    benchmark.extra_info["engine_mode"] = mode


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_exhaustive_agp_opacity(benchmark, mode):
    report = benchmark(
        check_all_histories,
        lambda: AgpTransactionalMemory(2, variables=(0,)),
        TM_PLAN,
        OpacityChecker(),
        mode=mode,
    )
    assert report.holds
    benchmark.extra_info["interleavings"] = report.runs_checked
    benchmark.extra_info["engine_mode"] = mode


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_exhaustive_i12_opacity(benchmark, mode):
    report = benchmark(
        check_all_histories,
        lambda: I12TransactionalMemory(2, variables=(0,)),
        TM_PLAN,
        OpacityChecker(),
        mode=mode,
    )
    assert report.holds
    benchmark.extra_info["interleavings"] = report.runs_checked
    benchmark.extra_info["engine_mode"] = mode


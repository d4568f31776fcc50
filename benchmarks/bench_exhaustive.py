"""Exhaustive-interleaving verification benchmarks.

Not a paper artifact: measures the cost of model-checking small
workloads over *all* schedules — the strongest safety evidence the
artifact produces (no random battery can match it) and the natural
scaling ablation for the exploration engine.  Every workload is a
catalog scenario, benchmarked in both engine modes: ``replay`` (the
seed behaviour — re-execute the run from scratch per configuration-DAG
edge, O(depth) per node) and ``snapshot`` (restore an incremental
configuration snapshot per edge, O(configuration) per node).
``benchmarks/gates.py engine`` times the same scenarios standalone and
gates the snapshot speedup.
"""

import pytest

from repro.scenarios import get_scenario
from repro.sim import check_all_histories

MODES = ("replay", "snapshot")


def _bench_exhaustive(benchmark, scenario_id, mode):
    scenario = get_scenario(scenario_id)
    report = benchmark(
        check_all_histories,
        scenario.factory,
        scenario.plan,
        scenario.safety_factory(),
        mode=mode,
    )
    assert report.holds
    benchmark.extra_info["interleavings"] = report.runs_checked
    benchmark.extra_info["engine_mode"] = mode


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_exhaustive_cas_consensus(benchmark, mode):
    _bench_exhaustive(benchmark, "cas-consensus", mode)


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_exhaustive_agp_opacity(benchmark, mode):
    _bench_exhaustive(benchmark, "agp-opacity", mode)


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_exhaustive_i12_opacity(benchmark, mode):
    _bench_exhaustive(benchmark, "i12-opacity", mode)

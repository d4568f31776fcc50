"""Smoke test of the ledger: every workload, both passes, at scale 0.02.

    python3 -m pytest perfledger/test_ledger.py     # or
    python3 perfledger/test_ledger.py

Runs ``run.py`` once (about 20 s on a 2-core machine) and checks the
output against BENCHMARK.json, the percentile sample rule, the layer
sum, and request-list reproducibility.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import workload  # noqa: E402

SCALE = 0.02
#: Printed metric lines: "    name   value unit   (better is better)".
METRIC_LINE = re.compile(r"^    (\S+)\s+(\S+) (\S+)\s+\((lower|higher) is better\)$")
OMITTED_LINE = re.compile(r"^    (\S+)\s+omitted: fewer than ten samples beyond it$")


class LedgerSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.benchmark = json.load(handle)
        cls.tmp = tempfile.TemporaryDirectory()
        out = os.path.join(cls.tmp.name, "ledger.json")
        started = time.perf_counter()
        cls.completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--scale", str(SCALE),
             "--seed", "3", "--out", out],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        cls.seconds = time.perf_counter() - started
        with open(out, encoding="utf-8") as handle:
            cls.ledger = json.load(handle)["workloads"]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_runs_every_workload_quickly_and_correctly(self):
        self.assertEqual(self.completed.returncode, 0, self.completed.stderr)
        self.assertLess(self.seconds, 30.0)
        self.assertEqual(
            sorted(self.ledger), sorted(w["name"] for w in self.benchmark["workloads"])
        )
        last = json.loads(self.completed.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)

    def test_printed_names_units_and_directions_match_benchmark_json(self):
        declared = {
            (m["name"], m["unit"], m["better"])
            for section in ("end_to_end", "per_layer")
            for m in self.benchmark[section]
        }
        self.assertEqual(
            declared, {tuple(m) for m in run.END_TO_END + run.PER_LAYER}
        )
        printed = {}
        omitted = set()
        workload_name = section = None
        for line in self.completed.stdout.splitlines():
            if line.startswith("["):
                workload_name = line[1:line.index("]")]
            if line.startswith("  ") and line.endswith(":") and not line.startswith("   "):
                section = line.strip()[:-1]
            if section not in ("end_to_end", "per_layer"):
                continue
            match = METRIC_LINE.match(line)
            if match:
                name, _, unit, better = match.groups()
                printed.setdefault(workload_name, set()).add((name, unit, better))
            match = OMITTED_LINE.match(line)
            if match:
                omitted.add((workload_name, match.group(1)))
        for name in self.ledger:
            names = {m[0] for m in printed[name]} | {
                metric for w, metric in omitted if w == name
            }
            self.assertEqual(names, {m[0] for m in declared}, name)
            self.assertLessEqual(printed[name], declared, name)

    def test_percentiles_have_ten_samples_beyond_or_are_omitted(self):
        for name, entry in self.ledger.items():
            samples = entry["diagnostics"]["latency_samples"]
            for metric, q in (("verdict_p50_ms", 50), ("verdict_p90_ms", 90)):
                value = entry["end_to_end"].get(metric)
                enough = samples * (100 - q) / 100 >= 10
                self.assertEqual(value is not None, enough, (name, metric, samples))

    def test_layer_self_times_add_up_to_the_traced_request_time(self):
        shares = [name for name, unit, _ in run.PER_LAYER if unit == "share"]
        for name, entry in self.ledger.items():
            total = sum(entry["per_layer"][metric] for metric in shares)
            self.assertAlmostEqual(total, 1.0, delta=run.SUM_TOLERANCE, msg=name)
            self.assertIn("obs.trace_overhead", entry["per_layer"])

    def test_the_same_seed_gives_the_same_request_list(self):
        def listing(name, seed):
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "workload.py"),
                 "--workload", name, "--seed", str(seed), "--scale", "1",
                 "--trace", "0", "--out", os.devnull, "--list-requests"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout

        for name in workload.WORKLOADS:
            first = listing(name, 11)
            self.assertEqual(first, listing(name, 11), name)
            self.assertNotEqual(first, listing(name, 12), name)

    def test_the_seed_orders_requests_but_does_not_pick_them(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        for name in ("proof-sweep", "fuzz-horizon", "counterexample-hunt"):
            lists = [workload.request_list(name, seed, 0.75) for seed in (11, 12)]
            self.assertNotEqual(lists[0], lists[1], name)
            self.assertEqual(
                *(sorted(json.dumps(r, sort_keys=True) for r in l) for l in lists), name
            )
        fills = [workload.request_list("service-mixed", seed, 0.75)["fill"] for seed in (11, 12)]
        self.assertEqual(*(sorted(r["scenario"] for r in fill) for fill in fills))


class SpeedProbeTest(unittest.TestCase):
    def probe(self, samples):
        probe = speed.SpeedProbe()
        probe.samples = samples
        return probe

    def test_slowness_is_the_median_probe_near_the_request(self):
        reference = speed.REFERENCE_S
        # The core runs at reference speed until t=10, then twice as slow.
        samples = [(t * 0.1, reference * (1 if t < 100 else 2)) for t in range(200)]
        probe = self.probe(samples)
        self.assertAlmostEqual(probe.slowness(3.0, 3.5), 1.0)
        self.assertAlmostEqual(probe.slowness(16.0, 16.5), 2.0)
        # Astride the change, 24 probes of each speed lie within the window.
        self.assertAlmostEqual(probe.slowness(9.55, 10.35), 1.5)

    def test_too_few_probes_nearby_falls_back_to_the_nearest(self):
        reference = speed.REFERENCE_S
        samples = [(0.0, reference)] * 3 + [(100.0, 3 * reference)] * 5
        self.assertAlmostEqual(self.probe(samples).slowness(50.0, 51.0), 3.0)

    def test_take_records_one_sample_per_probe(self):
        probe = speed.SpeedProbe()
        probe.take(3)
        probe.tick()  # within the cadence of the last probe: skipped
        self.assertEqual(len(probe.samples), 3)
        self.assertTrue(all(seconds > 0 for _, seconds in probe.samples))


if __name__ == "__main__":
    unittest.main()

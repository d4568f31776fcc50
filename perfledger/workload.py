"""One pass of one ledger workload, run in a fresh interpreter.

``run.py`` starts this file once per pass::

    python3 perfledger/workload.py --workload proof-sweep --seed 7 \\
        --scale 1.0 --trace 0 --out perfledger/out/proof-sweep-0.json

The pass generates its request list from ``--seed`` (the program only
ever receives ``verify()`` calls or HTTP requests), runs it, checks
every verdict with :mod:`oracle`, and writes one JSON result: the
per-request timings and the search seconds the verdicts report, both
at the reference speed (:mod:`speed`), the interleavings, the peak RSS,
and — with ``--trace 1`` — the per-layer span
totals (:mod:`tracer`) plus the program's own ``repro.obs`` counters.
``run.py`` turns those into the ledger's metrics.

The program is imported lazily, inside the pass: importing this module
(as ``run.py`` does for the server helpers) loads nothing from
``repro``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import resource
import selectors
import signal
import sqlite3
import statistics
import subprocess
import sys
import time

from typing import Any, Dict, List, Optional, Tuple

from speed import SpeedProbe, cpus, on_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("proof-sweep", "fuzz-horizon", "counterexample-hunt", "service-mixed")

#: The seed only orders the requests (scaled down, a seed-independent
#: subset is kept); fuzz seeds are fixed, so every run verifies the same
#: requests.  With fuzz seeds drawn from the run's seed, the cost mix
#: moved with it: the p90 of counterexample-hunt spread 14-21% across
#: ten seeds.
FUZZ_SEED = 1
#: Fuzz budget of every fuzz-horizon request.
FUZZ_ITERATIONS = 500
#: The fuzz pool leaves out this slice: its 3-process global-lock
#: histories trip a known OpacityChecker false positive (a read of a
#: commit-pending transaction's write, see README.md), which would
#: make a correct run fail on some seeds.
FUZZ_EXCLUDED_PREFIX = "tm-grid:impl=global-lock,n=3,"
#: Fuzz seeds (0, 1, ...) per safety mutant in counterexample-hunt at scale 1.
MUTANT_SEEDS = 120
#: Liveness requests of counterexample-hunt: the cheap ones first, so a
#: scaled-down list drops the multi-second cas-spinning-loser search.
LIVENESS_REQUESTS = (
    "trivial-local-progress-f1",
    "trivial-local-progress-f2",
    "trivial-local-progress-schedules",
    "commit-adopt-starvation",
    "agp-local-progress",
    "i12-local-progress",
)
SPINNING_LOSER = "mutant:cas-spinning-loser"

#: service-mixed: reads at scale 1, share of reads that are never-seen
#: keys, and the cold-poll interval.
READ_REQUESTS = 10_000
MISS_SHARE = 0.01
POLL_SECONDS = 0.002
#: Never-seen keys: the 2-process consensus instances (a few ms each, so
#: the misses add writes, not CPU load) under depth bounds they never
#: reach, one distinct key per bound.
MISS_PREFIXES = ("consensus-grid:impl=cas,n=2,", "consensus-grid:impl=tas,n=2,",
                 "faulty-consensus:impl=inventing,n=2,",
                 "faulty-consensus:impl=stubborn,n=2,")
MISS_DEPTHS = (32, 40, 48, 56, 64, 72, 80, 88)
SHUTDOWN_GRACE_SECONDS = 0.1

#: Speed probes (:mod:`speed`) before the first and after the last timed
#: request, and on the executor workers' core after each cold fill request.
EDGE_PROBES = 10
FILL_PROBES = 2

#: Verdict stats that carry wall-clock readings; left out of the
#: verdict digest so two runs of one request list compare equal.
VOLATILE_STATS = ("elapsed", "interleavings_per_second")


def program_env() -> Dict[str, str]:
    """The environment for a child that imports the program (without
    the caller's cache settings, which would change what is measured)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in ("REPRO_VERIFY_CACHE", "REPRO_CACHE_DB", "REPRO_CACHE_EPOCH"):
        env.pop(name, None)
    return env


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _count(total: int, scale: float) -> int:
    return max(1, round(total * scale))


def _subset(items: List[Any], scale: float) -> List[Any]:
    """``scale`` of ``items``, the same ones for every seed."""
    items = list(items)
    random.Random(0).shuffle(items)
    return items[: _count(len(items), scale)]


# ---------------------------------------------------------------------------
# Request lists (pure functions of workload, seed and scale)
# ---------------------------------------------------------------------------


def _proof_sweep(rng: random.Random, scale: float) -> List[Dict[str, Any]]:
    from repro.scenarios import iter_scenarios

    ids = [
        s.scenario_id
        for s in iter_scenarios()
        if ("exhaustible" in s.tags or "small" in s.tags)
        and "liveness" not in s.tags
    ] + ["agp-opacity-deep"]
    # Every scenario twice at scale 1: enough samples for a p90 with ten
    # beyond it.
    ids = _subset(ids + ids, scale)
    rng.shuffle(ids)
    return [
        {
            "scenario": scenario_id,
            "backend": "exhaustive",
            "overrides": {"reduction": "dpor"},
        }
        for scenario_id in ids
    ]


def _fuzz_horizon(rng: random.Random, scale: float) -> List[Dict[str, Any]]:
    from repro.scenarios import iter_scenarios

    ids = [
        s.scenario_id
        for s in iter_scenarios()
        if "satisfying" in s.tags
        and "exhaustible" not in s.tags
        and "liveness" not in s.tags
        and not s.scenario_id.startswith(FUZZ_EXCLUDED_PREFIX)
    ]
    ids = _subset(ids, scale)
    rng.shuffle(ids)
    return [
        {
            "scenario": scenario_id,
            "backend": "fuzz",
            "overrides": {"seed": FUZZ_SEED, "iterations": FUZZ_ITERATIONS},
        }
        for scenario_id in ids
    ]


def _counterexample_hunt(rng: random.Random, scale: float) -> List[Dict[str, Any]]:
    from repro.mutate.mutants import MUTANTS

    mutants = [m.mutant_id for m in MUTANTS if "fuzz" in m.expected_killers]
    requests = [
        {
            "scenario": f"mutant:{mutant_id}",
            "backend": "fuzz",
            "overrides": {"seed": fuzz_seed, "shrink": True},
        }
        for mutant_id in mutants
        for fuzz_seed in range(_count(MUTANT_SEEDS, scale))
    ]
    liveness = LIVENESS_REQUESTS + (SPINNING_LOSER,)
    requests += [
        {"scenario": scenario_id, "backend": "liveness", "overrides": {}}
        for scenario_id in liveness[: _count(len(liveness), scale)]
    ]
    rng.shuffle(requests)
    return requests


def _service_mixed(rng: random.Random, scale: float) -> Dict[str, List]:
    from repro.scenarios import iter_scenarios

    exhaustible = [s.scenario_id for s in iter_scenarios() if "exhaustible" in s.tags]
    # The fill order is the same for every seed: the hits after each
    # fill request draw from the keys filled so far, so the order sets
    # the mix of documents the hits read.
    ids = _subset(exhaustible, scale)
    fill = [
        {
            "scenario": scenario_id,
            "backend": "exhaustive",
            "overrides": {"reduction": "dpor"},
        }
        for scenario_id in ids
    ]
    fresh = [
        {
            "scenario": scenario_id,
            "backend": "exhaustive",
            "overrides": {"reduction": "none", "max_depth": depth},
        }
        for scenario_id in exhaustible
        if scenario_id.startswith(MISS_PREFIXES)
        for depth in MISS_DEPTHS
    ]
    rng.shuffle(fresh)
    total = _count(READ_REQUESTS, scale)
    reads = []  # one chunk after each fill request
    for filled in range(1, len(fill) + 1):
        chunk = []
        for _ in range(total * filled // len(fill) - total * (filled - 1) // len(fill)):
            # A miss is a key no request has named before; once the fresh
            # keys run out every read is a hit, so no key is ever repeated
            # while its first verification may still be running.
            if fresh and rng.random() < MISS_SHARE:
                chunk.append(dict(fresh.pop(), kind="miss"))
            else:
                chunk.append(dict(rng.choice(fill[:filled]), kind="hit"))
        reads.append(chunk)
    return {"fill": fill, "reads": reads}


REQUEST_LISTS = {
    "proof-sweep": _proof_sweep,
    "fuzz-horizon": _fuzz_horizon,
    "counterexample-hunt": _counterexample_hunt,
    "service-mixed": _service_mixed,
}


def request_list(workload: str, seed: int, scale: float):
    """The workload's requests: the same seed gives the same list."""
    return REQUEST_LISTS[workload](random.Random(f"{workload}:{seed}"), scale)


def resolve(scenario_id: str):
    """A registered scenario, or a mutant's hunting scenario."""
    if scenario_id.startswith("mutant:"):
        from repro.mutate.mutants import get_mutant

        return get_mutant(scenario_id.partition(":")[2]).scenario_factory()
    from repro.scenarios import get_scenario

    return get_scenario(scenario_id)


def verdict_evidence(document: Dict[str, Any]) -> Tuple[int, float]:
    """(interleavings checked, search seconds) a verdict reports."""
    stats = document.get("stats", {})
    runs = stats.get("interleavings", stats.get("runs_checked", stats.get("runs", 0)))
    return int(runs or 0), float(stats.get("elapsed", 0.0))


def stable_document(document: Dict[str, Any]) -> Dict[str, Any]:
    stats = {
        key: value
        for key, value in document.get("stats", {}).items()
        if key not in VOLATILE_STATS
    }
    return dict(document, stats=stats)


def cex_length(document: Dict[str, Any]) -> Optional[int]:
    if "counterexample" in document:
        return len(document["counterexample"]["schedule"])
    return None


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def run_library(requests, traced: bool, trace_path: Optional[str]) -> Dict[str, Any]:
    import contextlib

    from oracle import check_verdict
    from repro.obs.metrics import metrics_document
    from repro.obs.recorder import recording
    from repro.scenarios import verify

    scenarios = [resolve(request["scenario"]) for request in requests]
    call = verify
    tracer = None
    if traced:
        from tracer import Tracer, install_library

        tracer = Tracer()
        install_library(tracer)
        call = tracer.wrap(verify, "scenarios.verify")
    clock = time.perf_counter
    probe = SpeedProbe()
    spans: List[Tuple[float, float]] = []
    verdicts: List[Any] = []
    errors: Dict[int, str] = {}
    context = recording(label="perfledger") if traced else contextlib.nullcontext()
    probe.take(EDGE_PROBES)
    with context as recorder:
        for index, (request, scenario) in enumerate(zip(requests, scenarios)):
            if tracer is not None:
                tracer.begin_request(index)
            start = clock()
            try:
                verdict = call(
                    scenario, backend=request["backend"], **request["overrides"]
                )
            except Exception as exc:  # a failed request, counted below
                verdict = None
                errors[index] = f"{type(exc).__name__}: {exc}"
            spans.append((start, clock()))
            if tracer is not None:
                tracer.end_request()
            verdicts.append(verdict)
            probe.tick()
    probe.take(EDGE_PROBES)
    slowness = [probe.slowness(start, end) for start, end in spans]
    failures = []
    documents = []
    for index, (scenario, verdict) in enumerate(zip(scenarios, verdicts)):
        if verdict is None:
            failures.append(f"request {index}: {errors[index]}")
            documents.append(None)
            continue
        reason = check_verdict(scenario, verdict)
        if reason is not None:
            failures.append(f"request {index} ({scenario.scenario_id}): {reason}")
        documents.append(verdict.to_document())
    raw = [end - start for start, end in spans]
    result = _summary(requests, raw, slowness, documents, slowness, failures)
    result["request_s"] = sum(result["latencies_s"])
    result["probes"] = len(probe.samples)
    if tracer is not None:
        if trace_path:
            tracer.write_chrome_trace(trace_path)
        result["traced"] = {
            "layers": tracer.layer_totals(),
            "calls": dict(sorted(tracer.counts.items())),
            "request_seconds": tracer.request_seconds,
            "counters": metrics_document(recorder)["counters"],
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _summary(
    requests, raw_latencies, latency_slowness, documents, document_slowness, failures
) -> Dict[str, Any]:
    """The pass result.  Times are at the reference speed (:mod:`speed`):
    each latency and each verdict's search time divided by the slowness
    measured around it; ``raw_s`` is the unscaled sum of latencies."""
    completed = [
        (document, slowness)
        for document, slowness in zip(documents, document_slowness)
        if document is not None
    ]
    evidence = []
    for document, slowness in completed:
        runs, seconds = verdict_evidence(document)
        evidence.append((runs, seconds / slowness))
    return {
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": [
            latency / slowness
            for latency, slowness in zip(raw_latencies, latency_slowness)
        ],
        "raw_s": sum(raw_latencies),
        "slowness": statistics.median(document_slowness) if document_slowness else 1.0,
        "completed": len(completed),
        "interleavings": sum(runs for runs, _ in evidence),
        "search_s": sum(seconds for _, seconds in evidence),
        "cex_lengths": [
            length
            for length in (cex_length(document) for document, _ in completed)
            if length is not None
        ],
        "verdicts_digest": digest(
            [None if d is None else stable_document(d) for d in documents]
        ),
    }


# ---------------------------------------------------------------------------
# The service workload: a server subprocess and one generator process
# ---------------------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def start_server(command: List[str], stderr_path: str) -> Tuple[subprocess.Popen, int]:
    """Spawn a server and wait for its "listening" line; returns the
    process and its port."""
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
    line = process.stdout.readline().decode("utf-8", "replace")
    match = _LISTENING.search(line)
    if match is None:
        process.kill()
        process.wait()
        process.stdout.close()
        raise RuntimeError(f"server did not start: {line!r}")
    return process, int(match.group(2))


def stop_server(process: subprocess.Popen, stderr_path: str) -> None:
    """SIGTERM the server (every connection must already be closed) and
    require a clean exit: code 0 and no traceback on stderr."""
    # The server closes a connection a few event-loop turns after its
    # last response; let it finish before the signal cancels its tasks.
    time.sleep(SHUTDOWN_GRACE_SECONDS)
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("server ignored SIGTERM for 60 s")
    finally:
        process.stdout.close()
    with open(stderr_path, "r", encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    if process.returncode != 0 or "Traceback" in stderr:
        raise RuntimeError(
            f"server exited with code {process.returncode}; stderr:\n{stderr}"
        )


class Connection:
    """One keep-alive HTTP/1.1 connection speaking the service's JSON."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        last: bool = False,
    ) -> Tuple[int, bytes]:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        self.writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Connection: {'close' if last else 'keep-alive'}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        """Have the server end the connection (a SIGTERM that reaches
        the server while it still holds a connection makes it print a
        CancelledError traceback, see README.md).  No EOF can be awaited:
        executor workers forked while the connection was open keep a
        copy of its socket."""
        await self.request("GET", "/v1/healthz", last=True)
        self.writer.close()
        await self.writer.wait_closed()


def _body(request: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "scenario": request["scenario"],
        "backend": request["backend"],
        "overrides": request["overrides"],
    }


class ServiceRun:
    """The generator side of service-mixed (see README.md): each cold fill
    request, polled until done, is followed by its chunk of reads, whose
    misses are collected before the next fill request.

    Every HTTP round trip is timed; ``round_trip_s`` sums them, which is
    the traced request time the server-side layers are shares of.  The
    workers' core is probed while no verification runs on it: after each
    fill request and around the whole run."""

    def __init__(
        self, port: int, plan: Dict[str, List], server_pid: int, worker_cpu: Optional[int]
    ):
        self.port = port
        self.fill = plan["fill"]
        self.reads = plan["reads"]
        self.server_pid = server_pid
        self.worker_cpu = worker_cpu
        #: Probes of the workers' core, and of the core the server and the
        #: generator share.
        self.probe = SpeedProbe()
        self.front_probe = SpeedProbe()
        self.clock = time.perf_counter
        self.round_trip_s = 0.0
        self.failures: List[str] = []
        self.cold: Dict[str, Dict[str, Any]] = {}  # canonical request -> verdict
        self.cold_spans: Dict[str, Tuple[float, float]] = {}
        self.cold_slowness: Dict[str, float] = {}
        self.cold_latency_s: List[float] = []
        self.cold_wait_s: List[float] = []
        self.hit_latency_s: List[float] = []
        #: (start, end) of the chunk each hit was read in.
        self.hit_spans: List[Tuple[float, float]] = []
        self.hit_bodies: List[Tuple[str, bytes]] = []
        #: (request, verdict, (start, end) of its chunk of reads).
        self.misses: List[Tuple[Dict[str, Any], Dict[str, Any], Tuple[float, float]]] = []

    def _probe_workers(self, count: int) -> None:
        with on_cpu(self.worker_cpu):
            self.probe.take(count)

    def _pin_workers(self) -> None:
        """Move the server's child processes (its executor workers, forked
        on the first cold request) to the workers' core."""
        if self.worker_cpu is None:
            return
        for child in _children(self.server_pid):
            try:
                os.sched_setaffinity(child, {self.worker_cpu})
            except OSError:  # the child has exited
                pass

    async def _call(self, connection, method, path, body=None):
        start = self.clock()
        status, payload = await connection.request(method, path, body)
        self.round_trip_s += self.clock() - start
        return status, payload

    async def _until_done(self, connection, reply: Dict[str, Any]) -> Dict[str, Any]:
        while reply.get("status") == "pending":
            await asyncio.sleep(POLL_SECONDS)
            status, payload = await self._call(
                connection, "GET", f"/v1/verify/{reply['id']}"
            )
            if status != 200:
                raise RuntimeError(f"poll answered HTTP {status}")
            reply = json.loads(payload)
        if reply.get("status") != "done":
            raise RuntimeError(f"verify request {reply.get('status')}: {reply}")
        return reply["verdict"]

    async def run(self) -> None:
        connection = await Connection.open(self.port)
        try:
            self._probe_workers(EDGE_PROBES)
            self.front_probe.take(EDGE_PROBES)
            for request, chunk in zip(self.fill, self.reads):
                await self._fill_one(connection, request)
                await self._read_chunk(connection, chunk)
            self._probe_workers(EDGE_PROBES)
            self.front_probe.take(EDGE_PROBES)
        finally:
            await connection.close()
        for key, (start, end) in self.cold_spans.items():
            slowness = self.probe.slowness(start, end)
            latency = (end - start) / slowness
            self.cold_slowness[key] = slowness
            self.cold_latency_s.append(latency)
            self.cold_wait_s.append(latency - verdict_evidence(self.cold[key])[1] / slowness)

    async def _fill_one(self, connection, request: Dict[str, Any]) -> None:
        """A cold fill request, polled until done."""
        start = self.clock()
        try:
            status, payload = await self._call(
                connection, "POST", "/v1/verify", _body(request)
            )
            if status not in (200, 202):
                raise RuntimeError(f"submit answered HTTP {status}")
            document = await self._until_done(connection, json.loads(payload))
        except (RuntimeError, ValueError) as exc:
            self.failures.append(f"fill {request['scenario']}: {exc}")
            return
        key = digest(_body(request))
        self.cold_spans[key] = (start, self.clock())
        self.cold[key] = document
        self._pin_workers()
        self._probe_workers(FILL_PROBES)

    async def _read_chunk(self, connection, chunk: List[Dict[str, Any]]) -> None:
        """A closed loop of reads, each timed from send to response; then
        the chunk's misses, polled until done."""
        start = self.clock()
        hits = len(self.hit_latency_s)
        pending = []
        for request in chunk:
            sent = self.clock()
            status, payload = await self._call(
                connection, "POST", "/v1/verify", _body(request)
            )
            latency = self.clock() - sent
            if request["kind"] == "hit":
                if status != 200:
                    self.failures.append(f"hit {request['scenario']}: HTTP {status}")
                    continue
                self.hit_latency_s.append(latency)
                self.hit_bodies.append((digest(_body(request)), payload))
            elif status not in (200, 202):
                self.failures.append(f"miss {request['scenario']}: HTTP {status}")
            else:
                pending.append((request, payload))
        span = (start, self.clock())
        self.hit_spans += [span] * (len(self.hit_latency_s) - hits)
        self.front_probe.take(FILL_PROBES)
        for request, reply in pending:
            try:
                document = await self._until_done(connection, json.loads(reply))
            except RuntimeError as exc:
                self.failures.append(f"miss {request['scenario']}: {exc}")
                continue
            self.misses.append((request, document, span))

    def check(self) -> List[Tuple[Dict[str, Any], float]]:
        """The verdict oracle over every cold verdict, and byte identity
        of every hit against the cold verdict of its key.  Returns each
        cold verdict with the slowness of the core that verified it."""
        from oracle import check_document

        documents = []
        for request in self.fill:
            key = digest(_body(request))
            document = self.cold.get(key)
            if document is not None:
                documents.append((document, self.cold_slowness[key]))
                reason = check_document(resolve(request["scenario"]), document)
                if reason is not None:
                    self.failures.append(f"fill {request['scenario']}: {reason}")
        for request, document, (start, end) in self.misses:
            documents.append((document, self.probe.slowness(start, end)))
            reason = check_document(resolve(request["scenario"]), document)
            if reason is not None:
                self.failures.append(f"miss {request['scenario']}: {reason}")
        canonical = {
            key: json.dumps(document, sort_keys=True, separators=(",", ":"))
            for key, document in self.cold.items()
        }
        for key, payload in self.hit_bodies:
            reply = json.loads(payload)
            served = json.dumps(reply.get("verdict"), sort_keys=True, separators=(",", ":"))
            if not reply.get("cached") or served != canonical.get(key):
                self.failures.append(f"hit {reply.get('scenario')}: not the cold verdict")
        return documents


def _children(pid: int) -> List[int]:
    """The child processes of ``pid`` (forked by any of its threads)."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children += [int(child) for child in handle.read().split()]
        except OSError:
            continue
    return children


def fresh_database(workdir: str) -> str:
    """The path of an empty verdict cache in ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    database = os.path.join(workdir, "verdicts.db")
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(database + suffix):
            os.remove(database + suffix)
    return database


def run_service(plan, traced: bool, workdir: str, trace_path: Optional[str]) -> Dict[str, Any]:
    database = fresh_database(workdir)
    serve = ["serve", "--port", "0", "--workers", "1", "--cache-db", database]
    layers_path = os.path.join(workdir, "server-layers.json")
    if traced:
        command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                   "--layers-out", layers_path]
        if trace_path:
            command += ["--trace-out", trace_path]
        command += serve
    else:
        command = [sys.executable, "-m", "repro"] + serve
    stderr_path = os.path.join(workdir, "server.stderr")
    # The server and the generator share one core, the executor workers
    # get the other.  With the server (and its workers) on one core and
    # the generator on the other, every hit crossed cores, and hit p90
    # ran from 0.6 to 8.6 ms across ten runs on a busy host.
    front_cpu, worker_cpu = cpus()[-1], cpus()[0]
    if front_cpu == worker_cpu:
        worker_cpu = None
    os.sched_setaffinity(0, {front_cpu})
    process, port = start_server(command, stderr_path)
    counters: Dict[str, Any] = {}
    try:
        run = ServiceRun(port, plan, process.pid, worker_cpu)
        loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        try:
            # select() takes a float timeout; epoll rounds sleeps up to
            # whole milliseconds, which would lengthen every cold poll.
            loop.run_until_complete(run.run())
            if traced:
                counters = loop.run_until_complete(_server_counters(port))
        finally:
            loop.close()
    finally:
        stop_server(process, stderr_path)
    checked = run.check()
    connection = sqlite3.connect(database)
    try:
        stores = connection.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
    finally:
        connection.close()
    result = _summary(
        run.fill + [read for chunk in run.reads for read in chunk],
        run.hit_latency_s,
        [run.front_probe.slowness(start, end) for start, end in run.hit_spans],
        [document for document, _ in checked],
        [slowness for _, slowness in checked],
        run.failures,
    )
    result.update(
        {
            "request_s": run.round_trip_s,
            "probes": len(run.probe.samples) + len(run.front_probe.samples),
            "fill_completed": len(run.cold),
            "fill_s": sum(run.cold_latency_s),
            "cold_latencies_s": run.cold_latency_s,
            "cold_wait_s": run.cold_wait_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    )
    if traced:
        with open(layers_path, encoding="utf-8") as handle:
            server = json.load(handle)
        result["traced"] = {
            "layers": server["layers"],
            "calls": {},
            "request_seconds": run.round_trip_s,
            "handle_p50_s": statistics.median(server["handle_s"]),
            "counters": dict(counters, **{"cache/store": stores}),
        }
    return result


async def _server_counters(port: int) -> Dict[str, Any]:
    connection = await Connection.open(port)
    try:
        status, payload = await connection.request("GET", "/v1/metrics")
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered HTTP {status}")
    return json.loads(payload)["counters"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--trace-out", default=None, help="Chrome trace path")
    parser.add_argument(
        "--list-requests", action="store_true",
        help="print the request list as JSON instead of running it",
    )
    arguments = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    requests = request_list(arguments.workload, arguments.seed, arguments.scale)
    if arguments.list_requests:
        json.dump(requests, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    traced = bool(arguments.trace)
    if arguments.workload == "service-mixed":
        workdir = os.path.join(
            os.path.dirname(os.path.abspath(arguments.out)),
            f"service-{arguments.trace}",
        )
        result = run_service(requests, traced, workdir, arguments.trace_out)
    else:
        # One core, so the probes between requests measure the core the
        # requests ran on.
        os.sched_setaffinity(0, {cpus()[-1]})
        result = run_library(requests, traced, arguments.trace_out)
    result["requests_digest"] = digest(requests)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke-test the verification service over a real subprocess + socket.

Starts ``python -m repro serve`` as a subprocess, waits for
``/v1/healthz``, submits a verify request for an exhaustible scenario,
polls it to completion, re-submits the identical request, and asserts
the second response is an inline cache hit whose verdict document is
byte-identical to the cold one.  It then corrupts the stored row with
``sqlite3`` and asserts that the next re-submit is recomputed (the
cache counts ``cache/corrupt`` once) and served byte-identically
afterwards, and, after shutdown, that ``repro cache stats`` reports
the hits the server served.  The verdict is written to
``serve_smoke_verdict.json`` (the CI job uploads it as an artifact).

This is the CI ``serve-smoke`` job; it is also runnable by hand::

    PYTHONPATH=src python examples/serve_smoke.py [verdict-out.json]
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

SCENARIO = "agp-opacity"
BACKEND = "exhaustive"
PORT = 8901
BASE = f"http://127.0.0.1:{PORT}"

#: Generous bounds for slow CI machines.
HEALTH_DEADLINE = 30.0
VERDICT_DEADLINE = 120.0


def request(method: str, path: str, body: dict = None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(BASE + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=10) as response:
        return response.status, response.read()


def wait_for_health(server: subprocess.Popen) -> None:
    deadline = time.monotonic() + HEALTH_DEADLINE
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise SystemExit(
                f"serve exited early with code {server.returncode}"
            )
        try:
            status, _ = request("GET", "/v1/healthz")
            if status == 200:
                return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise SystemExit("serve did not become healthy in time")


def submit() -> dict:
    status, raw = request(
        "POST", "/v1/verify", {"scenario": SCENARIO, "backend": BACKEND}
    )
    document = json.loads(raw)
    assert status in (200, 202), (status, document)
    return document


def poll(document: dict) -> dict:
    """Poll a submitted request until it is no longer pending."""
    request_id = document["id"]
    deadline = time.monotonic() + VERDICT_DEADLINE
    while time.monotonic() < deadline:
        _, raw = request("GET", f"/v1/verify/{request_id}")
        document = json.loads(raw)
        if document["status"] != "pending":
            break
        time.sleep(0.25)
    assert document["status"] == "done", document
    return document


def corrupt(database: Path, key: str) -> None:
    """Flip one digit of the stored verdict: the text still parses, but
    no longer matches its digest."""
    connection = sqlite3.connect(database)
    with connection:
        (text,) = connection.execute(
            "SELECT document FROM verdicts WHERE key = ?", (key,)
        ).fetchone()
        at = next(index for index, char in enumerate(text) if char.isdigit())
        flipped = text[:at] + ("8" if text[at] == "9" else "9") + text[at + 1:]
        json.loads(flipped)
        connection.execute(
            "UPDATE verdicts SET document = ? WHERE key = ?", (flipped, key)
        )
    connection.close()


def without_elapsed(verdict: dict) -> str:
    """The verdict's canonical text without its wall-clock stat, the one
    stat that differs between two computations of one verdict."""
    stats = {k: v for k, v in verdict["stats"].items() if k != "elapsed"}
    return json.dumps(dict(verdict, stats=stats), sort_keys=True)


def main(verdict_out: Path) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        database = Path(tmp) / "verdicts.db"
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(PORT),
                "--workers", "1",
                "--cache-db", str(database),
            ],
        )
        try:
            wait_for_health(server)
            print(f"server healthy on {BASE}")

            # Cold: submitted to the executor, polled to completion.
            document = submit()
            assert document["status"] == "pending", document
            print(f"submitted {SCENARIO} ({BACKEND}) as {document['id']}")
            document = poll(document)
            cold = document["verdict"]
            print(
                f"cold verdict: {cold['outcome']} "
                f"(as expected: {cold['expected']})"
            )
            assert cold["expected"] is True, cold

            # Identical re-submit: an inline cache hit, byte-identical.
            replay = submit()
            assert replay["status"] == "done", replay
            assert replay["cached"] is True, replay
            assert replay["key"] == document["key"], (replay, document)
            cold_text = json.dumps(cold, sort_keys=True)
            hit_text = json.dumps(replay["verdict"], sort_keys=True)
            assert cold_text == hit_text, "cache hit is not byte-identical"
            print(f"cache hit under key {replay['key'][:12]}: byte-identical")

            # The verdict is also addressable directly by its key.
            status, raw = request("GET", f"/v1/verdicts/{replay['key']}")
            assert status == 200, status
            assert json.dumps(json.loads(raw), sort_keys=True) == cold_text

            # A corrupt row is a miss: recomputed, rewritten, served again.
            corrupt(database, replay["key"])
            recomputed = submit()
            assert recomputed["status"] == "pending", recomputed
            recomputed = poll(recomputed)["verdict"]
            assert without_elapsed(recomputed) == without_elapsed(cold)
            rehit = submit()
            assert rehit["cached"] is True, rehit
            assert json.dumps(rehit["verdict"], sort_keys=True) == json.dumps(
                recomputed, sort_keys=True
            ), "hit after the rewrite is not byte-identical"
            print("corrupt row: recomputed to the same verdict, then hit")

            _, raw = request("GET", "/v1/metrics")
            counters = json.loads(raw)["counters"]
            assert counters.get("cache/corrupt") == 1, counters
            hits = counters.get("cache/hit", 0)
            assert hits == 3, counters

            verdict_out.write_text(json.dumps(cold, indent=2) + "\n")
            print(f"-> {verdict_out}")
        finally:
            server.terminate()
            server.wait(timeout=10)
        assert server.returncode == 0, server.returncode

        # The server's hit counts land in the file when it shuts down.
        stats = json.loads(
            subprocess.run(
                [sys.executable, "-m", "repro", "cache", "stats",
                 "--cache-db", str(database)],
                check=True, capture_output=True, text=True,
            ).stdout
        )
        assert stats["hits"] == hits, (stats, hits)
        print(f"cache stats after shutdown: {hits} hits")
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "serve_smoke_verdict.json"
    )
    raise SystemExit(main(target))

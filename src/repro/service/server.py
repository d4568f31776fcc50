"""Minimal stdlib HTTP/1.1 framing over asyncio streams.

No third-party web framework: the container bakes in only the Python
toolchain, and the service needs exactly one content type
(``application/json``), two methods, and keep-alive — a few dozen
lines over :func:`asyncio.start_server`.  The application logic lives
in :mod:`repro.service.app`; this module only parses requests, frames
responses, and owns process lifecycle (``python -m repro serve``).

Responses are serialized with ``sort_keys=True``, so two cache hits on
the same key produce byte-identical bodies — the property the
``serve-smoke`` CI job asserts over the wire.
"""

from __future__ import annotations

import asyncio
import json
import signal

from typing import Optional, Tuple

from repro.service.app import ServiceApp

#: Request-line + headers must fit in this many bytes (we serve JSON
#: APIs, not uploads); the body is bounded separately.
MAX_HEADER_BYTES = 32_768
MAX_BODY_BYTES = 8_000_000

#: Idle keep-alive connections are dropped after this many seconds.
IDLE_TIMEOUT = 60.0


class _BadRequest(Exception):
    """Malformed HTTP framing (maps to a 400 and connection close)."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, dict, Optional[dict]]]:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=IDLE_TIMEOUT
        )
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    except asyncio.TimeoutError:
        return None
    except asyncio.LimitOverrunError:
        raise _BadRequest("headers too large")
    if len(head) > MAX_HEADER_BYTES:
        raise _BadRequest("headers too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body: Optional[dict] = None
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _BadRequest(f"bad Content-Length {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(f"unacceptable Content-Length {length}")
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"request body is not JSON: {exc}") from None
    return method, path, headers, body


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


def _encode_response(
    status: int, document: dict, keep_alive: bool
) -> bytes:
    payload = (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + payload


async def handle_connection(
    app: ServiceApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve requests on one connection until close/EOF/idle."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                writer.write(
                    _encode_response(400, {"error": str(exc)}, False)
                )
                await writer.drain()
                break
            if request is None:
                break
            method, path, headers, body = request
            try:
                status, document = await app.handle(method, path, body)
            except Exception as exc:  # never kill the server on one request
                app.recorder.count("service/internal_errors")
                status, document = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            keep_alive = headers.get("connection", "keep-alive") != "close"
            writer.write(_encode_response(status, document, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except asyncio.CancelledError:
        # Shutdown cancels every open connection's handler: a clean
        # close.  The handler is its task's top level and nothing awaits
        # it, so the cancellation ends here; re-raised, it reaches the
        # done-callback of asyncio.start_server, which on Python 3.11
        # reads the cancelled task's exception and prints a traceback.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # peer already gone, or shutdown


async def start_service(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 8765
) -> asyncio.base_events.Server:
    """Start the app's asyncio server (``port=0`` picks an ephemeral
    port — the in-process tests use it); the caller owns the loop."""
    app.start()
    return await asyncio.start_server(
        lambda reader, writer: handle_connection(app, reader, writer),
        host=host,
        port=port,
        limit=MAX_HEADER_BYTES,
    )


async def _serve_forever(
    host: str, port: int, cache_path: Optional[str], workers: int
) -> None:
    app = ServiceApp(cache_path=cache_path, workers=workers)
    server = await start_service(app, host=host, port=port)
    bound = server.sockets[0].getsockname()
    print(
        f"repro-serve listening on http://{bound[0]}:{bound[1]} "
        f"(cache: {app.cache_path}, workers: {app.workers})",
        flush=True,
    )
    # SIGTERM/SIGINT must unwind through the finally below: dying
    # without shutting the executor down leaves its workers orphaned.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix loops
            pass
    try:
        async with server:
            await stop.wait()
        print("repro-serve: shutting down", flush=True)
    finally:
        app.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_path: Optional[str] = None,
    workers: int = 2,
) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    try:
        asyncio.run(_serve_forever(host, port, cache_path, workers))
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shutting down", flush=True)
    return 0

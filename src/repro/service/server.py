"""Minimal stdlib HTTP/1.1 framing over asyncio streams.

No third-party web framework: the container bakes in only the Python
toolchain, and the service needs exactly one content type
(``application/json``), two methods, and keep-alive — a few dozen
lines over :func:`asyncio.start_server`.  The application logic lives
in :mod:`repro.service.app`; this module only parses requests, frames
responses, and owns process lifecycle (``python -m repro serve``).

The app hands over each reply as canonical JSON text (sorted keys), and
it is framed as it is, so two cache hits on the same key produce
byte-identical bodies — the property the ``serve-smoke`` CI job asserts
over the wire.

Each connection has one idle watchdog, a single event-loop timer: it
closes the connection once it has waited :data:`IDLE_TIMEOUT` seconds
for a request, and is cancelled when the connection closes.  Each
response only stamps the time it went out; the timer re-arms itself
when it fires early.
"""

from __future__ import annotations

import asyncio
import json
import signal

from typing import Optional, Tuple

from repro.service.app import ServiceApp
from repro.util.hashing import canonical_json

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
) -> Optional[Tuple[str, str, bool, Optional[dict]]]:
    """Parse one request into ``(method, path, keep_alive, body)``;
    ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    except asyncio.LimitOverrunError:
        raise _BadRequest("headers too large")
    if len(head) > MAX_HEADER_BYTES:
        raise _BadRequest("headers too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line {lines[0]!r}")
    method, path, version = parts[0].upper(), parts[1], parts[2]
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
        try:
            raw = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None  # closed mid-body, by the peer or the watchdog
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"request body is not JSON: {exc}") from None
    # Connection options are case-insensitive tokens; HTTP/1.1 defaults
    # to keep-alive, HTTP/1.0 to close.
    options = {
        token.strip() for token in headers.get("connection", "").lower().split(",")
    }
    if version == "HTTP/1.0":
        keep_alive = "keep-alive" in options
    else:
        keep_alive = "close" not in options
    return method, path, keep_alive, body


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


def _encode_response(status: int, text: str, keep_alive: bool) -> bytes:
    payload = (text + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + payload


class _IdleWatchdog:
    """Closes a connection's transport once it has waited
    :data:`IDLE_TIMEOUT` seconds for a request (see module docstring)."""

    def __init__(self, transport: asyncio.BaseTransport):
        self._loop = asyncio.get_running_loop()
        self._transport = transport
        self.touch()
        self._timer = self._loop.call_at(self._deadline, self._fire)

    def touch(self) -> None:
        """A response went out: the idle period starts over."""
        self._deadline = self._loop.time() + IDLE_TIMEOUT

    def _fire(self) -> None:
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._fire)
        else:
            # The handler's pending read then ends at EOF.
            self._transport.close()

    def cancel(self) -> None:
        self._timer.cancel()


async def handle_connection(
    app: ServiceApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve requests on one connection until close/EOF/idle."""
    watchdog = _IdleWatchdog(writer.transport)
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                writer.write(
                    _encode_response(
                        400, canonical_json({"error": str(exc)}), False
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            method, path, keep_alive, body = request
            try:
                status, text = await app.handle(method, path, body)
            except Exception as exc:  # never kill the server on one request
                app.recorder.count("service/internal_errors")
                status, text = 500, canonical_json(
                    {"error": f"{type(exc).__name__}: {exc}"}
                )
            writer.write(_encode_response(status, text, keep_alive))
            await writer.drain()
            watchdog.touch()
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
        watchdog.cancel()
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
            # Cancel the handlers of open connections, a clean close:
            # from Python 3.12, leaving this block waits for every
            # connection, and an idle one would hold shutdown for
            # IDLE_TIMEOUT.
            current = asyncio.current_task()
            for task in asyncio.all_tasks():
                if task is not current:
                    task.cancel()
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

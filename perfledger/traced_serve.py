"""``python -m repro serve`` with the service layers traced.

Usage (service-mixed's traced pass starts it)::

    python3 perfledger/traced_serve.py --layers-out FILE [--trace-out FILE] \\
        serve --port 0 --workers 1 --cache-db DB

Each ``ServiceApp.handle`` call is one request span and
``VerdictCache.get`` a layer inside it (:mod:`tracer`); the serve entry
point then runs unchanged.  When SIGTERM ends the server, the per-layer
totals and every handle duration are written to ``--layers-out`` (and
the spans to ``--trace-out``).  Cold verifications run in the server's
executor worker processes, which are not traced: their layers are
measured in-process by proof-sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="repro CLI arguments")
    arguments = parser.parse_args(argv)
    sys.path.insert(0, SRC)

    from tracer import REQUEST, Tracer
    from repro.__main__ import main as repro_main
    from repro.service.app import ServiceApp
    from repro.service.cache import VerdictCache

    tracer = Tracer()
    handle_s = []
    handle = ServiceApp.handle

    async def traced_handle(self, method, path, body):
        # handle() answers without suspending, so requests on different
        # connections never interleave on the span stack (begin_request
        # raises if they ever do).
        tracer.begin_request(tracer.requests)
        try:
            return await handle(self, method, path, body)
        finally:
            handle_s.append(tracer.end_request())

    ServiceApp.handle = traced_handle
    VerdictCache.get = tracer.wrap(VerdictCache.get, "service.cache_get")
    code = repro_main(arguments.command)
    layers = tracer.layer_totals()
    layers["service.handle"] = layers.pop(REQUEST, {"calls": 0, "self_s": 0.0})
    with open(arguments.layers_out, "w", encoding="utf-8") as out:
        json.dump(
            {"layers": layers, "handle_s": handle_s},
            out,
            sort_keys=True,
        )
    if arguments.trace_out:
        tracer.write_chrome_trace(arguments.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracing from outside the program: a span stack over wrapped entry points.

The traced pass of every workload installs wrappers around the public
entry points of each layer (the table in :func:`install_library`) and
keeps one span stack per process.  A span's *self time* is its
duration minus the spans nested in it, so per request the self times of
all layers plus the request span's own self time (``unattributed``) add
up to the request's wall time by construction; a span closed out of
stack order raises instead of being miscounted.

* Hot boundaries (kernel step, apply, capture, restore, fingerprint,
  sleep-set bookkeeping, safety check) are aggregated per request as
  ``(calls, self seconds)``: one span per call would cost more than the
  call itself.
* Coarse boundaries (``verify``, the fuzz driver, shrinking, replays,
  the liveness search) are additionally kept as individual spans with
  their parent layer and request id, and written as a Perfetto-loadable
  Chrome trace.
* Generators (``KernelExplorer.run``, ``LivenessSearch.runs``) are
  timed per ``next()``, so the consumer's work between two yields (the
  safety check of each explored run) is not charged to the search.
* A re-entrant call (a layer calling itself, e.g. a conjunction of
  safety checkers) is folded into the outer span, so ``calls`` counts
  outermost calls only.

Wrappers are pass-through outside a request, so the benchmark's own
oracle can call the same functions without being measured.
"""

from __future__ import annotations

import functools
import json
import time

from typing import Any, Callable, Dict, List, Optional

#: The request span: its self time is the time no wrapped layer claims.
REQUEST = "request"

#: Chrome trace events kept per process before further spans are counted
#: as dropped (the program's own recorder uses the same cap).
MAX_TRACE_EVENTS = 200_000

#: Layers whose spans are written individually to the Chrome trace.
COARSE = frozenset(
    {
        "scenarios.verify",
        "fuzz.run",
        "fuzz.shrink",
        "fuzz.replay",
        "sim.liveness",
        "sim.lasso_shrink",
        "sim.lasso_replay",
    }
)


class Tracer:
    """One process's span stack, per-layer totals and coarse spans."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        #: Open spans, innermost last: ``[layer, start, child seconds]``.
        self.stack: List[List[Any]] = []
        #: layer -> [calls, self seconds], summed over every request.
        self.totals: Dict[str, List[float]] = {}
        #: layer -> [calls, self seconds] of the request in flight.
        self.current: Dict[str, List[float]] = {}
        #: Count-only boundaries (no span): name -> calls.
        self.counts: Dict[str, int] = {}
        self.request_id: Optional[int] = None
        self.request_seconds = 0.0
        self.requests = 0
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0

    # -- requests -------------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        if self.stack:
            raise RuntimeError("a request is already open on the span stack")
        self.request_id = request_id
        self.current = {}
        self.stack.append([REQUEST, self.clock(), 0.0])

    def end_request(self) -> float:
        """Close the request span; returns its duration in seconds."""
        end = self.clock()
        frame = self.stack.pop()
        if frame[0] != REQUEST or self.stack:
            raise RuntimeError(f"span stack corrupted: closing {frame[0]!r}")
        duration = end - frame[1]
        self._add(REQUEST, duration - frame[2])
        self.request_seconds += duration
        self.requests += 1
        self._event(REQUEST, frame[1], duration, None, self.current)
        self.request_id = None
        return duration

    # -- spans ------------------------------------------------------------------

    def _add(self, layer: str, self_seconds: float) -> None:
        for table in (self.totals, self.current):
            entry = table.get(layer)
            if entry is None:
                table[layer] = [1, self_seconds]
            else:
                entry[0] += 1
                entry[1] += self_seconds

    def _close(self, frame: List[Any]) -> None:
        end = self.clock()
        stack = self.stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span stack corrupted: closing {frame[0]!r}")
        duration = end - frame[1]
        self._add(frame[0], duration - frame[2])
        parent = stack[-1]
        parent[2] += duration
        if frame[0] in COARSE:
            self._event(frame[0], frame[1], duration, parent[0], None)

    def _event(self, name, start, duration, parent, layers) -> None:
        if len(self.events) >= MAX_TRACE_EVENTS:
            self.dropped_events += 1
            return
        args: Dict[str, Any] = {"request": self.request_id}
        if parent is not None:
            args["parent"] = parent
        if layers is not None:
            args["layers"] = {
                layer: [int(calls), round(seconds, 9)]
                for layer, (calls, seconds) in sorted(layers.items())
            }
        self.events.append(
            {
                "name": name,
                "cat": name.partition(".")[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` timed as one span of ``layer`` per call."""
        stack = self.stack
        clock = self.clock
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return wrapper

    def wrap_iter(self, fn: Callable, layer: str) -> Callable:
        """A function returning an iterator, timed per ``next()``."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            if not stack:
                return iterator
            return self._timed(iterator, layer)

        return wrapper

    def _timed(self, iterator, layer: str):
        stack = self.stack
        clock = self.clock
        while True:
            if not stack or stack[-1][0] == layer:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(frame)
                    return
                except BaseException:
                    self._close(frame)
                    raise
                self._close(frame)
            yield item

    def count_calls(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted (not timed) while a request is open."""
        stack = self.stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        return {
            layer: {"calls": int(calls), "self_s": seconds}
            for layer, (calls, seconds) in sorted(self.totals.items())
        }

    def write_chrome_trace(self, path: str) -> None:
        """The coarse spans plus one span per request (whose ``args``
        carry that request's hot-layer aggregates), loadable in
        Perfetto / ``chrome://tracing``."""
        document = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped_events},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)


def _safety_checkers():
    """Every class below ``SafetyProperty`` that defines its own
    ``check_history`` (imports the checker modules so all are loaded)."""
    import repro.mutate.mutants  # noqa: F401  (the workloads' checkers)
    import repro.objects  # noqa: F401
    import repro.scenarios  # noqa: F401
    from repro.core.properties import SafetyProperty

    seen = []
    pending = [SafetyProperty]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return [cls for cls in seen if "check_history" in cls.__dict__]


def install_library(tracer: Tracer) -> None:
    """Wrap the layer entry points the in-process workloads reach.

    Class attributes are patched on the class; module functions are
    patched at the import site their caller resolves at call time."""
    import importlib

    import repro.fuzz.shrink
    import repro.objects.counterexample_s
    import repro.objects.opacity
    import repro.objects.tm
    import repro.sim.lasso_shrink

    from repro.engine.config import KernelConfig
    from repro.engine.dpor import SleepSets
    from repro.engine.explorer import KernelExplorer
    from repro.fuzz.driver import FuzzDriver
    from repro.sim.liveness_search import LivenessSearch
    from repro.sim.runtime import Runtime

    # The package re-exports the verify() function under the module's name.
    verify_module = importlib.import_module("repro.scenarios.verify")
    per_call = [
        (Runtime, "apply_decision", "sim.step"),
        (KernelConfig, "apply", "engine.apply"),
        (KernelConfig, "capture", "engine.capture"),
        (KernelConfig, "restore_from", "engine.restore"),
        (KernelConfig, "fingerprint", "engine.fingerprint"),
        (KernelConfig, "kernel_fingerprint", "engine.fingerprint"),
        (SleepSets, "child_sleep", "engine.dpor"),
        (SleepSets, "note_expansion", "engine.dpor"),
        (SleepSets, "revisit_sleep", "engine.dpor"),
        (FuzzDriver, "run", "fuzz.run"),
        (verify_module, "shrink_schedule", "fuzz.shrink"),
        (verify_module, "replay_schedule", "fuzz.replay"),
        (repro.fuzz.shrink, "replay_schedule", "fuzz.replay"),
        (verify_module, "shrink_lasso", "sim.lasso_shrink"),
        (repro.sim.lasso_shrink, "replay_lasso", "sim.lasso_replay"),
    ]
    per_call += [
        (cls, "check_history", "objects.check") for cls in _safety_checkers()
    ]
    for owner, attribute, layer in per_call:
        setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), layer))
    for owner, attribute, layer in (
        (KernelExplorer, "run", "engine.search"),
        (LivenessSearch, "runs", "sim.liveness"),
    ):
        setattr(owner, attribute, tracer.wrap_iter(getattr(owner, attribute), layer))
    for module in (
        repro.objects.opacity,
        repro.objects.counterexample_s,
        repro.objects.tm,
    ):
        module.parse_transactions = tracer.count_calls(
            module.parse_transactions, "objects.parse"
        )

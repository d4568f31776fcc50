"""The instrumentation core: spans, counters, gauges, one recorder.

Zero-dependency by design: this module sits *below* every subsystem it
instruments (engine, fuzz, liveness, campaign), so it may import nothing
from :mod:`repro` beyond the standard library.  The model is small:

* a :class:`Recorder` aggregates named **counters** (monotone sums),
  **gauges** (last/max observed values), and **spans** (wall-clock
  timers aggregated per name: count, total, max) — and, when ``trace``
  is on, keeps per-span Chrome trace events for Perfetto timelines;
* one module-global *active* recorder, installed with
  :func:`recording` (a context manager) or :func:`install`.  When none
  is installed, :func:`active` returns ``None`` — the **no-op fast
  path**: instrumented hot loops fetch the recorder once per phase and
  guard each increment with a single ``is not None`` check, so the
  disabled overhead is one pointer comparison.  No benchmark measures
  that cost: the ``obs-smoke`` CI gate (``benchmarks/gates.py obs``)
  compares recorder-off checked fuzz runs with an earlier run of the
  same call, so both sides execute the same instrumented code and the
  gate bounds runner noise only.  A one-off comparison with the sites
  stripped found no difference beyond run-to-run spread
  (``docs/architecture.md``, "The recorder model");
* :func:`span` always *times* (it is how ``verify()`` produces its
  normalized ``elapsed`` stat) but only *records* when a recorder is
  active — timing one span per verify call is free at any scale;
* while a recorder is installed, a :data:`gc.callbacks` hook times
  every cyclic-collector pass into a span per generation (``gc/gen0``,
  ``gc/gen1``, ``gc/gen2``).  A profiler charges each pause to whichever
  function happened to allocate, so these spans are the only place the
  collector's cost shows.  Collections are not deterministic: the spans
  stay out of every count the benchmarks compare and out of verdicts.
  With no recorder installed, no hook is installed either.

Nesting and merging
-------------------
``recording()`` nests: the previous recorder is reinstalled on exit and
**absorbs** the nested recorder's aggregates (counters summed, spans
merged, the outer recorder's own gauges kept with inner-only gauges
copied, trace events appended with anything unkeepable counted as
dropped).  That is how
``verify()`` gives every verdict its own per-call metrics document
while a CLI-level recorder still sees the session totals, and how
campaign workers fold per-job recorders into per-worker fragments.

Recorders are process-local.  Cross-process aggregation (the campaign
worker pool) is explicit: each worker serializes its documents
(:func:`repro.obs.metrics.metrics_document`) and the parent merges them
(:func:`repro.obs.metrics.merge_metrics`) — identified by ``pid`` so
Chrome traces show one lane per worker.
"""

from __future__ import annotations

import gc
import os
import threading
import time

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Hard cap on buffered trace events per recorder.  A 50k-iteration fuzz
#: run with per-walk spans would otherwise buffer hundreds of thousands
#: of dicts; the cap keeps tracing usable and the drop count is surfaced
#: loudly in the metrics document (``meta.dropped_trace_events``) —
#: never a silent truncation.
MAX_TRACE_EVENTS = 200_000


class Span:
    """A wall-clock timer for one named region (context manager).

    Always measures; reports to ``recorder`` (aggregation + optional
    trace event) only when one is attached.  ``elapsed`` is the duration
    in seconds after exit; :attr:`elapsed_stat` is the canonical rounded
    form every backend publishes as its ``elapsed`` stat.
    """

    __slots__ = ("name", "recorder", "elapsed", "_t0", "_ts_us")

    def __init__(self, name: str, recorder: Optional["Recorder"] = None):
        self.name = name
        self.recorder = recorder
        self.elapsed = 0.0
        self._t0 = 0.0
        self._ts_us = 0

    def __enter__(self) -> "Span":
        if self.recorder is not None and self.recorder.trace:
            self._ts_us = time.time_ns() // 1_000
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._t0
        if self.recorder is not None:
            self.recorder._finish_span(self.name, self._ts_us, self.elapsed)

    @property
    def elapsed_stat(self) -> float:
        """The canonical stats encoding of the duration (seconds,
        rounded to 4 digits — the schema every backend shares)."""
        return round(self.elapsed, 4)


class Recorder:
    """Aggregates counters, gauges, and spans for one process/phase.

    Not thread-safe for concurrent *increments* (each thread or worker
    should own its recorder and be merged with :meth:`absorb` /
    :func:`repro.obs.metrics.merge_metrics`); trace events do record
    the emitting thread id so single-recorder multi-thread traces stay
    readable.
    """

    def __init__(self, label: Optional[str] = None, trace: bool = False):
        self.label = label
        self.trace = trace
        self.pid = os.getpid()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, total seconds, max seconds]
        self.spans: Dict[str, List[float]] = {}
        self.trace_events: List[Dict[str, Any]] = []
        self.dropped_trace_events = 0
        #: ``perf_counter`` and trace timestamp of the collection in
        #: progress (see :func:`_time_collection`).
        self._collection_t0 = 0.0
        self._collection_ts_us = 0

    # -- the three instruments ---------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a monotone counter."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a level; repeated observations keep the maximum.

        Gauges are per-recorder levels, not sums: :meth:`absorb` keeps
        this recorder's own value over an absorbed inner one's."""
        gauges = self.gauges
        if name not in gauges or value > gauges[name]:
            gauges[name] = value

    def span(self, name: str) -> Span:
        """A span that aggregates (and traces) into this recorder."""
        return Span(name, self)

    # -- span/trace plumbing ------------------------------------------------

    def _finish_span(self, name: str, ts_us: int, elapsed: float) -> None:
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [1, elapsed, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
            if elapsed > entry[2]:
                entry[2] = elapsed
        if self.trace:
            self._trace_event(name, ts_us, elapsed)

    def _trace_event(self, name: str, ts_us: int, elapsed: float) -> None:
        if len(self.trace_events) >= MAX_TRACE_EVENTS:
            self.dropped_trace_events += 1
            return
        self.trace_events.append(
            {
                "name": name,
                "cat": name.partition("/")[0],
                "ph": "X",
                "ts": ts_us,
                "dur": int(elapsed * 1e6),
                "pid": self.pid,
                "tid": threading.get_ident() % 1_000_000,
            }
        )

    # -- merging ------------------------------------------------------------

    def absorb(self, other: "Recorder") -> None:
        """Fold another recorder's aggregates into this one.

        Counters and spans are additive.  Gauges are *not*: a gauge is
        a level this recorder observed itself (e.g. a corpus size at
        the moment it was sampled), so an absorbed inner scope's gauge
        never overrides an outer observation — this recorder keeps its
        own value and copies only the gauges it never observed.  Inner
        trace events append up to the buffer cap; events that cannot be
        kept (over the cap, or tracing off on this recorder while the
        inner one buffered) are added to ``dropped_trace_events``,
        never silently discarded."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.gauges.items():
            if name not in self.gauges:
                self.gauges[name] = value
        for name, (count, total, peak) in other.spans.items():
            entry = self.spans.get(name)
            if entry is None:
                self.spans[name] = [count, total, peak]
            else:
                entry[0] += count
                entry[1] += total
                if peak > entry[2]:
                    entry[2] = peak
        if self.trace:
            room = MAX_TRACE_EVENTS - len(self.trace_events)
            if room >= len(other.trace_events):
                self.trace_events.extend(other.trace_events)
            else:
                self.trace_events.extend(other.trace_events[:room])
                self.dropped_trace_events += len(other.trace_events) - room
        elif other.trace_events:
            self.dropped_trace_events += len(other.trace_events)
        self.dropped_trace_events += other.dropped_trace_events


# ---------------------------------------------------------------------------
# The active recorder (module-global, None = disabled fast path)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Recorder] = None


def active() -> Optional[Recorder]:
    """The installed recorder, or ``None`` when metrics are off.

    Hot loops call this once per phase and keep the result in a local:
    the disabled cost per instrumented site is then a single
    ``is not None`` check.
    """
    return _ACTIVE


def install(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Install (or, with ``None``, clear) the active recorder; returns
    the previously installed one.  The collector hook is registered
    exactly while some recorder is installed."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    if recorder is None:
        if _time_collection in gc.callbacks:
            gc.callbacks.remove(_time_collection)
    elif _time_collection not in gc.callbacks:
        gc.callbacks.append(_time_collection)
    return previous


def _time_collection(phase: str, info: Dict[str, int]) -> None:
    """The :data:`gc.callbacks` hook: one ``gc/gen<N>`` span per
    collection, recorded into the active recorder."""
    recorder = _ACTIVE
    if recorder is None:
        return
    if phase == "start":
        if recorder.trace:
            recorder._collection_ts_us = time.time_ns() // 1_000
        recorder._collection_t0 = time.perf_counter()
    else:
        recorder._finish_span(
            f"gc/gen{info['generation']}",
            recorder._collection_ts_us,
            time.perf_counter() - recorder._collection_t0,
        )


@contextmanager
def recording(
    label: Optional[str] = None, trace: bool = False
) -> Iterator[Recorder]:
    """Activate a fresh :class:`Recorder` for the ``with`` body.

    Nestable: on exit the previous recorder is reinstalled and absorbs
    this one's aggregates, so inner scopes (one ``verify()`` call, one
    campaign job) get isolated documents while outer scopes keep
    session totals.
    """
    recorder = Recorder(label=label, trace=trace)
    previous = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)
        if previous is not None:
            previous.absorb(recorder)


def span(name: str) -> Span:
    """A span bound to the active recorder (standalone timer if none).

    The one helper instrumented code needs for coarse regions: it
    always times (``verify()`` derives its ``elapsed`` stat from it)
    and records only when metrics are on.
    """
    return Span(name, _ACTIVE)

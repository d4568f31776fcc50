"""Unified observability layer: spans, counters, gauges, traces.

See :mod:`repro.obs.recorder` for the core model (one active
:class:`Recorder`, ``active() is None`` as the disabled fast path),
:mod:`repro.obs.metrics` for the ``repro-metrics`` v1 JSON artifact,
:mod:`repro.obs.trace` for Chrome trace-event export, and
:mod:`repro.obs.profile` for the cProfile-backed ``profile`` command.

The names below resolve on first access (:mod:`repro.util.lazy`):
importing the package loads none of its submodules.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

_EXPORTS = {
    "metrics": (
        "METRICS_SCHEMA",
        "METRICS_VERSION",
        "merge_metrics",
        "metrics_document",
        "render_metrics_summary",
        "validate_metrics",
        "write_metrics",
    ),
    "recorder": (
        "MAX_TRACE_EVENTS",
        "Recorder",
        "Span",
        "active",
        "install",
        "recording",
        "span",
    ),
    "trace": (
        "chrome_trace_document",
        "merge_trace_fragments",
        "write_trace",
        "write_trace_fragment",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)

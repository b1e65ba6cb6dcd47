"""System-level observability: span tracing, profiling, service metrics.

Three pieces, all zero-dependency:

* :mod:`repro.telemetry.tracer` — :class:`Tracer` span context managers
  writing JSONL records with monotonic timings and run/job/cell
  correlation attributes (per-process files, thread-safe).
* :mod:`repro.telemetry.profile` — load + aggregate span traces into
  per-phase/per-heuristic time breakdowns (``repro profile``).
* :mod:`repro.telemetry.metrics` — Prometheus-text-format instruments
  (counter/gauge/histogram) backing the service ``GET /metrics`` endpoint.

Tracing is off by default everywhere; every instrumented call site treats
``tracer=None`` as the exact pre-telemetry code path, so golden-seed
results are bit-identical with tracing disabled.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    process_rss_bytes,
)
from repro.telemetry.profile import (
    ProfileReport,
    ProfileRow,
    aggregate_spans,
    format_profile,
    profile_trace,
    render_profile_html,
)
from repro.telemetry.tracer import (
    Span,
    Tracer,
    shared_tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "shared_tracer",
    "ProfileReport",
    "ProfileRow",
    "aggregate_spans",
    "profile_trace",
    "format_profile",
    "render_profile_html",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "process_rss_bytes",
]

"""First-class observability for the HYDRA reproduction.

The package is a *leaf* dependency (it imports nothing from the rest of
``repro``) providing two zero-dependency building blocks plus the session
context that ties them together:

* :mod:`repro.telemetry.spans` — a nested-span tracer with thread- and
  process-safe span identifiers and an exporter for the Chrome trace-event
  format (loadable in ``chrome://tracing`` / Perfetto);
* :mod:`repro.telemetry.metrics` — a thread-safe registry of named
  counters, gauges and bucketed histograms with snapshot/merge semantics
  (worker processes ship snapshots back for parent-side aggregation);
* :mod:`repro.telemetry.session` — the :class:`TelemetrySession` context
  every instrumented layer consults.  Telemetry is **off by default**: with
  no active session every instrumentation hook is a single global read and
  a branch, so the hot paths stay within noise of un-instrumented builds,
  and tracing never changes summary fingerprints or materialized bytes
  (guarded by the bit-identity tests).

``hydra-trace`` (:mod:`repro.telemetry.trace_cli`) summarizes a written
trace file: top spans by self-time plus the engine route-hit table.
"""

from __future__ import annotations

from .metrics import MetricsRegistry, MetricsSnapshot
from .session import (
    TelemetrySession,
    active_session,
    add_counter,
    is_active,
    observe,
    set_gauge,
    span,
    telemetry_session,
)
from .spans import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "TelemetrySession",
    "Tracer",
    "active_session",
    "add_counter",
    "is_active",
    "observe",
    "set_gauge",
    "span",
    "telemetry_session",
]

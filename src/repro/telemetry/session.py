"""The telemetry session context and its module-level no-op fast path.

A :class:`TelemetrySession` bundles one :class:`~repro.telemetry.spans.Tracer`
and one :class:`~repro.telemetry.metrics.MetricsRegistry`.  Instrumented
code never holds a session reference — it calls the module-level helpers
(:func:`span`, :func:`add_counter`, :func:`set_gauge`, :func:`observe`), each
of which is a single global read plus a branch when no session is active.
That is the whole disabled-mode cost, which keeps telemetry's overhead within
noise and is what the overhead-guard test enforces.

Sessions are activated with the :func:`telemetry_session` context manager
(re-entrant: the previous active session is restored on exit).  Worker
processes create their own local session (see ``parallel/pool.py``) and
ship span buffers and metric deltas back over the result queue for
parent-side merge.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import Protocol

from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = [
    "SpanHandle",
    "TelemetrySession",
    "active_session",
    "add_counter",
    "is_active",
    "observe",
    "set_gauge",
    "span",
    "telemetry_session",
]


class SpanHandle(Protocol):
    """What instrumented code may do with an open span (real or no-op)."""

    def annotate(self, **attributes: object) -> None:
        """Attach extra key/value attributes to the span."""


class _NoopSpan:
    """Shared inert span: accepts annotations and context-manager use."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def annotate(self, **attributes: object) -> None:
        """Ignore attributes (telemetry is inactive)."""


_NOOP_SPAN = _NoopSpan()


@dataclass
class TelemetrySession:
    """One tracer + one metrics registry."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def write_trace(self, path: str | Path) -> None:
        """Write the Chrome trace-event file (metrics snapshot embedded)."""
        self.tracer.write_chrome_trace(path, metrics=self.metrics.snapshot())

    def write_metrics(self, path: str | Path) -> None:
        """Write the metrics snapshot as pretty-printed JSON."""
        self.metrics.write_json(path)


_ACTIVE: TelemetrySession | None = None


def active_session() -> TelemetrySession | None:
    """Return the currently active session, or ``None`` (the default)."""
    return _ACTIVE


def is_active() -> bool:
    """Return True when a telemetry session is currently active."""
    return _ACTIVE is not None


@contextmanager
def telemetry_session(session: TelemetrySession | None = None) -> Iterator[TelemetrySession]:
    """Activate a session for the duration of the ``with`` block.

    Pass an existing :class:`TelemetrySession` to activate it, or omit it
    to create a fresh one.  The previously active session, if any, is
    restored on exit, so activation nests.
    """
    global _ACTIVE
    created = session if session is not None else TelemetrySession()
    previous = _ACTIVE
    _ACTIVE = created
    try:
        yield created
    finally:
        _ACTIVE = previous


def span(name: str, **attributes: object) -> AbstractContextManager[SpanHandle]:
    """Open a nested span on the active tracer (shared no-op when inactive)."""
    session = _ACTIVE
    if session is None:
        return _NOOP_SPAN
    return session.tracer.span(name, **attributes)


def add_counter(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active registry (no-op when inactive)."""
    session = _ACTIVE
    if session is not None:
        session.metrics.increment(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry (no-op when inactive)."""
    session = _ACTIVE
    if session is not None:
        session.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the active registry (no-op when inactive)."""
    session = _ACTIVE
    if session is not None:
        session.metrics.observe(name, value)

"""Thread-safe registry of named counters, gauges, and bucketed histograms.

All mutation goes through a single registry-level lock, which keeps the
implementation simple and makes :meth:`MetricsRegistry.snapshot` a
consistent point-in-time view.  Snapshots are plain JSON-serializable
dicts; :meth:`MetricsRegistry.merge` combines
snapshots additively (counters and histogram buckets sum, gauges take the
last writer), which is how worker-process deltas are folded into the
parent registry.

Metric names are free-form dotted strings; the stable catalogue used by
the pipeline is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from ..serialization import write_atomic

__all__ = ["DEFAULT_BUCKETS", "MetricsRegistry", "MetricsSnapshot"]

MetricsSnapshot = dict[str, Any]
"""JSON-serializable point-in-time view of a registry (see ``snapshot``)."""

DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)
"""Default histogram bucket upper bounds (seconds-flavoured exponential)."""


class _Histogram:
    """Cumulative bucket counts plus sum/count/min/max for one histogram."""

    __slots__ = ("bounds", "counts", "total", "count", "minimum", "maximum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # One overflow bucket past the last bound.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock.

    The mutation API is registry-level (``increment`` / ``set_gauge`` /
    ``observe``) rather than instrument-object-level so call sites stay a
    single line and instruments are created lazily on first touch.
    """

    def __init__(self) -> None:
        """Create an empty registry (instruments appear on first touch)."""
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    def increment(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last writer wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float, *, buckets: Sequence[float] | None = None
    ) -> None:
        """Record ``value`` into the histogram ``name``.

        ``buckets`` fixes the upper bounds on first use (defaults to
        :data:`DEFAULT_BUCKETS`); later calls reuse the existing bounds.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
                histogram = _Histogram(bounds)
                self._histograms[name] = histogram
            histogram.observe(value)

    def counter_value(self, name: str) -> float:
        """Return the counter's current value (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> MetricsSnapshot:
        """Return a consistent JSON-serializable view of all instruments."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def drain(self) -> MetricsSnapshot:
        """Snapshot and reset — used by workers shipping periodic deltas."""
        with self._lock:
            view: MetricsSnapshot = {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
            return view

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold a snapshot produced elsewhere into this registry.

        Counters and histogram buckets add; gauges take the incoming value
        (last writer wins, matching ``set_gauge`` semantics).
        """
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            for name, value in delta.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, payload in delta.get("histograms", {}).items():
                bounds = tuple(float(b) for b in payload["bounds"])
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = _Histogram(bounds)
                    self._histograms[name] = histogram
                if histogram.bounds == bounds:
                    for index, count in enumerate(payload["counts"]):
                        histogram.counts[index] += int(count)
                else:
                    # Bound mismatch: re-observe the mean per recorded value
                    # is lossy; fold into sum/count only, preserving totals.
                    pass
                histogram.total += float(payload["sum"])
                histogram.count += int(payload["count"])
                if payload.get("min") is not None:
                    histogram.minimum = min(histogram.minimum, float(payload["min"]))
                if payload.get("max") is not None:
                    histogram.maximum = max(histogram.maximum, float(payload["max"]))

    def write_json(self, path: str | Path) -> None:
        """Write the current snapshot to ``path`` as pretty-printed JSON."""
        write_atomic(path, json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n")

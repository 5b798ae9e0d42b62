"""Timed sections, counts and output checks collected during one run."""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from types import TracebackType
from typing import Sequence

from repro.telemetry import active_session, span


def percentile(samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile; with few samples p95 is the slowest one."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def counter(name: str) -> float:
    """A program counter of the active telemetry session (0 when untraced or absent)."""
    session = active_session()
    return session.metrics.counter_value(name) if session is not None else 0.0


class Section:
    """Times one call into a layer and opens the matching ``bench.*`` span.

    With no telemetry session active the span is the program's shared no-op,
    so a section costs two clock reads; in the traced run the program's own
    spans nest under it.
    """

    __slots__ = ("_name", "_sink", "_span", "_started")

    def __init__(self, name: str, sink: list[float]) -> None:
        self._name = name
        self._sink = sink

    def __enter__(self) -> "Section":
        self._span = span("bench." + self._name)
        self._span.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        elapsed = time.perf_counter() - self._started
        self._span.__exit__(exc_type, exc, tb)
        self._sink.append(elapsed)


class Recorder:
    """Everything one run measured: section timings, values, check outcomes."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def section(self, name: str) -> Section:
        """Time a call; ``name`` is ``<layer>.<call>`` (the layer is a module name)."""
        return Section(name, self.samples[name])

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def total(self, name: str) -> float:
        return math.fsum(self.samples.get(name, ()))

    def absorb(self, other: "Recorder") -> None:
        """Take over the operation counts and problems of another recorder."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def operation(self, ok: bool, message: str = "") -> None:
        """Count one attempted operation or output check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

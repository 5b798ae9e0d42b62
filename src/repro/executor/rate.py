"""Velocity regulation for dynamic data generation.

One of the Big Data facets HYDRA targets is *velocity*: because regenerated
tuples are produced in memory rather than read from disk, the rate at which a
dataless relation streams rows can be regulated precisely (the demo exposes
this as a rows-per-second slider).  The :class:`RateLimiter` implements a
token-bucket style pacing over an injectable clock so that the behaviour can
be benchmarked deterministically with a :class:`VirtualClock` and used in real
time with the wall clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["VirtualClock", "RateLimiter"]


class VirtualClock:
    """A manually-advanced clock: ``sleep`` advances time instead of blocking.

    Benchmarks and tests use it so that velocity-regulation behaviour (how
    long a stream of N rows takes at R rows/second) can be verified exactly
    without real waiting.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep for a negative duration")
        self._now += seconds

    def advance(self, seconds: float) -> None:
        self.sleep(seconds)


@dataclass
class RateLimiter:
    """Regulates row production to at most ``rows_per_second``.

    ``rows_per_second=None`` (or ``<= 0``) disables throttling entirely, which
    is the "as fast as possible" position of the demo's velocity slider.

    A limiter is *not* process-safe and must never be shared with (or shipped
    to) regeneration worker processes: under sharded parallel generation
    (``workers > 1``) the consuming process throttles the **merged** block
    stream, so one limiter observes one totally-ordered stream exactly as in
    the serial case.  Shared mode (``Hydra.regenerate(shared_rate_limiter=
    True)``) paces the union of all relations' merged streams against a
    single budget; per-relation :meth:`clone` mode paces each relation's
    merged stream independently — in both modes the budget is rows *delivered
    to the consumer* per second, regardless of how many workers produced
    them (workers may run ahead by the bounded queue capacity).
    """

    rows_per_second: float | None = None
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
    _start: float | None = field(default=None, init=False, repr=False)
    _produced: int = field(default=0, init=False, repr=False)

    @classmethod
    def unlimited(cls) -> "RateLimiter":
        return cls(rows_per_second=None)

    @classmethod
    def with_virtual_clock(
        cls, rows_per_second: float | None, clock: VirtualClock | None = None
    ) -> tuple["RateLimiter", VirtualClock]:
        virtual = clock or VirtualClock()
        limiter = cls(rows_per_second=rows_per_second, clock=virtual.now, sleep=virtual.sleep)
        return limiter, virtual

    @property
    def is_limited(self) -> bool:
        return self.rows_per_second is not None and self.rows_per_second > 0

    @property
    def rows_produced(self) -> int:
        return self._produced

    def clone(self) -> "RateLimiter":
        """A fresh limiter with the same configuration but zeroed pacing state.

        Streams that should be paced independently (one relation each) must
        not share a limiter instance: ``_start``/``_produced`` are cumulative,
        so a shared instance would pace stream B as if stream A's rows counted
        against its budget.  With ``workers > 1`` each clone still paces its
        relation's single merged stream (cloning happens per relation, never
        per worker), so the per-relation budget semantics are identical to
        serial generation.
        """
        return RateLimiter(
            rows_per_second=self.rows_per_second, clock=self.clock, sleep=self.sleep
        )

    def throttle(self, rows: int) -> float:
        """Account for ``rows`` produced rows, sleeping if ahead of schedule.

        Returns the number of seconds slept (0.0 when unthrottled).
        """
        if rows < 0:
            raise ValueError("rows must be non-negative")
        if self._start is None:
            self._start = self.clock()
        self._produced += rows
        if not self.is_limited:
            return 0.0
        target_elapsed = self._produced / float(self.rows_per_second)
        actual_elapsed = self.clock() - self._start
        delay = target_elapsed - actual_elapsed
        if delay > 0:
            self.sleep(delay)
            return delay
        return 0.0

    def observed_rate(self) -> float:
        """Rows per second achieved so far.

        ``0.0`` before the first :meth:`throttle` call (nothing has been
        observed yet); ``inf`` if no time has elapsed since it — regardless
        of how many rows were produced in that instant; otherwise
        ``rows_produced / elapsed_seconds``.
        """
        if self._start is None:
            return 0.0
        elapsed = self.clock() - self._start
        if elapsed <= 0:
            return float("inf")
        return self._produced / elapsed

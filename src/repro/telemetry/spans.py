"""Nested-span tracer with a Chrome trace-event exporter.

A :class:`Tracer` records a tree of timed spans.  Span identifiers are
unique within a process (a lock-protected counter) and made unique *across*
processes by :meth:`Tracer.merge_remote`, which re-allocates identifiers
from the parent tracer when worker span buffers are merged back — the
combination is what makes span IDs thread- and process-safe without any
shared state between processes.

Timestamps are seconds relative to the tracer's epoch (a single
``time.perf_counter()`` read at construction).  Remote buffers carry their
own epoch-relative times; ``merge_remote`` shifts them by the offset the
caller observed (typically the parent-side start of the pool span), so a
merged trace is causally ordered even though worker clocks are never
synchronized (documented skew, not corrected skew).

The one file format is **Chrome trace-event JSON**: an object with a
``traceEvents`` array of complete (``"ph": "X"``) events, loadable in
``chrome://tracing`` and Perfetto.  Extra top-level keys are permitted by the
format and used to embed the metrics snapshot so one file feeds
``hydra-trace`` entirely.  :meth:`Span.to_dict` / :meth:`Span.from_dict` are
the in-memory transport of worker span buffers, not a file format.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..serialization import write_atomic

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One finished (or still-open) timed operation in the span tree.

    ``start`` is in seconds relative to the owning tracer's epoch;
    ``duration`` is ``None`` while the span is open.  ``attributes`` must
    hold JSON-serializable values only (strings, numbers, booleans, None).
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    duration: float | None = None
    pid: int = 0
    tid: int = 0
    attributes: dict[str, object] = field(default_factory=dict)

    def annotate(self, **attributes: object) -> None:
        """Attach extra key/value attributes to this span."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict[str, Any]:
        """Return the stable transport dict for this span (worker buffers)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` representation."""
        return cls(
            name=str(payload["name"]),
            span_id=int(payload["span_id"]),
            parent_id=None if payload.get("parent_id") is None else int(payload["parent_id"]),
            start=float(payload["start"]),
            duration=None if payload.get("duration") is None else float(payload["duration"]),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            attributes=dict(payload.get("attributes", {})),
        )


class _ThreadStacks(threading.local):
    """Per-thread stack of open span IDs (nesting is a thread-local notion)."""

    def __init__(self) -> None:
        self.stack: list[int] = []


class Tracer:
    """Thread-safe recorder of nested spans.

    Use :meth:`span` as a context manager; nesting follows the per-thread
    stack of open spans, so concurrent threads each build their own branch
    of the tree under whatever span was open when they started.
    """

    def __init__(self) -> None:
        """Create an empty tracer; the epoch is read once, here."""
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._finished: list[Span] = []
        self._stacks = _ThreadStacks()
        self._pid = os.getpid()

    def now(self) -> float:
        """Return the current epoch-relative timestamp in seconds."""
        return time.perf_counter() - self._epoch

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a nested span; the span is recorded when the block exits.

        The yielded :class:`Span` may be further annotated inside the block
        via :meth:`Span.annotate`.
        """
        stack = self._stacks.stack
        record = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=stack[-1] if stack else None,
            start=self.now(),
            pid=self._pid,
            tid=threading.get_ident(),
            attributes=dict(attributes),
        )
        stack.append(record.span_id)
        try:
            yield record
        finally:
            record.duration = self.now() - record.start
            stack.pop()
            with self._lock:
                self._finished.append(record)

    def finished_spans(self) -> list[Span]:
        """Return a snapshot copy of all finished spans so far."""
        with self._lock:
            return list(self._finished)

    # -- cross-process transport -------------------------------------------

    def export_buffer(self) -> list[dict[str, Any]]:
        """Drain finished spans into a picklable buffer (for workers).

        The returned dicts are :meth:`Span.to_dict` payloads; span IDs are
        only unique within this tracer and must be rebased by the receiving
        side via :meth:`merge_remote`.
        """
        with self._lock:
            drained = self._finished
            self._finished = []
        return [record.to_dict() for record in drained]

    def merge_remote(
        self,
        buffer: Sequence[Mapping[str, Any]],
        *,
        parent_id: int | None,
        time_offset: float,
    ) -> None:
        """Merge a worker span buffer under ``parent_id``.

        Remote span IDs are rebased onto this tracer's ID space (keeping
        the remote parent/child structure); remote roots are re-parented
        under ``parent_id``.  ``time_offset`` shifts remote epoch-relative
        times into this tracer's timeline — callers pass the parent-side
        start of the span that launched the workers, which keeps the merge
        causally ordered while leaving residual clock skew uncorrected.
        """
        if not buffer:
            return
        rebased: dict[int, int] = {}
        merged: list[Span] = []
        for payload in buffer:
            record = Span.from_dict(payload)
            new_id = self._allocate_id()
            rebased[record.span_id] = new_id
            record.span_id = new_id
            record.start += time_offset
            merged.append(record)
        for record in merged:
            if record.parent_id is not None and record.parent_id in rebased:
                record.parent_id = rebased[record.parent_id]
            else:
                record.parent_id = parent_id
        with self._lock:
            self._finished.extend(merged)

    # -- exporter ----------------------------------------------------------

    def chrome_trace_events(self) -> list[dict[str, Any]]:
        """Return the spans as Chrome trace-event ``"X"`` (complete) events.

        Span and parent IDs travel in ``args`` so ``hydra-trace`` can
        recover the tree (and self-times) from the Chrome format alone.
        """
        events: list[dict[str, Any]] = []
        for record in self.finished_spans():
            args: dict[str, object] = {
                "span_id": record.span_id,
                "parent_id": record.parent_id,
            }
            args.update(record.attributes)
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": record.start * 1_000_000.0,
                    "dur": (record.duration or 0.0) * 1_000_000.0,
                    "pid": record.pid,
                    "tid": record.tid,
                    "cat": "repro",
                    "args": args,
                }
            )
        return events

    def write_chrome_trace(
        self, path: str | Path, *, metrics: Mapping[str, Any] | None = None
    ) -> None:
        """Write a Chrome trace-event JSON object file.

        When ``metrics`` is given, the snapshot is embedded under the
        ``reproMetrics`` top-level key — Chrome/Perfetto ignore unknown
        keys, and ``hydra-trace`` reads them back for the route-hit table.
        """
        document: dict[str, Any] = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        if metrics is not None:
            document["reproMetrics"] = dict(metrics)
        write_atomic(path, json.dumps(document, sort_keys=True, default=str) + "\n")

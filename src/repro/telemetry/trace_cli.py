"""``hydra-trace`` — summarize a trace file written by ``--trace``.

Reads the one trace format the tracer writes: the Chrome trace-event object
(``traceEvents`` array, optionally with the embedded ``reproMetrics``
snapshot).  Prints:

* the top spans aggregated by name, ordered by **self-time** (duration
  minus the duration of direct children — the time actually spent in the
  span itself);
* the engine route-hit table (``engine.route.*`` counters) including
  recorded fallback reasons (``engine.fallback.*``), when a metrics
  snapshot is present;
* any remaining counters, so ad-hoc instrumentation shows up without a
  schema change.

Exit status is 1, with a one-line ``cannot read`` message, when the file is
not such an object.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

__all__ = ["main", "summarize_trace"]


def _load_document(path: Path) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Return ``(span_dicts, metrics_snapshot)`` from a Chrome trace file.

    Span dicts carry ``name``/``span_id``/``parent_id``/``start``/``duration``
    (seconds).  Raises :class:`ValueError` unless the file is a JSON object
    whose ``traceEvents`` is a list of event objects.
    """
    document: Any = json.loads(path.read_text(encoding="utf-8"))
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(events, list) or not all(
        isinstance(event, dict) and isinstance(event.get("args", {}), dict) for event in events
    ):
        raise ValueError("not a Chrome trace: expected an object with a 'traceEvents' list")
    spans: list[dict[str, Any]] = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        spans.append(
            {
                "name": event.get("name", "?"),
                "span_id": args.get("span_id"),
                "parent_id": args.get("parent_id"),
                "start": float(event.get("ts", 0.0)) / 1_000_000.0,
                "duration": float(event.get("dur", 0.0)) / 1_000_000.0,
                "attributes": {
                    key: value
                    for key, value in args.items()
                    if key not in ("span_id", "parent_id")
                },
            }
        )
    metrics = document.get("reproMetrics", {})
    return spans, metrics if isinstance(metrics, dict) else {}


def _aggregate_spans(spans: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Aggregate spans by name with total, self-time, and call count."""
    child_time: dict[int, float] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None:
            child_time[int(parent)] = child_time.get(int(parent), 0.0) + float(
                record.get("duration") or 0.0
            )
    rows: dict[str, dict[str, Any]] = {}
    for record in spans:
        name = str(record.get("name", "?"))
        duration = float(record.get("duration") or 0.0)
        span_id = record.get("span_id")
        self_time = duration
        if span_id is not None:
            self_time = max(0.0, duration - child_time.get(int(span_id), 0.0))
        row = rows.setdefault(name, {"name": name, "count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += duration
        row["self"] += self_time
    return sorted(rows.values(), key=lambda row: (-row["self"], row["name"]))


def summarize_trace(path: Path, *, top: int = 15) -> str:
    """Build the human-readable summary text for a trace file."""
    spans, metrics = _load_document(path)
    lines: list[str] = []
    lines.append(f"trace: {path}  ({len(spans)} spans)")
    lines.append("")
    lines.append(f"{'span':<32} {'count':>7} {'total_s':>10} {'self_s':>10}")
    lines.append("-" * 62)
    for row in _aggregate_spans(spans)[:top]:
        lines.append(
            f"{row['name']:<32} {row['count']:>7} {row['total']:>10.4f} {row['self']:>10.4f}"
        )

    counters = metrics.get("counters", {}) if metrics else {}
    route_rows = {
        name: value for name, value in counters.items() if name.startswith("engine.route.")
    }
    fallback_rows = {
        name: value for name, value in counters.items() if name.startswith("engine.fallback.")
    }
    if route_rows or fallback_rows:
        lines.append("")
        lines.append(f"{'route':<48} {'hits':>8}")
        lines.append("-" * 57)
        for name in sorted(route_rows):
            lines.append(f"{name:<48} {route_rows[name]:>8.0f}")
        for name in sorted(fallback_rows):
            lines.append(f"{name:<48} {fallback_rows[name]:>8.0f}")

    other = {
        name: value
        for name, value in counters.items()
        if not name.startswith(("engine.route.", "engine.fallback."))
    }
    if other:
        lines.append("")
        lines.append(f"{'counter':<48} {'value':>10}")
        lines.append("-" * 59)
        for name in sorted(other):
            lines.append(f"{name:<48} {other[name]:>10g}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``hydra-trace`` console script."""
    parser = argparse.ArgumentParser(
        prog="hydra-trace",
        description="Summarize a trace file written by --trace (Chrome trace-event format).",
    )
    parser.add_argument("trace", type=Path, help="trace file (Chrome trace-event JSON)")
    parser.add_argument(
        "--top", type=int, default=15, help="number of span rows to show (default: 15)"
    )
    options = parser.parse_args(argv)
    try:
        print(summarize_trace(options.trace, top=options.top))
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"hydra-trace: cannot read {options.trace}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

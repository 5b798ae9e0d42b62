"""Self time per layer from the spans of a traced run."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

from repro.telemetry import Span

#: The loop a workload times; everything under it should belong to a layer.
ROOT_SPAN = "bench.workload"

#: Layers are module names.  A ``bench.<layer>.<call>`` span names its layer
#: itself; the program's own spans are mapped by their documented prefixes.
LAYERS = (
    "client",
    "core.preprocessor",
    "core.pipeline",
    "core.summary",
    "core.tuplegen",
    "executor.datagen",
    "executor.engine",
    "parallel",
    "sinks",
    "sql",
    "plans",
    "verify",
    "server",
)
PROGRAM_SPANS = {
    "hydra": "core.pipeline",
    "solve": "core.pipeline",
    "regen": "core.pipeline",
    "engine": "executor.engine",
    "pool": "parallel",
    "export": "sinks",
    "server": "server",
}


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to (``harness`` for the loop itself)."""
    if span_name.startswith("bench."):
        rest = span_name[len("bench."):]
        for layer in LAYERS:
            if rest == layer or rest.startswith(layer + "."):
                return layer
        return "harness"
    return PROGRAM_SPANS.get(span_name.split(".", 1)[0], "other")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Duration of every span minus the part its direct children cover."""
    remaining = {item.span_id: item.duration or 0.0 for item in spans}
    for item in spans:
        if item.parent_id in remaining:
            remaining[item.parent_id] -= item.duration or 0.0
    return remaining


def loop_roots(spans: Sequence[Span]) -> list[Span]:
    """The spans of the timed loop.

    Where client threads do the work each has its own loop span, and the
    main thread's only waits for them.
    """
    return [item for item in spans if item.name == ROOT_SPAN + ".client"] or [
        item for item in spans if item.name == ROOT_SPAN
    ]


def layer_table(spans: Sequence[Span]) -> dict[str, float]:
    """Seconds of self time per layer inside the timed loop, largest first.

    The rows add up to the loop's wall clock (summed over callers); the
    ``harness`` row is the part of it under no layer's span.
    """
    own = self_times(spans)
    parents = {item.span_id: item.parent_id for item in spans}
    inside = {item.span_id for item in loop_roots(spans)}
    table: dict[str, float] = defaultdict(float)
    for item in sorted(spans, key=lambda entry: entry.start):
        if item.span_id in inside or parents.get(item.span_id) in inside:
            inside.add(item.span_id)
            table[layer_of(item.name)] += max(own[item.span_id], 0.0)
    return dict(sorted(table.items(), key=lambda entry: -entry[1]))


def unattributed_share(spans: Sequence[Span]) -> float:
    """Share of the timed loop's wall clock that no layer span covers."""
    own = self_times(spans)
    roots = loop_roots(spans)
    wall = math.fsum(item.duration or 0.0 for item in roots)
    if wall <= 0.0:
        return 0.0
    return math.fsum(max(own[item.span_id], 0.0) for item in roots) / wall

"""Run one workload in this process and turn what it measured into metrics."""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.telemetry import TelemetrySession, span, telemetry_session

from .base import Slice, Workload
from .export_sinks import ExportSinks
from .query import QueryStream, QuerySummary
from .recorder import Recorder, median, percentile
from .regen_stream import RegenStream
from .serve_mix import ServeMix
from .spec import SIZES, WORK_DIR, Declared
from .trace import layer_table, unattributed_share
from .vendor_build import VendorBuild

WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (VendorBuild, RegenStream, ExportSinks, QuerySummary, QueryStream, ServeMix)
}

#: A traced run alternates untraced and traced loops this many times, each
#: ``TRACED_LOOP`` of ``--seconds`` long; the rest goes to the layer probes.
TRACED_ROUNDS = 3
TRACED_LOOP = 0.1
PROBE_SHARE = 0.4


def undisturbed(slices: list[Slice]) -> list[Slice]:
    """The fastest quarter of a run's slices.

    The sandbox alternates, every few seconds, between a fast state and one
    about 1.4 times slower for pure computation, whatever runs.  Every slice
    of a run does the same work, so the fastest ones are those the slow state
    touched least; statistics over all slices would mostly measure how much
    of the run the slow state happened to cover.
    """
    complete = sorted((item for item in slices if item.complete), key=lambda item: item.wall)
    return complete[: max(1, round(len(complete) / 4))]


def _operations(slices: list[Slice]) -> list[float]:
    return [op for item in slices for op in item.ops]


def _end_to_end(workload: Workload, setups: list[float], slices: list[Slice]) -> dict[str, float]:
    kept = undisturbed(slices)
    ops = _operations(kept)
    return {
        "setup_s": min(setups),
        "op_p50_ms": median(ops) * 1e3,
        "op_p95_ms": percentile(ops, 0.95) * 1e3,
        "work_per_s": workload.concurrency
        * sum(item.work for item in kept)
        / sum(item.wall for item in kept),
        "peak_rss_mb": workload.peak_rss_mb(),
        "summary_bytes": float(workload.summary_bytes),
    }


def run_workload(
    declared: Declared,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    trace_dir: Path | None = None,
) -> dict[str, Any]:
    """Set up, measure and check one workload; returns the driver's result object.

    Untraced, the metrics are the end-to-end ones.  Traced, the loop runs
    alternately without and inside a telemetry session (their ratio is the
    tracing overhead), then the workload's layer probes run, and the
    metrics are the per-layer ones: a layer the workload does not exercise,
    or a name the program did not emit, reads 0.
    """
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    workload = WORKLOADS[name](SIZES[size][name], seed, work_dir)
    rec = Recorder()
    try:
        setups = []
        for _ in range(1 if trace else workload.size["setups"]):
            workload.close()
            started = time.perf_counter()
            workload.setup(rec)
            setups.append(time.perf_counter() - started)
        gc.collect()
        if not trace:
            slices = workload.measure(rec, seconds)
            workload.check(rec)
            values = _end_to_end(workload, setups, slices) if undisturbed(slices) else {}
            names, layer_seconds = list(declared.end_to_end), {}
        else:
            values, slices, layer_seconds = _traced(workload, rec, seconds, trace_dir)
            names = list(declared.per_layer)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    undeclared = sorted(set(values) - set(names))
    if undeclared:
        rec.operation(False, f"metrics not declared in BENCHMARK.json: {undeclared}")
    if not trace and not values:
        rec.operation(False, "no slice of the loop completed without a failure")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            metric: {"value": values.get(metric, 0.0), "unit": declared.unit(metric)}
            for metric in names
        },
        "measured": sorted(values),
        "samples": {"setups": len(setups), "operations": len(_operations(slices)),
                    "slices": len(slices), "kept_slices": len(undisturbed(slices))},
        "problems": rec.problems,
        "layer_self_seconds": layer_seconds,
    }


def _traced(
    workload: Workload, rec: Recorder, seconds: float, trace_dir: Path | None
) -> tuple[dict[str, float], list[Slice], dict[str, float]]:
    reference_rec = Recorder()
    reference: list[Slice] = []
    traced: list[Slice] = []
    session = TelemetrySession()
    for _ in range(TRACED_ROUNDS):
        reference += workload.measure(reference_rec, seconds * TRACED_LOOP)
        with telemetry_session(session), span("bench.workload", workload=workload.name):
            traced += workload.measure(rec, seconds * TRACED_LOOP, traced=True)
    with telemetry_session(session):
        workload.check(rec)
        workload.layers(rec, seconds * PROBE_SHARE, session)
    rec.absorb(reference_rec)
    spans = session.tracer.finished_spans()
    if undisturbed(reference) and undisturbed(traced):
        # Slices do equal work, so their wall clocks compare directly.
        rec.set(
            "telemetry.overhead_share",
            median([item.wall for item in undisturbed(traced)])
            / median([item.wall for item in undisturbed(reference)])
            - 1.0,
        )
    rec.set("bench.unattributed_share", unattributed_share(spans))
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        session.write_trace(trace_dir / f"{workload.name}.trace.json")
        for extra in workload.extra_traces:
            if extra.is_file():
                shutil.copy(extra, trace_dir / extra.name)
    return dict(rec.values), traced, layer_table(spans)

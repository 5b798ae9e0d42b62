"""E13 — Sharded parallel regeneration: throughput scaling, bit-identical.

HYDRA's regeneration is deterministic interval arithmetic over summary rows,
so the pk offset space shards perfectly across worker processes
(``repro.parallel``).  This benchmark drives a *generation-bound* workload —
a streaming filtered ``COUNT(*)`` with the summary fast-path disabled, where
every surviving summary segment must be generated and masked but almost no
bytes flow back to the consumer — through ``Hydra.regenerate(workers=N)``
at 1/2/4 workers and reports tuple throughput (generated rows per second).

Three invariants are asserted:

* counts, AQP annotations and ``scanned_rows`` are identical to serial at
  every worker count;
* a row-returning SELECT produces bit-identical arrays (values, row order,
  dtypes) at 4 workers and serial;
* the *unfiltered* block stream of a relation agrees block for block
  (boundaries, dtypes, bytes) at 4 workers and serial — there is one stream
  behind the one provider class.

The ≥2× scaling assertion only holds where the hardware can provide it, so
it is enforced when the host has ≥ 4 usable cores and the harness is not in
tiny (smoke) mode; otherwise the run still verifies bit-identity and prints
the measured scaling.
"""

from __future__ import annotations

import os
import time

import numpy as np

from reporting import record

from repro.core.pipeline import Hydra, scale_row_counts
from repro.executor.engine import ExecutionEngine
from repro.plans.logical import plan_from_dict
from repro.plans.planner import build_plan
from repro.sql.parser import parse_query
from repro.telemetry import telemetry_session

COUNT_SQL = "select count(*) from R where R.S_fk >= 100 and R.S_fk < 700"
ROWS_SQL = "select * from R where R.S_fk >= 100 and R.S_fk < 160"
WORKER_COUNTS = (1, 2, 4)
REPETITIONS = 2


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _run_count(database, plan, batch_size=8192):
    engine = ExecutionEngine(
        database=database, annotate=True, summary_fastpath=False, batch_size=batch_size
    )
    cloned = plan_from_dict(plan.to_dict())
    cloned.clear_annotations()
    start = time.perf_counter()
    result = engine.execute(cloned)
    elapsed = time.perf_counter() - start
    annotations = [node.cardinality for node in cloned.iter_nodes()]
    return int(result.column("count")[0]), annotations, result.scanned_rows, elapsed


def test_e13_parallel_generation_scaling(benchmark, toy_client, bench_tiny):
    _database, metadata, _queries, aqps = toy_client
    # Full mode regenerates a 20M-row R (scale-free: the summary is the same
    # few KB) so worker startup is well amortised; tiny mode only smokes the
    # machinery and the bit-identity assertions.
    factor = 4 if bench_tiny else 400
    hydra = Hydra(
        metadata=metadata, row_count_overrides=scale_row_counts(metadata, factor)
    )
    summary = hydra.build_summary(aqps).summary
    plan = build_plan(
        parse_query(COUNT_SQL, metadata.schema, name="parallel_count"), metadata.schema
    )

    print()
    print(
        "E13: generation-bound streaming COUNT over dataless R "
        f"({summary.row_count('R'):,} rows) — {COUNT_SQL!r}"
    )
    throughput: dict[int, float] = {}
    reference = None
    for workers in WORKER_COUNTS:
        database = hydra.regenerate(summary, workers=workers)
        best = None
        for _ in range(REPETITIONS):
            outcome = _run_count(database, plan)
            if best is None or outcome[3] < best[3]:
                best = outcome
        count, annotations, scanned, elapsed = best
        if reference is None:
            reference = (count, annotations, scanned)
        assert (count, annotations, scanned) == reference, (
            f"workers={workers} diverged from serial: "
            f"{(count, annotations, scanned)} != {reference}"
        )
        throughput[workers] = scanned / elapsed if elapsed > 0 else float("inf")
        print(
            f"  workers={workers}: generated {scanned:>10,} tuples in {elapsed:8.3f}s "
            f"-> {throughput[workers]:>12,.0f} tuples/s "
            f"({throughput[workers] / throughput[WORKER_COUNTS[0]]:.2f}x)"
        )

    # Row-returning route: bit-identical output at 4 workers vs serial.
    rows_plan = build_plan(
        parse_query(ROWS_SQL, metadata.schema, name="parallel_rows"), metadata.schema
    )
    results = {}
    for workers in (1, WORKER_COUNTS[-1]):
        database = hydra.regenerate(summary, workers=workers)
        engine = ExecutionEngine(database=database, annotate=False, summary_fastpath=False)
        cloned = plan_from_dict(rows_plan.to_dict())
        results[workers] = engine.execute(cloned)
    serial_rows, parallel_rows = results[1], results[WORKER_COUNTS[-1]]
    assert serial_rows.row_count == parallel_rows.row_count
    assert list(serial_rows.columns) == list(parallel_rows.columns)
    for name in serial_rows.columns:
        assert serial_rows.columns[name].dtype == parallel_rows.columns[name].dtype
        assert np.array_equal(serial_rows.columns[name], parallel_rows.columns[name])
    print(f"  row route: {serial_rows.row_count:,} output rows bit-identical at 1 vs 4 workers")

    # Unfiltered stream: the same blocks, not merely the same rows.
    streams = [
        hydra.regenerate(summary, workers=workers).provider("S").iter_blocks()
        for workers in (1, WORKER_COUNTS[-1])
    ]
    blocks = 0
    for (start, count, serial_block), (p_start, p_count, parallel_block) in zip(
        *streams, strict=True
    ):
        assert (start, count) == (p_start, p_count)
        assert list(serial_block) == list(parallel_block)
        for name in serial_block:
            assert serial_block[name].dtype == parallel_block[name].dtype
            assert np.array_equal(serial_block[name], parallel_block[name])
        blocks += 1
    print(f"  unfiltered stream of S: {blocks:,} blocks identical at 1 vs 4 workers")

    cores = _usable_cores()
    scaling = throughput[WORKER_COUNTS[-1]] / throughput[WORKER_COUNTS[0]]
    benchmark.extra_info["tuples_per_second"] = {
        str(workers): round(rate) for workers, rate in throughput.items()
    }
    benchmark.extra_info["scaling_at_max_workers"] = round(scaling, 2)
    benchmark.extra_info["usable_cores"] = cores
    for workers, rate in throughput.items():
        record("E13", f"tuples_per_second_{workers}w", rate)
    # One instrumented run at max workers attaches the pool telemetry that
    # explains the scaling figure: per-lane chunk counts and the chunk
    # latency histogram merged back from the worker processes.
    with telemetry_session() as session:
        database = hydra.regenerate(summary, workers=WORKER_COUNTS[-1])
        _run_count(database, plan)
    snapshot = session.metrics.snapshot()
    record(
        "E13", "scaling_at_max_workers", scaling,
        metrics={
            "counters": snapshot["counters"],
            "pool.chunk.seconds": snapshot["histograms"].get("pool.chunk.seconds"),
        },
    )
    if not bench_tiny and cores >= 4:
        assert scaling >= 2.0, (
            f"expected >= 2x tuple throughput at {WORKER_COUNTS[-1]} workers on "
            f"{cores} cores, got {scaling:.2f}x"
        )
    else:
        print(
            f"  (scaling assertion skipped: cores={cores}, tiny={bench_tiny}; "
            f"measured {scaling:.2f}x at {WORKER_COUNTS[-1]} workers)"
        )

    database = hydra.regenerate(summary, workers=WORKER_COUNTS[-1])
    benchmark.pedantic(lambda: _run_count(database, plan), rounds=3, iterations=1)

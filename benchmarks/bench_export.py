"""E15 — Multi-backend streaming export throughput (``repro.sinks``).

The end product of HYDRA's regeneration is a *deployable* database: the
summary only pays off once its tuple streams land in a store a real client
can query.  This benchmark measures the materialization throughput
(regenerated rows per second, including all backend I/O) of each shipped
sink backend — CSV and SQLite from the stdlib, Parquet when the optional
``pyarrow`` is installed — driving the same scaled toy summary through
``repro.sinks.export_summary``.

Correctness is asserted alongside the timing:

* every backend's manifest records the same per-relation rows and content
  checksums (the checksums are backend- and block-boundary-independent);
* ``verify_export`` re-reads each export and revalidates it against the
  summary without regenerating a tuple;
* a ``workers=2`` parallel CSV export is byte-identical to the serial one.
"""

from __future__ import annotations

import time
from pathlib import Path

from reporting import record

from repro.core.pipeline import Hydra, scale_row_counts
from repro.sinks import (
    export_summary,
    parquet_available,
    sink_for_format,
    verify_export,
)
from repro.telemetry import telemetry_session

#: Backends measured unconditionally (stdlib) and optionally (pyarrow).
STDLIB_FORMATS = ("csv", "sqlite")


def _formats() -> list[str]:
    formats = list(STDLIB_FORMATS)
    if parquet_available():
        formats.append("parquet")
    return formats


def test_e15_export_throughput(benchmark, toy_client, bench_tiny, tmp_path_factory):
    _database, metadata, _queries, aqps = toy_client
    # Scale the regenerated database up (the summary stays the same few KB);
    # full mode exports ~1M fact rows so backend I/O dominates worker and
    # setup overhead, tiny mode only smokes the machinery.
    factor = 2 if bench_tiny else 20
    hydra = Hydra(
        metadata=metadata, row_count_overrides=scale_row_counts(metadata, factor)
    )
    summary = hydra.build_summary(aqps).summary
    total_rows = summary.total_rows()

    print()
    print(f"E15: streaming export of {total_rows:,} regenerated rows per backend")
    manifests = {}
    out_dirs = {}
    throughput = {}
    for format_name in _formats():
        out_dir = tmp_path_factory.mktemp(f"export_{format_name}")
        out_dirs[format_name] = out_dir
        sink = sink_for_format(format_name, out_dir)
        start = time.perf_counter()
        with telemetry_session() as session:
            manifest = export_summary(summary, sink, workers=1)
        elapsed = time.perf_counter() - start
        snapshot = session.metrics.snapshot()
        assert manifest.total_rows() == total_rows
        validation = verify_export(summary, out_dir)
        assert validation.ok, validation.problems
        manifests[format_name] = manifest
        throughput[format_name] = total_rows / elapsed if elapsed > 0 else float("inf")
        print(
            f"  {format_name:<8}: {elapsed:8.3f}s "
            f"-> {throughput[format_name]:>12,.0f} rows/s (export revalidated)"
        )
        record(
            "E15", f"{format_name}_rows_per_second", throughput[format_name],
            metrics={"counters": snapshot["counters"], "gauges": snapshot["gauges"]},
        )

    # Content checksums are backend-independent: every manifest agrees.
    reference = manifests["csv"]
    for format_name, manifest in manifests.items():
        for name, entry in manifest.relations.items():
            assert entry.rows == reference.relations[name].rows
            assert entry.checksum == reference.relations[name].checksum, (
                f"{format_name}:{name} checksum diverged from csv"
            )

    # Parallel export: byte-identical CSV files, same manifest checksums.
    parallel_dir = tmp_path_factory.mktemp("export_parallel")
    parallel = export_summary(summary, sink_for_format("csv", parallel_dir), workers=2)
    for name, entry in parallel.relations.items():
        assert entry.checksum == reference.relations[name].checksum
        serial_bytes = (Path(out_dirs["csv"]) / f"{name}.csv").read_bytes()
        parallel_bytes = (Path(parallel_dir) / f"{name}.csv").read_bytes()
        assert serial_bytes == parallel_bytes, f"workers=2 csv of {name} diverged"
    print("  workers=2 csv export: byte-identical to serial")

    benchmark.extra_info["rows"] = total_rows
    benchmark.extra_info["rows_per_second"] = {
        name: round(rate) for name, rate in throughput.items()
    }
    if not parquet_available():
        print("  parquet : skipped (optional pyarrow not installed)")

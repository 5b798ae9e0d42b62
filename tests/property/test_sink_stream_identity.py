"""Property tests: sink output is row-for-row the in-memory stream.

For arbitrary summaries, a CSV/SQLite export must hold exactly the rows the
``datagen`` providers stream in memory — same values, same order, every
dtype — and the export must re-validate against its manifest.  The CI suite
re-runs these tests under ``REPRO_WORKERS=2``, where every provider (and
therefore every export) regenerates through the sharded parallel pool, so
stream identity and manifest checksums are asserted for merged parallel
streams too.  A dedicated test additionally pins ``workers`` 1, 2 and 3
explicitly and asserts identical block streams and byte-identical CSV files.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import DATE, FLOAT, INTEGER, StringType
from repro.core.pipeline import summary_relation_providers
from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.sinks import CsvSink, SqliteSink, export_summary, verify_export
from repro.sinks.export import _read_csv, _read_sqlite
from repro.sinks.sqlite_sink import DATABASE_NAME
from repro.sql.predicates import Interval, IntervalSet

DIM_ROWS = 30

DIM = Table(name="dim", columns=[Column("dim_pk", INTEGER)], primary_key="dim_pk")
FACT = Table(
    name="fact",
    columns=[
        Column("pk", INTEGER),
        Column("fk", INTEGER),
        Column("val", FLOAT),
        Column("label", StringType(dictionary=("a", "b", "c", "d"))),
        Column("day", DATE),
    ],
    primary_key="pk",
    foreign_keys=[ForeignKey("fk", "dim", "dim_pk")],
)
SCHEMA = Schema.from_tables([DIM, FACT])


@st.composite
def summaries(draw) -> DatabaseSummary:
    num_rows = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(num_rows):
        count = draw(st.integers(min_value=0, max_value=25))
        low = draw(st.integers(min_value=0, max_value=DIM_ROWS - 2))
        high = draw(st.integers(min_value=low + 1, max_value=DIM_ROWS))
        rows.append(
            SummaryRow(
                count=count,
                values={
                    "val": draw(
                        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
                    ),
                    "label": float(draw(st.integers(min_value=0, max_value=3))),
                    "day": float(draw(st.integers(min_value=0, max_value=20_000))),
                },
                fk_refs={
                    "fk": FKReference("dim", IntervalSet([Interval(float(low), float(high))]))
                },
            )
        )
    summary = DatabaseSummary(
        schema=SCHEMA,
        relations={
            "dim": RelationSummary(table="dim", rows=[SummaryRow(count=DIM_ROWS)]),
            "fact": RelationSummary(table="fact", rows=rows),
        },
    )
    summary.validate()
    return summary


def reference_columns(summary: DatabaseSummary, batch_size: int) -> dict[str, dict[str, np.ndarray]]:
    """In-memory streams of every relation (the ground truth)."""
    columns = {}
    for name, relation in summary_relation_providers(summary, batch_size=batch_size):
        columns[name] = relation.fetch_columns(summary.schema.table(name).column_names)
    return columns


def assert_block_stream_matches(blocks, reference: dict[str, np.ndarray], table: Table):
    """Concatenate re-read export blocks and compare column-for-column."""
    pieces: dict[str, list[np.ndarray]] = {name: [] for name in table.column_names}
    for block in blocks:
        for name in table.column_names:
            pieces[name].append(block[name])
    for name in table.column_names:
        got = (
            np.concatenate(pieces[name])
            if pieces[name]
            else np.empty(0, dtype=table.column(name).dtype.numpy_dtype)
        )
        np.testing.assert_array_equal(got, reference[name], err_msg=name)
        assert got.dtype == reference[name].dtype


@settings(max_examples=25, deadline=None)
@given(summary=summaries(), batch_size=st.sampled_from([3, 7, 64]))
def test_csv_export_is_the_in_memory_stream(summary, batch_size):
    reference = reference_columns(summary, batch_size)
    with tempfile.TemporaryDirectory() as out_dir:
        manifest = export_summary(summary, CsvSink(out_dir), batch_size=batch_size)
        for name in summary.relations:
            table = summary.schema.table(name)
            assert manifest.relations[name].rows == summary.relation(name).total_rows
            assert_block_stream_matches(
                _read_csv(Path(out_dir), table, 16), reference[name], table
            )
        assert verify_export(summary, out_dir).ok


@settings(max_examples=25, deadline=None)
@given(summary=summaries(), batch_size=st.sampled_from([3, 7, 64]))
def test_sqlite_export_is_the_in_memory_stream(summary, batch_size):
    reference = reference_columns(summary, batch_size)
    with tempfile.TemporaryDirectory() as out_dir:
        export_summary(summary, SqliteSink(out_dir), batch_size=batch_size)
        for name in summary.relations:
            table = summary.schema.table(name)
            assert_block_stream_matches(
                _read_sqlite(Path(out_dir), table, 16), reference[name], table
            )
        connection = sqlite3.connect(Path(out_dir) / DATABASE_NAME)
        for name in summary.relations:
            count = connection.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
            assert count == summary.relation(name).total_rows
        connection.close()
        assert verify_export(summary, out_dir).ok


@settings(max_examples=10, deadline=None)
@given(summary=summaries())
def test_parallel_export_is_byte_identical_to_serial(summary):
    """Same blocks into the sink, same bytes out of it, at 1, 2 and 3 workers."""
    exports = {}
    for workers in (1, 2, 3):
        blocks = {
            name: [
                (start, count, {column: values.tobytes() for column, values in block.items()})
                for start, count, block in relation.iter_blocks()
            ]
            for name, relation in summary_relation_providers(summary, batch_size=8, workers=workers)
        }
        with tempfile.TemporaryDirectory() as out_dir:
            manifest = export_summary(summary, CsvSink(out_dir), workers=workers, batch_size=8)
            files = {
                name: (Path(out_dir) / f"{name}.csv").read_bytes() for name in summary.relations
            }
        checksums = {name: entry.checksum for name, entry in manifest.relations.items()}
        exports[workers] = (blocks, files, checksums, manifest.summary_fingerprint)
    assert exports[1] == exports[2] == exports[3]

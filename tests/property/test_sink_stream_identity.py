"""Property tests: sink output is row-for-row the in-memory stream.

For arbitrary summaries, a CSV/SQLite export must hold exactly the rows the
``datagen`` providers stream in memory — same values, same order, every
dtype — and the export must re-validate against its manifest.  A dedicated
test pins ``workers`` 1, 2 and 3 explicitly and asserts identical block
streams and byte-identical CSV files, so stream identity and manifest
checksums hold for merged parallel streams too.

The second half is a differential oracle (as ``test_regions_property`` keeps
the old split): the sinks convert a *column* at a time, and the per-cell
``external_value`` / ``encode_external`` comprehensions plus a plain
``csv.writer`` they replaced live on here as the reference the column paths
must reproduce value for value, type for type and byte for byte.
"""

from __future__ import annotations

import csv
import io
import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
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
from repro.sinks.base import encode_external, external_columns, external_value
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


# -- differential oracle: the per-cell paths the column paths replaced --------

#: Every character class the CSV dialect, the ``%``-template or the re-read
#: could mistreat: delimiter, quote, ``%``, both newlines, blanks, non-ASCII.
TRICKY = ("", " pad ", "a,b", 'q"uo""te', "50%", "%s%d%%", "line\nfeed", "cr\rlf\r\n", "naïve ✓", "#x")
ALPHABET = ' ,"%\n\r\t#;aZ0é✓\''
SPECIAL_FLOATS = (-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e16, 5e-324, 0.1, -1e22)
HALVES = (-2.5, -1.5, -0.5, -0.0, 0.5, 1.5, 2.5, 1e15 + 0.5, 7.0)
EXACT = 2**53  # beyond it the per-cell reference itself rounds through float


def survives_csv(text: str) -> bool:
    """Whether a reader can get ``text`` back: before 3.13 the dialect leaves
    a ``\\r`` unquoted (unless something else in the cell forces quotes), and
    no reader can tell that from a row break."""
    echo = csv.writer(type("Echo", (), {"write": str}), lineterminator="\n")
    return "\r" not in text or echo.writerow([text, 0]).startswith('"')


def reference_external(table: Table, block) -> dict[str, list]:
    """``external_columns`` as it was: one ``external_value`` call per cell."""
    return {
        column.name: [external_value(column, value) for value in block[column.name]]
        for column in table.columns
    }


def reference_csv(table: Table, blocks) -> bytes:
    """The file a plain ``csv.writer`` makes of the per-cell decoded rows."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.column_names)
    for block in blocks:
        decoded = reference_external(table, block)
        writer.writerows(zip(*(decoded[name] for name in table.column_names)))
    return buffer.getvalue().encode("utf-8")


def reference_encode(table: Table, rows) -> dict[str, np.ndarray]:
    """``_encode_block`` as it was: one ``encode_external`` call per cell."""
    return {
        column.name: np.array(
            [encode_external(column, row[index]) for row in rows],
            dtype=column.dtype.numpy_dtype,
        )
        for index, column in enumerate(table.columns)
    }


def cells(values) -> list[tuple[type, str]]:
    """Type and repr of every cell: tells ``-0.0`` from ``0.0``, equates NaNs."""
    return [(type(value), repr(value)) for value in values]


@st.composite
def typed_tables(draw) -> Table:
    """Either all four type kinds at once or a lone string column."""
    extra = draw(st.lists(st.text(ALPHABET, max_size=5), max_size=4))
    label = Column("label", StringType.from_values(TRICKY + tuple(extra)))
    if draw(st.booleans()):
        return Table(name="t", columns=[label])
    return Table(
        name="t",
        columns=[
            Column("pk", INTEGER),
            Column("n", INTEGER),
            Column("val", FLOAT),
            label,
            Column("day", DATE),
        ],
        primary_key="pk",
    )


@st.composite
def column_values(draw, column: Column, rows: int, integral: bool) -> np.ndarray:
    """One encoded column, constant or varying, in any dtype a caller feeds.

    ``integral`` keeps float arrays in integer columns whole: the checksum
    truncates where the export rounds, so only whole numbers verify.
    """
    kind = column.dtype.kind.value
    if kind == "float":
        cell = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False)
    elif kind == "integer" and draw(st.booleans()):
        cell = st.sampled_from(HALVES) | st.floats(min_value=-1e9, max_value=1e9)
        cell = cell.map(round).map(float) if integral else cell
    elif kind == "integer":
        cell = st.integers(min_value=-EXACT, max_value=EXACT)
    elif kind == "string":  # three codes either side fall outside the dictionary
        cell = st.integers(min_value=-3, max_value=len(column.dtype.dictionary) + 2)
    else:
        cell = st.integers(min_value=-30_000, max_value=60_000)
    if draw(st.booleans()):
        return np.array([draw(cell)] * rows)
    return np.array(draw(st.lists(cell, min_size=rows, max_size=rows)))


@st.composite
def block_lists(draw, integral: bool = True) -> tuple[Table, list[dict[str, np.ndarray]]]:
    """Hand-made blocks of 0, 1 or more rows; value columns may vary."""
    table = draw(typed_tables())
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 5, 17]), min_size=1, max_size=4))
    return table, [
        {column.name: draw(column_values(column, rows, integral)) for column in table.columns}
        for rows in sizes
    ]


def export_blocks(sink, table: Table, blocks) -> DatabaseSummary:
    """Drive ``blocks`` through ``sink`` by hand and seal it for verification."""
    total = sum(len(block[table.column_names[0]]) for block in blocks)
    summary = DatabaseSummary(
        schema=Schema.from_tables([table]),
        relations={"t": RelationSummary(table="t", rows=[SummaryRow(count=total)])},
    )
    sink.open_relation(table)
    for block in blocks:
        sink.write_block(block)
    sink.close_relation()
    sink.finalize(summary)
    return summary


@settings(max_examples=150, deadline=None)
@given(drawn=block_lists(integral=False))
def test_column_decoder_equals_the_per_cell_reference(drawn):
    table, blocks = drawn
    for block in blocks:
        got, expected = external_columns(table, block), reference_external(table, block)
        assert list(got) == list(expected) == table.column_names
        for name in table.column_names:
            assert cells(got[name]) == cells(expected[name]), name


# An unquoted ``\r`` can leave a blank line behind; numpy says it skipped it.
@pytest.mark.filterwarnings("ignore:.*contained no data")
@settings(max_examples=150, deadline=None)
@given(drawn=block_lists(), batch_size=st.sampled_from([1, 4, 8192]))
def test_csv_bytes_are_csv_writers_and_reread_is_the_per_cell_encode(drawn, batch_size):
    table, blocks = drawn
    with tempfile.TemporaryDirectory() as out_dir:
        summary = export_blocks(CsvSink(out_dir), table, blocks)
        written = (Path(out_dir) / "t.csv").read_bytes()
        assert written == reference_csv(table, blocks)
        texts = [text for block in blocks for text in reference_external(table, block)["label"]]
        readable = all(map(survives_csv, texts))
        assert verify_export(summary, out_dir, batch_size=batch_size).ok == readable
        if readable:
            with (Path(out_dir) / "t.csv").open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            reference = reference_encode(table, [
                [float(cell) if column.dtype is FLOAT else cell for column, cell in zip(table.columns, row)]
                for row in rows
            ])
            assert_block_stream_matches(_read_csv(Path(out_dir), table, batch_size), reference, table)


@settings(max_examples=100, deadline=None)
@given(drawn=block_lists(), batch_size=st.sampled_from([1, 4, 8192]))
def test_sqlite_rows_are_the_per_cell_values_and_reread_the_per_cell_encode(drawn, batch_size):
    table, blocks = drawn
    with tempfile.TemporaryDirectory() as out_dir:
        summary = export_blocks(SqliteSink(out_dir), table, blocks)
        connection = sqlite3.connect(Path(out_dir) / DATABASE_NAME)
        stored = connection.execute('SELECT * FROM "t" ORDER BY rowid').fetchall()
        connection.close()
        expected = [
            row
            for block in blocks
            for row in zip(*reference_external(table, block).values())
        ]
        # SQLite stores NaN as NULL; every other cell comes back as it went in.
        assert [cells(row) for row in stored] == [
            cells(None if value != value else value for value in row) for row in expected
        ]
        assert verify_export(summary, out_dir, batch_size=batch_size).ok
        reference = reference_encode(
            table, [[float("nan") if cell is None else cell for cell in row] for row in stored]
        )
        assert_block_stream_matches(_read_sqlite(Path(out_dir), table, batch_size), reference, table)


@pytest.mark.parametrize("sink_class", [CsvSink, SqliteSink])
@pytest.mark.parametrize("rows", [15, 16, 17, 32])
def test_reread_batches_at_and_around_the_batch_size(tmp_path, sink_class, rows):
    """A re-read cut at exactly, one under and one over ``batch_size`` rows."""
    table = FACT
    block = {
        "pk": np.arange(rows),
        "fk": np.arange(rows) % DIM_ROWS,
        "val": np.linspace(-1.0, 1.0, rows),
        "label": np.arange(rows) % 5,  # code 4 is outside the dictionary
        "day": np.full(rows, 9_000),
    }
    summary = DatabaseSummary(
        schema=SCHEMA,
        relations={
            "dim": RelationSummary(table="dim", rows=[SummaryRow(count=DIM_ROWS)]),
            "fact": RelationSummary(table="fact", rows=[SummaryRow(count=rows)]),
        },
    )
    sink = sink_class(tmp_path)
    sink.open_relation(table)
    sink.write_block(block)
    sink.close_relation()
    sink.finalize(summary)
    reader = _read_csv if sink_class is CsvSink else _read_sqlite
    batches = list(reader(tmp_path, table, 16))
    assert [len(batch["pk"]) for batch in batches] == [16] * (rows // 16) + [rows % 16] * (rows % 16 > 0)
    assert_block_stream_matches(batches, {k: np.asarray(v) for k, v in block.items()}, table)
    validation = verify_export(summary, tmp_path, batch_size=16)
    assert validation.ok and validation.rows_checked == rows


@settings(max_examples=10, deadline=None)
@given(summary=summaries())
def test_manifests_are_equal_at_any_worker_count_and_across_backends(summary):
    manifests = {}
    for sink_class in (CsvSink, SqliteSink):
        for workers in (1, 2, 3):
            with tempfile.TemporaryDirectory() as out_dir:
                manifest = export_summary(summary, sink_class(out_dir), workers=workers, batch_size=8)
                assert verify_export(summary, out_dir, batch_size=5).ok
            manifests[sink_class, workers] = manifest.to_dict()
        assert manifests[sink_class, 1] == manifests[sink_class, 2] == manifests[sink_class, 3]

    def content(manifest):
        return {
            name: {key: value for key, value in entry.items() if key != "files"}
            for name, entry in manifest["relations"].items()
        }

    assert content(manifests[CsvSink, 1]) == content(manifests[SqliteSink, 1])

"""Unit tests for the streaming materialization sinks (``repro.sinks``)."""

from __future__ import annotations

import csv
import datetime
import json
import sqlite3
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import DATE, FLOAT, INTEGER, StringType
from repro.cli import vendor_main
from repro.core.errors import HydraError
from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.sinks import (
    MANIFEST_NAME,
    ColumnHasher,
    CsvSink,
    Manifest,
    SqliteSink,
    export_summary,
    sink_for_format,
    verify_export,
)
from repro.sinks.sqlite_sink import DATABASE_NAME
from repro.sql.predicates import Interval, IntervalSet


DIM = Table(name="dim", columns=[Column("dim_pk", INTEGER)], primary_key="dim_pk")
FACT = Table(
    name="fact",
    columns=[
        Column("pk", INTEGER),
        Column("fk", INTEGER),
        Column("val", FLOAT),
        Column("label", StringType(dictionary=("alpha", "beta", "gamma"))),
        Column("day", DATE),
    ],
    primary_key="pk",
    foreign_keys=[ForeignKey("fk", "dim", "dim_pk")],
)


def build_summary(fact_counts=(7, 5, 11), dim_rows=20) -> DatabaseSummary:
    """A hand-built two-relation summary covering every column dtype."""
    dim = RelationSummary(table="dim", rows=[SummaryRow(count=dim_rows)])
    fact_rows = []
    for index, count in enumerate(fact_counts):
        low = float(index * 3)
        fact_rows.append(
            SummaryRow(
                count=count,
                values={
                    "val": 0.125 + index,
                    "label": float(index % 3),
                    "day": float(100 * index),
                },
                fk_refs={
                    "fk": FKReference(
                        "dim", IntervalSet([Interval(low, low + 5.0)])
                    )
                },
            )
        )
    fact = RelationSummary(table="fact", rows=fact_rows)
    summary = DatabaseSummary(
        schema=Schema.from_tables([DIM, FACT]),
        relations={"dim": dim, "fact": fact},
    )
    summary.validate()
    return summary


def stream_columns(summary: DatabaseSummary, name: str) -> dict[str, np.ndarray]:
    """The reference in-memory stream a sink's output must reproduce."""
    from repro.core.pipeline import summary_relation_providers

    for table_name, relation in summary_relation_providers(summary):
        if table_name == name:
            return relation.fetch_columns(summary.schema.table(name).column_names)
    raise AssertionError(f"no relation {name!r}")


class TestManifestChecksums:
    def test_checksums_are_block_boundary_independent(self):
        summary = build_summary()
        columns = stream_columns(summary, "fact")
        whole = ColumnHasher(FACT)
        whole.update(columns)
        chunked = ColumnHasher(FACT)
        for start in range(0, 23, 4):
            chunked.update({k: v[start:start + 4] for k, v in columns.items()})
        assert whole.rows == chunked.rows == 23
        assert whole.column_checksums() == chunked.column_checksums()
        assert whole.relation_checksum() == chunked.relation_checksum()

    def test_manifest_round_trips_through_json(self, tmp_path):
        summary = build_summary()
        manifest = export_summary(summary, CsvSink(tmp_path))
        loaded = Manifest.load(tmp_path)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.summary_fingerprint == summary.fingerprint()
        assert loaded.relations["fact"].rows == 23
        assert loaded.relations["fact"].columns == {
            "pk": "integer",
            "fk": "integer",
            "val": "float",
            "label": "string",
            "day": "date",
        }

    def test_negative_zero_normalizes_across_backends(self, tmp_path):
        """-0.0 == 0.0, and SQLite cannot round-trip the sign bit: exports
        and checksums must treat the two as the same value everywhere."""
        summary = build_summary()
        fact = summary.relation("fact")
        first = replace(fact.rows[0], values={**fact.rows[0].values, "val": -0.0})
        summary.add_relation(RelationSummary(table="fact", rows=[first, *fact.rows[1:]]))
        csv_manifest = export_summary(summary, CsvSink(tmp_path / "csv"))
        sqlite_manifest = export_summary(summary, SqliteSink(tmp_path / "sqlite"))
        assert (
            csv_manifest.relations["fact"].checksum
            == sqlite_manifest.relations["fact"].checksum
        )
        assert verify_export(summary, tmp_path / "csv").ok
        assert verify_export(summary, tmp_path / "sqlite").ok
        assert "-0.0" not in (tmp_path / "csv" / "fact.csv").read_text()

    def test_backends_share_content_checksums(self, tmp_path):
        summary = build_summary()
        csv_manifest = export_summary(summary, CsvSink(tmp_path / "csv"))
        sqlite_manifest = export_summary(summary, SqliteSink(tmp_path / "sqlite"))
        for name in summary.relations:
            assert (
                csv_manifest.relations[name].checksum
                == sqlite_manifest.relations[name].checksum
            )
            assert (
                csv_manifest.relations[name].column_checksums
                == sqlite_manifest.relations[name].column_checksums
            )


class TestCsvSink:
    def test_round_trip_preserves_values(self, tmp_path):
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        with (tmp_path / "fact.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == FACT.column_names
        assert len(rows) == 1 + 23
        first = rows[1]
        assert first[0] == "0"            # pk auto-number
        assert float(first[2]) == 0.125   # float round-trips exactly
        assert first[3] == "alpha"        # dictionary-decoded string
        assert first[4] == DATE.decode(0.0).isoformat()  # ISO date

    def test_empty_relation_writes_header_only(self, tmp_path):
        summary = build_summary(fact_counts=(0,))
        manifest = export_summary(summary, CsvSink(tmp_path))
        with (tmp_path / "fact.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [FACT.column_names]
        assert manifest.relations["fact"].rows == 0
        assert verify_export(summary, tmp_path).ok


class TestSqliteSink:
    def test_dtype_preservation_in_sqlite(self, tmp_path):
        summary = build_summary()
        export_summary(summary, SqliteSink(tmp_path))
        connection = sqlite3.connect(tmp_path / DATABASE_NAME)
        rows = connection.execute(
            "SELECT pk, fk, val, label, day FROM fact ORDER BY rowid"
        ).fetchall()
        connection.close()
        assert len(rows) == 23
        pk, fk, val, label, day = rows[0]
        assert isinstance(pk, int) and isinstance(fk, int)
        assert isinstance(val, float) and val == 0.125
        assert label == "alpha"
        assert day == DATE.decode(0.0).isoformat()
        assert datetime.date.fromisoformat(day)  # valid ISO-8601

    def test_sqlite_matches_in_memory_stream(self, tmp_path):
        summary = build_summary()
        export_summary(summary, SqliteSink(tmp_path))
        reference = stream_columns(summary, "fact")
        connection = sqlite3.connect(tmp_path / DATABASE_NAME)
        fks = [row[0] for row in connection.execute("SELECT fk FROM fact ORDER BY rowid")]
        connection.close()
        np.testing.assert_array_equal(np.asarray(fks, dtype=np.int64), reference["fk"])

    def test_row_counts_queryable_by_clients(self, tmp_path):
        summary = build_summary()
        export_summary(summary, SqliteSink(tmp_path))
        connection = sqlite3.connect(tmp_path / DATABASE_NAME)
        for name in ("dim", "fact"):
            count = connection.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
            assert count == summary.relation(name).total_rows
        connection.close()


class TestVerifyExport:
    def test_fresh_export_validates(self, tmp_path):
        summary = build_summary()
        export_summary(summary, SqliteSink(tmp_path))
        validation = verify_export(summary, tmp_path)
        assert validation.ok
        assert sorted(validation.relations_checked) == ["dim", "fact"]
        assert validation.rows_checked == 43

    def test_tampered_csv_is_detected(self, tmp_path):
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        path = tmp_path / "fact.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "9999"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        validation = verify_export(summary, tmp_path)
        assert not validation.ok
        assert any("checksum mismatch" in problem for problem in validation.problems)

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda cells: cells[:-1], id="row one cell short"),
            pytest.param(lambda cells: cells + ["999"], id="row one cell long"),
            pytest.param(lambda cells: ["seven"] + cells[1:], id="text in INTEGER"),
            pytest.param(lambda cells: cells[:1] + ["2.5"] + cells[2:], id="fraction in INTEGER"),
            pytest.param(lambda cells: cells[:1] + [cells[1] + ".0"] + cells[2:], id="float text in INTEGER"),
            pytest.param(lambda cells: cells[:1] + ["1e3"] + cells[2:], id="exponent in INTEGER"),
            pytest.param(lambda cells: cells[:1] + ["nan"] + cells[2:], id="nan in INTEGER"),
            pytest.param(lambda cells: cells[:3] + ["delta"] + cells[4:], id="unknown string"),
            pytest.param(lambda cells: cells[:4] + ["1990-02-30"], id="not a date"),
        ],
    )
    def test_malformed_csv_row_is_a_problem_not_a_crash(self, tmp_path, tamper):
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        path = tmp_path / "fact.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(tamper(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        validation = verify_export(summary, tmp_path)
        assert not validation.ok
        assert any(
            problem.startswith("fact: cannot re-read export: ")
            for problem in validation.problems
        ), validation.problems

    def test_csv_reread_turns_numpy_deprecations_into_errors(self, tmp_path, monkeypatch):
        """numpy < 2.3 parses ``2.5`` in an INTEGER column through float (-> 2) and only
        warns; the re-read must run ``np.loadtxt`` with that warning raised, and must not
        leave the filter behind."""
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        real_loadtxt, raised = np.loadtxt, []

        def spying_loadtxt(*args, **kwargs):
            with pytest.raises(DeprecationWarning):
                warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
            raised.append(True)
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spying_loadtxt)
        assert verify_export(summary, tmp_path, batch_size=8).ok
        assert len(raised) > 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert verify_export(summary, tmp_path).ok
            warnings.warn("afterwards", DeprecationWarning)  # recorded, not raised
        assert [str(warning.message) for warning in caught] == ["afterwards"]

    @pytest.mark.filterwarnings("ignore:.*contained no data")
    def test_blank_csv_lines_hold_no_cell_and_are_skipped(self, tmp_path):
        """Deliberate: a blank line adds no row and no cell, so the row count and the
        checksums still vouch for the content (numpy warns when a batch is only blank)."""
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        path = tmp_path / "fact.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [""] + lines[3:] + ["", ""]) + "\n")
        for batch_size in (2, 8192):
            validation = verify_export(summary, tmp_path, batch_size=batch_size)
            assert validation.ok, validation.problems
            assert validation.rows_checked == 43

    @pytest.mark.parametrize("value", ["seven", None, b"\x00"])
    def test_mistyped_sqlite_value_is_a_problem_not_a_crash(self, tmp_path, value):
        summary = build_summary()
        export_summary(summary, SqliteSink(tmp_path))
        connection = sqlite3.connect(tmp_path / DATABASE_NAME)
        connection.execute("UPDATE fact SET fk = ? WHERE rowid = 2", (value,))
        connection.commit()
        connection.close()
        validation = verify_export(summary, tmp_path)
        assert not validation.ok
        assert any(
            problem.startswith("fact: cannot re-read export: ")
            for problem in validation.problems
        ), validation.problems

    def test_tampered_sqlite_is_detected(self, tmp_path):
        summary = build_summary()
        export_summary(summary, SqliteSink(tmp_path))
        connection = sqlite3.connect(tmp_path / DATABASE_NAME)
        connection.execute("UPDATE fact SET val = val + 1 WHERE rowid = 2")
        connection.commit()
        connection.close()
        validation = verify_export(summary, tmp_path)
        assert not validation.ok

    def test_wrong_summary_fingerprint_is_detected(self, tmp_path):
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        other = build_summary(fact_counts=(7, 5, 12))
        validation = verify_export(other, tmp_path)
        assert not validation.ok
        assert any("fingerprint" in problem for problem in validation.problems)

    def test_missing_file_is_detected(self, tmp_path):
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        (tmp_path / "dim.csv").unlink()
        validation = verify_export(summary, tmp_path)
        assert not validation.ok
        assert any("dim" in problem for problem in validation.problems)

    def test_directory_without_manifest_is_rejected(self, tmp_path):
        summary = build_summary()
        with pytest.raises(HydraError, match=MANIFEST_NAME):
            verify_export(summary, tmp_path)

    def test_fingerprint_ignores_build_timings_and_extension_state(self, tmp_path):
        """Rebuilding an identical summary must validate existing exports:
        the fingerprint covers only regeneration-relevant state, never the
        wall-clock timings build_info records or vendor-side bookkeeping."""
        summary = build_summary()
        summary.build_info = {"total_seconds": 1.23}
        export_summary(summary, CsvSink(tmp_path))
        rebuilt = build_summary()
        rebuilt.build_info = {"total_seconds": 4.56}
        rebuilt.extension_state = {"format_version": 1, "aqps": []}
        assert rebuilt.fingerprint() == summary.fingerprint()
        assert verify_export(rebuilt, tmp_path).ok
        different = build_summary(fact_counts=(7, 5, 12))
        assert different.fingerprint() != summary.fingerprint()


class TestSinkProtocol:
    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(HydraError, match="unknown export format"):
            sink_for_format("msgpack", tmp_path)

    def test_known_formats_resolve(self, tmp_path):
        assert isinstance(sink_for_format("csv", tmp_path / "a"), CsvSink)
        assert isinstance(sink_for_format("sqlite", tmp_path / "b"), SqliteSink)

    def test_unknown_relation_names_raise(self, tmp_path):
        summary = build_summary()
        with pytest.raises(HydraError, match="unknown relation"):
            export_summary(summary, CsvSink(tmp_path), relations=["fact", "nope"])

    def test_protocol_misuse_is_rejected(self, tmp_path):
        summary = build_summary()
        sink = CsvSink(tmp_path)
        with pytest.raises(HydraError, match="no relation is open"):
            sink.write_block({})
        sink.open_relation(DIM)
        with pytest.raises(HydraError, match="still open"):
            sink.open_relation(FACT)
        with pytest.raises(HydraError, match="still open"):
            sink.finalize(summary)
        sink.close_relation()
        sink.finalize(summary)
        with pytest.raises(HydraError, match="finalized"):
            sink.open_relation(FACT)

    @pytest.mark.parametrize("sink_class", [CsvSink, SqliteSink])
    def test_ragged_or_incomplete_block_is_rejected_before_any_write(
        self, tmp_path, sink_class
    ):
        summary = build_summary()
        block = stream_columns(summary, "fact")
        sink = sink_class(tmp_path)
        sink.open_relation(FACT)
        with pytest.raises(HydraError, match=r"relation 'fact'.*'pk': 23.*'day': 22"):
            sink.write_block({**block, "day": block["day"][:-1]})
        with pytest.raises(HydraError, match=r"relation 'fact'.*'label'.*got") as error:
            sink.write_block({k: v for k, v in block.items() if k != "label"})
        assert "'label'" not in str(error.value).split("got")[1]  # named, but not got
        # Nothing was hashed or written: the good block alone is the export.
        sink.write_block(block)
        sink.close_relation()
        sink.open_relation(DIM)
        sink.write_block(stream_columns(summary, "dim"))
        sink.close_relation()
        manifest = sink.finalize(summary)
        assert manifest.relations["fact"].rows == 23
        assert verify_export(summary, tmp_path).ok

    def test_partial_export_lists_only_exported_relations(self, tmp_path):
        summary = build_summary()
        manifest = export_summary(summary, CsvSink(tmp_path), relations=["fact"])
        assert list(manifest.relations) == ["fact"]
        assert verify_export(summary, tmp_path).ok

    def test_reexport_removes_stale_relation_files(self, tmp_path):
        """Re-exporting into a directory must not leave files of an earlier
        export that the fresh manifest does not vouch for."""
        summary = build_summary()
        export_summary(summary, CsvSink(tmp_path))
        assert (tmp_path / "dim.csv").is_file()
        export_summary(summary, CsvSink(tmp_path), relations=["fact"])
        assert not (tmp_path / "dim.csv").exists()
        assert (tmp_path / "fact.csv").is_file()
        assert verify_export(summary, tmp_path).ok

    def test_failed_export_aborts_sink_and_writes_no_manifest(self, tmp_path):
        summary = build_summary()
        sink = SqliteSink(tmp_path)
        boom = RuntimeError("disk on fire")

        def failing_write(table, block):
            raise boom

        sink._backend_write = failing_write
        with pytest.raises(RuntimeError, match="disk on fire"):
            export_summary(summary, sink, relations=["fact"])
        assert not (tmp_path / MANIFEST_NAME).exists()
        # The connection was released: a retry into the same directory works.
        retry = export_summary(summary, SqliteSink(tmp_path))
        assert retry.total_rows() == 43
        assert verify_export(summary, tmp_path).ok

    def test_abort_is_idempotent_and_blocks_reuse(self, tmp_path):
        sink = CsvSink(tmp_path)
        sink.open_relation(DIM)
        sink.abort()
        sink.abort()
        with pytest.raises(HydraError, match="finalized"):
            sink.open_relation(FACT)
        assert not (tmp_path / MANIFEST_NAME).exists()


class TestParquetIsNotAFormat:
    """The two stdlib backends are the only formats; ``parquet`` gets the typed rejection."""

    def test_sink_for_format_rejects_parquet(self, tmp_path):
        out_dir = tmp_path / "out"
        expected = "unknown export format 'parquet'; choose from csv, sqlite"
        with pytest.raises(HydraError, match=expected):
            sink_for_format("parquet", out_dir)
        assert not out_dir.exists()

    def test_vendor_cli_rejects_parquet_before_building(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as raised:
            vendor_main(
                [
                    str(tmp_path / "package.json"),
                    "--materialize", "all", "--format", "parquet", "--out", str(out_dir),
                ]
            )
        assert raised.value.code == 2
        assert "invalid choice: 'parquet'" in capsys.readouterr().err
        assert not out_dir.exists()


class TestRegenerateSinkWiring:
    def test_export_driver_matches_regenerated_database(self, tmp_path):
        summary = build_summary()
        from repro.core.pipeline import Hydra
        from repro.catalog.metadata import DatabaseMetadata

        hydra = Hydra(metadata=DatabaseMetadata(schema=summary.schema, statistics={}))
        export_summary(summary, SqliteSink(tmp_path))
        assert hydra.regenerate(summary).row_count("fact") == 23
        assert verify_export(summary, tmp_path).ok
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert payload["summary_fingerprint"] == summary.fingerprint()

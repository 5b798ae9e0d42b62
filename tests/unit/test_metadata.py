"""Unit tests for CODD-style metadata collection and (de)serialisation."""

from __future__ import annotations

import pytest

from repro.catalog.metadata import DatabaseMetadata, collect_metadata
from repro.workload.toy import ToyConfig, generate_toy_database


@pytest.fixture(scope="module")
def database():
    return generate_toy_database(ToyConfig(r_rows=2000, s_rows=300, t_rows=40, seed=1))


@pytest.fixture(scope="module")
def metadata(database):
    return collect_metadata(database)


class TestCollectMetadata:
    def test_row_counts_match_database(self, database, metadata):
        assert metadata.row_count("R") == database.row_count("R")
        assert metadata.row_count("S") == 300
        assert metadata.row_count("T") == 40

    def test_unknown_table_raises(self, metadata):
        with pytest.raises(KeyError):
            metadata.row_count("missing")

    def test_every_column_has_statistics(self, database, metadata):
        for table in database.schema:
            stats = metadata.statistics[table.name]
            for column in table.columns:
                assert column.name in stats.columns

    def test_column_statistics_bounds(self, database, metadata):
        stats = metadata.statistics["S"].column("A")
        values = database.table_data("S").column("A")
        assert stats.min_value == values.min()
        assert stats.max_value == values.max()

    def test_primary_key_statistics_distinct(self, metadata):
        stats = metadata.statistics["S"].column("S_pk")
        assert stats.distinct_count == 300

    def test_statistics_contain_no_tuples(self, metadata):
        """The privacy property: metadata size is bounded, independent of rows."""
        payload = metadata.to_json()
        # There is no per-row structure: only MCVs and histogram bounds.
        assert len(payload) < 200_000


class TestSerialisation:
    def test_json_roundtrip(self, metadata):
        restored = DatabaseMetadata.from_json(metadata.to_json())
        assert set(restored.statistics) == set(metadata.statistics)
        assert restored.row_count("R") == metadata.row_count("R")
        restored_stats = restored.statistics["S"].column("A")
        original_stats = metadata.statistics["S"].column("A")
        assert restored_stats.histogram_bounds == original_stats.histogram_bounds

    def test_save_and_load(self, metadata, tmp_path):
        path = tmp_path / "metadata.json"
        metadata.save(path)
        restored = DatabaseMetadata.load(path)
        assert restored.row_count("T") == metadata.row_count("T")

    def test_schema_preserved(self, metadata):
        restored = DatabaseMetadata.from_dict(metadata.to_dict())
        assert restored.schema.table("R").foreign_keys[0].ref_table == "S"

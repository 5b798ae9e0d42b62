"""Unit tests for the column-store table and database abstractions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER, StringType
from repro.storage.database import Database, MaterializedRelation
from repro.storage.table import TableData


@pytest.fixture()
def simple_table() -> Table:
    return Table(
        name="t",
        columns=[
            Column("t_pk", INTEGER),
            Column("value", FLOAT),
            Column("label", StringType(dictionary=("low", "mid", "high"))),
        ],
        primary_key="t_pk",
    )


class TestTableData:
    def test_from_rows_encodes_values(self, simple_table):
        data = TableData.from_rows(
            simple_table, [(0, 1.5, "low"), (1, 2.5, "high")]
        )
        assert data.row_count == 2
        assert list(data.column("label")) == [0, 2]

    def test_from_columns(self, simple_table):
        data = TableData.from_columns(
            simple_table,
            {"t_pk": [0, 1], "value": [1.0, 2.0], "label": [0, 1]},
        )
        assert data.row_count == 2

    def test_missing_column_rejected(self, simple_table):
        with pytest.raises(ValueError):
            TableData(table=simple_table, columns={"t_pk": np.array([0])})

    def test_ragged_columns_rejected(self, simple_table):
        with pytest.raises(ValueError):
            TableData(
                table=simple_table,
                columns={
                    "t_pk": np.array([0, 1]),
                    "value": np.array([1.0]),
                    "label": np.array([0, 1]),
                },
            )

    def test_row_access_encoded_and_decoded(self, simple_table):
        data = TableData.from_rows(simple_table, [(0, 1.5, "mid")])
        assert data.row(0) == (0, 1.5, 1)
        assert data.row(0, decoded=True) == (0, 1.5, "mid")

    def test_row_out_of_range(self, simple_table):
        data = TableData.empty(simple_table)
        with pytest.raises(IndexError):
            data.row(0)

    def test_select_mask(self, simple_table):
        data = TableData.from_rows(
            simple_table, [(0, 1.0, "low"), (1, 2.0, "mid"), (2, 3.0, "high")]
        )
        subset = data.select(np.array([True, False, True]))
        assert subset.row_count == 2
        assert list(subset.column("t_pk")) == [0, 2]

    def test_select_wrong_shape_rejected(self, simple_table):
        data = TableData.from_rows(simple_table, [(0, 1.0, "low")])
        with pytest.raises(ValueError):
            data.select(np.array([True, False]))

    def test_take(self, simple_table):
        data = TableData.from_rows(
            simple_table, [(0, 1.0, "low"), (1, 2.0, "mid"), (2, 3.0, "high")]
        )
        subset = data.take(np.array([2, 0]))
        assert list(subset.column("t_pk")) == [2, 0]

    def test_memory_bytes_positive(self, simple_table):
        data = TableData.from_rows(simple_table, [(0, 1.0, "low")] * 10)
        assert data.memory_bytes() > 0

    def test_decoded_row(self, simple_table):
        data = TableData.from_rows(simple_table, [(0, 1.0, "low"), (1, 2.0, "high")])
        assert data.row(1, decoded=True)[2] == "high"


def _star_schema() -> Schema:
    dim = Table(
        name="dim",
        columns=[Column("dim_pk", INTEGER), Column("attr", INTEGER)],
        primary_key="dim_pk",
    )
    fact = Table(
        name="fact",
        columns=[Column("fact_pk", INTEGER), Column("dim_fk", INTEGER)],
        primary_key="fact_pk",
        foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
    )
    return Schema.from_tables([fact, dim])


class TestDatabase:
    def _database(self) -> Database:
        schema = _star_schema()
        dim_data = TableData.from_columns(
            schema.table("dim"), {"dim_pk": [0, 1, 2], "attr": [10, 20, 30]}
        )
        fact_data = TableData.from_columns(
            schema.table("fact"), {"fact_pk": [0, 1, 2, 3], "dim_fk": [0, 1, 1, 2]}
        )
        return Database.from_table_data(schema, [fact_data, dim_data])

    def test_row_counts(self):
        database = self._database()
        assert database.row_count("fact") == 4
        assert database.row_count("dim") == 3
        assert database.total_rows() == 7

    def test_table_data_access(self):
        database = self._database()
        assert database.table_data("dim").row_count == 3
        assert database.is_materialized("dim")

    def test_attach_unknown_table_rejected(self):
        database = self._database()
        with pytest.raises(KeyError):
            database.attach("missing", database.provider("dim"))

    def test_missing_provider(self):
        schema = _star_schema()
        database = Database(schema=schema, providers={})
        with pytest.raises(KeyError):
            database.provider("fact")

    def test_dataless_provider_not_materialized(self):
        database = self._database()

        class FakeProvider:
            row_count = 5
            column_names = ["fact_pk", "dim_fk"]

            def row(self, index):
                return (index, 0)

        database.attach("fact", FakeProvider())
        assert not database.is_materialized("fact")
        with pytest.raises(TypeError):
            database.table_data("fact")

    def test_memory_bytes_counts_only_materialized(self):
        database = self._database()
        full = database.memory_bytes()

        class FakeProvider:
            row_count = 5
            column_names = ["fact_pk", "dim_fk"]

            def row(self, index):
                return (index, 0)

        database.attach("fact", FakeProvider())
        assert database.memory_bytes() < full

    def test_materialized_relation_provider_protocol(self):
        database = self._database()
        provider = database.provider("dim")
        assert isinstance(provider, MaterializedRelation)
        assert provider.row_count == 3
        assert provider.row(1) == (1, 20)
        assert provider.column_names == ["dim_pk", "attr"]

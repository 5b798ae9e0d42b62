"""Unit tests for the database summary, tuple generation and referential repair."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER, StringType
from repro.core.errors import SummaryError
from repro.core.refint import enforce_referential_integrity
from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.core.tuplegen import TupleGenerator
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


@pytest.fixture()
def schema() -> Schema:
    dim = Table(
        name="dim",
        columns=[
            Column("dim_pk", INTEGER),
            Column("category", StringType(dictionary=("Books", "Music", "Shoes"))),
            Column("price", FLOAT),
        ],
        primary_key="dim_pk",
    )
    fact = Table(
        name="fact",
        columns=[
            Column("fact_pk", INTEGER),
            Column("dim_fk", INTEGER),
            Column("quantity", INTEGER),
        ],
        primary_key="fact_pk",
        foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
    )
    return Schema.from_tables([fact, dim])


@pytest.fixture()
def summary(schema) -> DatabaseSummary:
    dim_summary = RelationSummary(
        table="dim",
        rows=[
            SummaryRow(count=917, values={"category": 1.0, "price": 9.99}),
            SummaryRow(count=21, values={"category": 0.0, "price": 50.0}),
            SummaryRow(count=62, values={"category": 2.0, "price": 5.0}),
        ],
    )
    fact_summary = RelationSummary(
        table="fact",
        rows=[
            SummaryRow(
                count=100,
                values={"quantity": 3.0},
                fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(0, 917)]))},
            ),
            SummaryRow(
                count=50,
                values={"quantity": 8.0},
                fk_refs={
                    "dim_fk": FKReference(
                        "dim", IntervalSet([Interval(917, 938), Interval(938, 1000)])
                    )
                },
            ),
        ],
    )
    database_summary = DatabaseSummary(schema=schema)
    database_summary.add_relation(dim_summary)
    database_summary.add_relation(fact_summary)
    return database_summary


class TestFKReference:
    def test_target_count(self):
        ref = FKReference("dim", IntervalSet([Interval(0, 10), Interval(20, 25)]))
        assert ref.target_count() == 15

    def test_kth_target_round_robin(self):
        ref = FKReference("dim", IntervalSet([Interval(0, 3), Interval(10, 12)]))
        assert [ref.kth_target(k) for k in range(6)] == [0, 1, 2, 10, 11, 0]

    def test_fill_targets_vectorised(self):
        ref = FKReference("dim", IntervalSet([Interval(0, 3), Interval(10, 12)]))
        out = np.full(8, -1, dtype=np.int64)
        ref.fill_targets(out[1:7], 0)
        assert list(out) == [-1, 0, 1, 2, 10, 11, 0, -1]
        ref.fill_targets(out, 4)
        assert list(out) == [11, 0, 1, 2, 10, 11, 0, 1]

    def test_empty_reference_raises(self):
        ref = FKReference("dim", IntervalSet.empty())
        with pytest.raises(SummaryError):
            ref.kth_target(0)
        with pytest.raises(SummaryError):
            ref.fill_targets(np.zeros(1, dtype=np.int64), 0)

    def test_roundtrip(self):
        ref = FKReference("dim", IntervalSet([Interval(3, 9)]))
        assert FKReference.from_dict(ref.to_dict()) == ref

    def test_flattened_form_stays_private(self):
        ref = FKReference("dim", IntervalSet([Interval(0, 3), Interval(10, 12)]))
        before = (repr(ref), ref.to_dict(), hash(ref))
        assert ref.kth_target(4) == 11
        assert (repr(ref), ref.to_dict(), hash(ref)) == before
        assert ref == FKReference("dim", IntervalSet([Interval(0, 3), Interval(10, 12)]))


class TestRelationSummary:
    def test_total_and_offsets(self, summary):
        dim = summary.relation("dim")
        assert dim.total_rows == 1000
        assert list(dim.row_offsets) == [0, 917, 938]

    def test_locate(self, summary):
        dim = summary.relation("dim")
        assert dim.locate(0) == (0, 0)
        assert dim.locate(916) == (0, 916)
        assert dim.locate(917) == (1, 0)
        assert dim.locate(999) == (2, 61)
        with pytest.raises(IndexError):
            dim.locate(1000)

    def test_pk_interval_of_row(self, summary):
        dim = summary.relation("dim")
        assert dim.pk_interval_of_row(1) == (917, 938)

    def test_roundtrip(self, summary):
        dim = summary.relation("dim")
        restored = RelationSummary.from_dict(dim.to_dict())
        assert restored.total_rows == dim.total_rows
        assert len(restored.rows) == len(dim.rows)


def _replace_row(summary, table, position, values=(), fk_refs=()):
    """Swap in ``table``'s relation with row ``position`` extended: rows are read-only."""
    relation = summary.relation(table)
    rows = list(relation.rows)
    row = rows[position]
    rows[position] = SummaryRow(
        count=row.count,
        values={**row.values, **dict(values)},
        fk_refs={**row.fk_refs, **dict(fk_refs)},
    )
    summary.add_relation(RelationSummary(table=table, rows=rows))


class TestDatabaseSummary:
    def test_row_counts(self, summary):
        assert summary.row_count("dim") == 1000
        assert summary.row_count("fact") == 150
        assert summary.total_rows() == 1150
        assert summary.total_summary_rows() == 5

    def test_validate_passes(self, summary):
        summary.validate()

    def test_validate_rejects_unknown_column(self, summary, schema):
        _replace_row(summary, "dim", 0, values={"zzz": 1.0})
        with pytest.raises(SummaryError):
            summary.validate()

    def test_validate_rejects_pk_storage(self, summary):
        _replace_row(summary, "dim", 0, values={"dim_pk": 0.0})
        with pytest.raises(SummaryError):
            summary.validate()

    def test_validate_rejects_wrong_fk_target(self, summary):
        wrong = FKReference("fact", IntervalSet([Interval(0, 1)]))
        _replace_row(summary, "fact", 0, fk_refs={"dim_fk": wrong})
        with pytest.raises(SummaryError):
            summary.validate()

    def test_unknown_relation(self, summary):
        with pytest.raises(SummaryError):
            summary.relation("missing")

    def test_json_roundtrip_and_size(self, summary, tmp_path):
        path = tmp_path / "summary.json"
        summary.save(path)
        restored = DatabaseSummary.load(path)
        assert restored.row_count("fact") == 150
        assert restored.size_bytes() == summary.size_bytes()
        assert summary.size_bytes() < 4096  # a "minuscule" summary indeed

    def test_size_excludes_schema_by_default(self, summary):
        assert summary.size_bytes() < summary.size_bytes(include_schema=True)

    def test_save_creates_parent_directories(self, summary, tmp_path):
        path = tmp_path / "vendor" / "artifacts" / "summary.json"
        summary.save(path)
        assert DatabaseSummary.load(path).row_count("fact") == 150

    @pytest.mark.parametrize(
        "intervals",
        [
            [{"low": 0, "high": float("inf")}],
            [{"low": float("-inf"), "high": 10}],
            [],
            [{"low": 3.2, "high": 3.7}],
        ],
    )
    def test_fk_reference_that_cannot_generate_is_rejected_at_load(self, summary, intervals):
        # Each of these used to load and then fail mid-stream.
        payload = summary.to_dict()
        payload["relations"]["fact"]["rows"][1]["fk_refs"]["dim_fk"]["intervals"] = intervals
        field = "relations['fact'].rows[1].fk_refs['dim_fk']"
        with pytest.raises(SummaryError, match=re.escape(f"malformed database summary at {field}: ")):
            DatabaseSummary.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "relation, column, value",
        [
            ("fact", "quantity", 2.5),
            ("dim", "category", -0.5),
            ("dim", "price", float("inf")),
            ("dim", "price", float("nan")),
            ("fact", "quantity", float("-inf")),
        ],
    )
    def test_value_generation_would_not_write_is_rejected_at_load(
        self, summary, relation, column, value
    ):
        # Generation truncates a fraction on a discrete column; the summary
        # route would count the stored value instead — the two used to split.
        payload = summary.to_dict()
        payload["relations"][relation]["rows"][0]["values"][column] = value
        field = f"relations[{relation!r}].rows[0].values[{column!r}]"
        with pytest.raises(SummaryError, match=re.escape(f"malformed database summary at {field}: ")):
            DatabaseSummary.from_json(json.dumps(payload))

    def test_fraction_on_a_continuous_column_loads(self, summary):
        payload = summary.to_dict()
        payload["relations"]["dim"]["rows"][0]["values"]["price"] = -2.5
        assert DatabaseSummary.from_dict(payload).relation("dim").rows[0].values["price"] == -2.5

    def test_zero_count_row_without_targets_loads(self, summary):
        payload = summary.to_dict()
        row = payload["relations"]["fact"]["rows"][1]
        row["count"], row["fk_refs"]["dim_fk"]["intervals"] = 0, []
        restored = DatabaseSummary.from_dict(payload)
        assert restored.row_count("fact") == 100
        assert restored.relation("fact").rows[1].fk_refs["dim_fk"].target_count() == 0


class TestTupleGenerator:
    def test_row_count_and_columns(self, summary, schema):
        generator = TupleGenerator(table=schema.table("dim"), summary=summary.relation("dim"))
        assert generator.row_count == 1000
        assert generator.column_names == ["dim_pk", "category", "price"]

    def test_table_summary_mismatch_rejected(self, summary, schema):
        with pytest.raises(SummaryError):
            TupleGenerator(table=schema.table("fact"), summary=summary.relation("dim"))

    def test_pk_is_auto_number(self, summary, schema):
        generator = TupleGenerator(table=schema.table("dim"), summary=summary.relation("dim"))
        assert generator.row(0)[0] == 0
        assert generator.row(999)[0] == 999

    def test_values_follow_summary_rows(self, summary, schema):
        generator = TupleGenerator(table=schema.table("dim"), summary=summary.relation("dim"))
        assert generator.row(916)[1] == 1.0     # first block: Music
        assert generator.row(917)[1] == 0.0     # second block: Books

    def test_decoded_row_matches_paper_table1_style(self, summary, schema):
        generator = TupleGenerator(table=schema.table("dim"), summary=summary.relation("dim"))
        decoded = generator.decoded_row(0)
        assert decoded == (0, "Music", 9.99)
        assert generator.decoded_row(917)[1] == "Books"

    def test_fk_round_robin_within_reference(self, summary, schema):
        generator = TupleGenerator(table=schema.table("fact"), summary=summary.relation("fact"))
        first_block_targets = {generator.row(i)[1] for i in range(100)}
        assert all(0 <= target < 917 for target in first_block_targets)
        second_block_targets = [generator.row(100 + i)[1] for i in range(50)]
        assert all(917 <= target < 1000 for target in second_block_targets)

    def test_generate_block_matches_row(self, summary, schema):
        generator = TupleGenerator(table=schema.table("fact"), summary=summary.relation("fact"))
        block = generator.generate_block(90, 20)
        for offset in range(20):
            assert tuple(block[name][offset] for name in generator.column_names) == generator.row(90 + offset)

    def test_generate_block_subset_of_columns(self, summary, schema):
        generator = TupleGenerator(table=schema.table("dim"), summary=summary.relation("dim"))
        block = generator.generate_block(0, 10, columns=["price"])
        assert set(block) == {"price"}
        assert len(block["price"]) == 10

    def test_generate_block_out_of_range(self, summary, schema):
        generator = TupleGenerator(table=schema.table("dim"), summary=summary.relation("dim"))
        with pytest.raises(IndexError):
            generator.generate_block(995, 10)
        with pytest.raises(KeyError):
            generator.generate_block(0, 5, columns=["missing"])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_stream_refuses_non_positive_batch_size(self, summary, schema, batch_size):
        # ``batch_size=0`` used to yield zero-row blocks forever.
        generator = TupleGenerator(table=schema.table("fact"), summary=summary.relation("fact"))
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            next(generator.iter_filtered_blocks(BoxCondition({}), batch_size=batch_size))


class TestReferentialIntegrity:
    def test_clean_summary_untouched(self, summary):
        report = enforce_referential_integrity(summary)
        assert report.is_clean
        assert "no repairs" in report.describe()

    def test_out_of_range_reference_clamped(self, summary):
        reference = FKReference("dim", IntervalSet([Interval(0, 5000)]))
        _replace_row(summary, "fact", 0, fk_refs={"dim_fk": reference})
        planted = summary.relation("fact")
        report = enforce_referential_integrity(summary)
        assert not report.is_clean
        assert report.repairs[0].action == "clamped"
        clamped = summary.relation("fact").rows[0].fk_refs["dim_fk"].intervals
        # Rows are read-only: the repair replaced the relation, not its rows.
        assert planted.rows[0].fk_refs["dim_fk"] is reference
        assert clamped == IntervalSet([Interval(0, 1000)])

    def test_fully_dangling_reference_remapped(self, summary):
        dangling = FKReference("dim", IntervalSet([Interval(5000, 6000)]))
        _replace_row(summary, "fact", 1, fk_refs={"dim_fk": dangling})
        report = enforce_referential_integrity(summary)
        assert report.repairs[0].action == "remapped"
        assert report.affected_tuples == 50
        remapped = summary.relation("fact").rows[1].fk_refs["dim_fk"].intervals
        assert remapped == IntervalSet([Interval(0, 1000)])

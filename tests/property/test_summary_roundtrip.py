"""Serialisation round-trip properties of the summary data model.

The summary is the artefact that crosses sessions (and, with extension
state, the artefact incremental maintenance resumes from), so
``to_dict``/``from_dict`` — and the full JSON path — must be lossless for
every representable value, including dtype-sensitive ones: integral floats,
sub-integer fractions, negative bounds and infinite foreign-key interval
ends.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.sql.predicates import Interval, IntervalSet
from repro.workload.toy import toy_schema

# JSON-exact floats: avoid NaN (not JSON) and keep magnitudes where repr
# round-trips exactly (any finite double does, via repr/float).
_values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_counts = st.integers(min_value=0, max_value=10**9)
_column_names = st.sampled_from(["A", "B", "C", "V", "W"])


@st.composite
def interval_sets(draw) -> IntervalSet:
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        low = draw(_values)
        span = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
        pieces.append(Interval(low, low + span))
    return IntervalSet(pieces)


@st.composite
def fk_references(draw) -> FKReference:
    return FKReference(
        ref_table=draw(st.sampled_from(["S", "T", "dim"])),
        intervals=draw(interval_sets()),
    )


@st.composite
def summary_rows(draw) -> SummaryRow:
    values = draw(
        st.dictionaries(_column_names, _values, min_size=0, max_size=3)
    )
    fk_refs = draw(
        st.dictionaries(
            st.sampled_from(["S_fk", "T_fk"]), fk_references(), max_size=2
        )
    )
    return SummaryRow(count=draw(_counts), values=values, fk_refs=fk_refs)


def _loadable(row: SummaryRow) -> SummaryRow:
    """A row ``DatabaseSummary.from_dict`` accepts.

    No tuples without an FK target, and whole values on the toy schema's
    integer columns ``A`` / ``B`` (generation would truncate a fraction).
    """
    values = dict(row.values)
    for column in ("A", "B"):
        if column in values:
            values[column] = float(math.floor(values[column]))
    unreachable = any(ref.target_count() == 0 for ref in row.fk_refs.values())
    return SummaryRow(count=0 if unreachable else row.count, values=values, fk_refs=row.fk_refs)


@st.composite
def relation_summaries(draw) -> RelationSummary:
    return RelationSummary(
        table=draw(st.sampled_from(["R", "S", "T"])),
        rows=draw(st.lists(summary_rows(), max_size=6)),
    )


class TestFKReferenceRoundtrip:
    @given(fk_references())
    @settings(max_examples=200)
    def test_dict_roundtrip(self, reference):
        assert FKReference.from_dict(reference.to_dict()) == reference

    @given(fk_references())
    @settings(max_examples=100)
    def test_json_roundtrip(self, reference):
        payload = json.loads(json.dumps(reference.to_dict()))
        assert FKReference.from_dict(payload) == reference


class TestSummaryRowRoundtrip:
    @given(summary_rows())
    @settings(max_examples=200)
    def test_dict_roundtrip(self, row):
        assert SummaryRow.from_dict(row.to_dict()) == row

    @given(summary_rows())
    @settings(max_examples=100)
    def test_json_preserves_value_dtypes(self, row):
        """Float values survive the real JSON wire format bit-for-bit."""
        restored = SummaryRow.from_dict(json.loads(json.dumps(row.to_dict())))
        assert restored.count == row.count
        for column, value in row.values.items():
            assert restored.values[column] == value
            assert isinstance(restored.values[column], float)


class TestRelationSummaryRoundtrip:
    @given(relation_summaries())
    @settings(max_examples=100)
    def test_dict_roundtrip(self, relation):
        restored = RelationSummary.from_dict(relation.to_dict())
        assert restored == relation
        assert restored.total_rows == relation.total_rows

    @given(relation_summaries())
    @settings(max_examples=50)
    def test_offsets_rebuilt_after_roundtrip(self, relation):
        restored = RelationSummary.from_dict(
            json.loads(json.dumps(relation.to_dict()))
        )
        assert list(restored.cumulative_offsets) == list(relation.cumulative_offsets)


class TestDatabaseSummaryRoundtrip:
    @given(
        st.lists(summary_rows().map(_loadable), max_size=4),
        st.lists(summary_rows().map(_loadable), max_size=4),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50)
    def test_json_roundtrip(self, s_rows, t_rows, version):
        schema = toy_schema()
        summary = DatabaseSummary(
            schema=schema,
            relations={
                "S": RelationSummary(table="S", rows=s_rows),
                "T": RelationSummary(table="T", rows=t_rows),
            },
            build_info={"mode": "exact", "total_seconds": 0.25},
            version=version,
        )
        restored = DatabaseSummary.from_json(summary.to_json())
        assert restored.to_dict() == summary.to_dict()
        assert restored.version == version
        assert restored.extension_state is None
        assert list(restored.relations) == ["S", "T"]
        for name in summary.relations:
            assert restored.relations[name] == summary.relations[name]
        # Schema column dtypes survive (INTEGER stays discrete, FLOAT stays
        # continuous) — the dtype-preservation half of the contract.
        for table in schema:
            restored_table = restored.schema.table(table.name)
            for column in table.columns:
                assert (
                    restored_table.column(column.name).dtype.is_discrete
                    == column.dtype.is_discrete
                )

    @given(st.dictionaries(st.sampled_from(["a", "b"]), st.integers(), max_size=2))
    @settings(max_examples=25)
    def test_extension_state_roundtrip(self, state):
        summary = DatabaseSummary(schema=toy_schema(), extension_state=state)
        restored = DatabaseSummary.from_json(summary.to_json())
        assert restored.extension_state == state

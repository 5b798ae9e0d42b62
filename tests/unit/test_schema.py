"""Unit tests for repro.catalog.schema."""

from __future__ import annotations

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Schema, SchemaError, Table
from repro.catalog.types import FLOAT, INTEGER


def make_dim(name: str = "dim") -> Table:
    return Table(
        name=name,
        columns=[Column(f"{name}_pk", INTEGER), Column("attr", INTEGER)],
        primary_key=f"{name}_pk",
    )


def make_fact(dims: list[str]) -> Table:
    columns = [Column("fact_pk", INTEGER), Column("measure", FLOAT)]
    fks = []
    for dim in dims:
        columns.append(Column(f"{dim}_fk", INTEGER))
        fks.append(ForeignKey(column=f"{dim}_fk", ref_table=dim, ref_column=f"{dim}_pk"))
    return Table(name="fact", columns=columns, primary_key="fact_pk", foreign_keys=fks)


class TestTable:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=[Column("a", INTEGER), Column("a", INTEGER)])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=[Column("a", INTEGER)], primary_key="missing")

    def test_foreign_key_column_must_exist(self):
        with pytest.raises(SchemaError):
            Table(
                name="t",
                columns=[Column("a", INTEGER)],
                foreign_keys=[ForeignKey("b", "other", "other_pk")],
            )

    def test_column_lookup(self):
        table = make_dim()
        assert table.column("attr").dtype is INTEGER
        with pytest.raises(SchemaError):
            table.column("nope")

    def test_value_columns(self):
        fact = make_fact(["d1"])
        assert [c.name for c in fact.value_columns()] == ["measure", "d1_fk"]

    def test_foreign_key_for(self):
        fact = make_fact(["d1"])
        assert fact.foreign_key_for("d1_fk").ref_table == "d1"
        assert fact.foreign_key_for("measure") is None

    def test_serialisation_roundtrip(self):
        fact = make_fact(["d1", "d2"])
        restored = Table.from_dict(fact.to_dict())
        assert restored.name == fact.name
        assert restored.column_names == fact.column_names
        assert restored.primary_key == fact.primary_key
        assert len(restored.foreign_keys) == 2


class TestSchema:
    def test_from_tables_and_lookup(self):
        schema = Schema.from_tables([make_dim("d1"), make_fact(["d1"])])
        assert schema.has_table("fact")
        assert schema.table("d1").primary_key == "d1_pk"
        with pytest.raises(SchemaError):
            schema.table("missing")

    def test_invalid_fk_reference_detected(self):
        dim = Table(
            name="d1",
            columns=[Column("d1_pk", INTEGER)],
            primary_key="d1_pk",
        )
        bad_fact = Table(
            name="fact",
            columns=[Column("fact_pk", INTEGER), Column("d1_fk", INTEGER)],
            primary_key="fact_pk",
            foreign_keys=[ForeignKey("d1_fk", "d1", "not_a_column")],
        )
        with pytest.raises(SchemaError):
            Schema.from_tables([dim, bad_fact])

    def test_resolve_column_qualified_and_bare(self):
        schema = Schema.from_tables([make_dim("d1"), make_fact(["d1"])])
        table, column = schema.resolve_column("fact.measure")
        assert table.name == "fact" and column.name == "measure"
        table, column = schema.resolve_column("measure")
        assert table.name == "fact"

    def test_resolve_column_ambiguous(self):
        schema = Schema.from_tables([make_dim("d1"), make_dim("d2")])
        with pytest.raises(SchemaError):
            schema.resolve_column("attr")

    def test_topological_order_referenced_first(self):
        schema = Schema.from_tables([make_fact(["d1", "d2"]), make_dim("d1"), make_dim("d2")])
        order = schema.topological_order()
        assert order.index("d1") < order.index("fact")
        assert order.index("d2") < order.index("fact")

    def test_topological_order_detects_cycles(self):
        a = Table(
            name="a",
            columns=[Column("a_pk", INTEGER), Column("b_fk", INTEGER)],
            primary_key="a_pk",
            foreign_keys=[ForeignKey("b_fk", "b", "b_pk")],
        )
        b = Table(
            name="b",
            columns=[Column("b_pk", INTEGER), Column("a_fk", INTEGER)],
            primary_key="b_pk",
            foreign_keys=[ForeignKey("a_fk", "a", "a_pk")],
        )
        schema = Schema.from_tables([a, b])
        with pytest.raises(SchemaError):
            schema.topological_order()

    def test_referencing_tables(self):
        schema = Schema.from_tables([make_dim("d1"), make_fact(["d1"])])
        referencing = schema.referencing_tables("d1")
        assert len(referencing) == 1
        assert referencing[0][0].name == "fact"
        assert referencing[0][1].column == "d1_fk"

    def test_schema_roundtrip(self):
        schema = Schema.from_tables([make_dim("d1"), make_fact(["d1"])])
        restored = Schema.from_dict(schema.to_dict())
        assert set(restored.table_names) == set(schema.table_names)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_topological_order_is_networkx_order(self, data):
        # The order fixes relation order in every summary, so it must stay
        # the one networkx's topological sort gave: ties in schema order,
        # references in FK order, repeated edges once, unknown targets last.
        names = data.draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6, unique=True))
        tables = []
        for name in names:
            refs = data.draw(st.lists(st.sampled_from(names + ["ghost"]), max_size=4))
            tables.append(
                Table(
                    name=name,
                    columns=[Column(f"{name}_pk", INTEGER)]
                    + [Column(f"fk{i}", INTEGER) for i in range(len(refs))],
                    primary_key=f"{name}_pk",
                    foreign_keys=[
                        ForeignKey(f"fk{i}", ref, f"{ref}_pk") for i, ref in enumerate(refs)
                    ],
                )
            )
        schema = Schema.from_tables(tables)
        graph = networkx.DiGraph()
        graph.add_nodes_from(schema.tables)
        for table in tables:
            graph.add_edges_from((table.name, fk.ref_table) for fk in table.foreign_keys)
        try:
            expected = list(reversed(list(networkx.topological_sort(graph))))
        except networkx.NetworkXUnfeasible:
            with pytest.raises(SchemaError):
                schema.topological_order()
        else:
            assert schema.topological_order() == expected

"""Unit tests for the workload decomposition (preprocessor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.metadata import collect_metadata
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import INTEGER
from repro.client.extractor import AQPExtractor
from repro.core.errors import DecompositionError
from repro.core.preprocessor import decompose_workload
from repro.plans.aqp import AnnotatedQueryPlan
from repro.plans.logical import FilterNode, JoinNode, ScanNode
from repro.sql.predicates import Comparison
from repro.sql.parser import parse_query
from repro.sql.query import JoinCondition, Query
from repro.storage.database import Database
from repro.storage.table import TableData
from repro.workload.toy import FIGURE1_QUERY
from repro.workload.tpch import TPCHConfig, generate_tpch_database


@pytest.fixture(scope="module")
def toy_setup(request):
    database = request.getfixturevalue("toy_database")
    metadata = collect_metadata(database)
    extractor = AQPExtractor(database=database)
    return database, metadata, extractor


class TestFigure1Decomposition:
    def test_constraint_counts_per_relation(self, toy_database, toy_metadata):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="fig1")
        workload = decompose_workload([aqp], toy_metadata)
        # R receives: scan row count + two join constraints.
        assert len(workload.for_relation("R").constraints) == 3
        # S and T each receive: scan row count + their filter constraint.
        assert len(workload.for_relation("S").constraints) == 2
        assert len(workload.for_relation("T").constraints) == 2

    def test_join_constraints_are_on_the_fact(self, toy_database, toy_metadata):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="fig1")
        workload = decompose_workload([aqp], toy_metadata)
        r_constraints = [
            c for c in workload.for_relation("R").constraints if not c.predicate.is_trivial
        ]
        assert len(r_constraints) == 2
        # The deeper join constraint references both dimensions.
        references = sorted(len(c.predicate.references) for c in r_constraints)
        assert references == [1, 2]

    def test_filter_constraint_matches_observed_count(self, toy_database, toy_metadata):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="fig1")
        workload = decompose_workload([aqp], toy_metadata)
        s_filter = [
            c for c in workload.for_relation("S").constraints if not c.predicate.is_trivial
        ][0]
        filter_node = next(
            node for node in aqp.plan.iter_nodes()
            if isinstance(node, FilterNode) and node.table == "S"
        )
        assert s_filter.cardinality == filter_node.cardinality

    def test_row_counts_recorded(self, toy_metadata, toy_database):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="fig1")
        workload = decompose_workload([aqp], toy_metadata)
        assert workload.for_relation("R").row_count == toy_metadata.row_count("R")

    def test_every_table_present_even_unconstrained(self, toy_metadata, toy_database):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql("select * from S where S.A > 90", "?")
        # Rebuild with proper name argument.
        aqp = extractor.extract_sql("select * from S where S.A > 90", name="s_only")
        workload = decompose_workload([aqp], toy_metadata)
        assert set(workload.relations) == {"R", "S", "T"}
        assert workload.for_relation("T").constraints == []

    def test_total_constraints(self, toy_database, toy_metadata, toy_aqps):
        workload = decompose_workload(toy_aqps, toy_metadata)
        assert workload.total_constraints() > 0


class TestSnowflakeDecomposition:
    def test_two_level_borrowed_predicate(self):
        """A filter on customer reaches lineitem through orders (TPC-H chain)."""
        database = generate_tpch_database(TPCHConfig(scale=0.02, seed=5))
        metadata = collect_metadata(database)
        extractor = AQPExtractor(database=database)
        sql = (
            "select * from lineitem, orders, customer "
            "where lineitem.l_orderkey = orders.o_orderkey "
            "and orders.o_custkey = customer.c_custkey "
            "and customer.c_mktsegment = 'BUILDING' and orders.o_orderpriority <= 2"
        )
        aqp = extractor.extract_sql(sql, name="snowflake")
        workload = decompose_workload([aqp], metadata)

        lineitem = [
            c for c in workload.for_relation("lineitem").constraints
            if not c.predicate.is_trivial
        ]
        assert lineitem, "lineitem should receive a borrowed constraint"
        # The borrowed predicate nests: lineitem -> orders -> customer.
        nested = [
            c
            for c in lineitem
            if "l_orderkey" in c.predicate.reference_map
            and "o_custkey" in c.predicate.reference_map["l_orderkey"].predicate.reference_map
        ]
        assert nested, "the final join must nest the customer condition under orders"
        orders_ref = nested[-1].predicate.reference_map["l_orderkey"]
        assert orders_ref.table == "orders"
        assert orders_ref.predicate.reference_map["o_custkey"].table == "customer"
        customer_box = orders_ref.predicate.reference_map["o_custkey"].predicate.box
        assert "c_mktsegment" in customer_box.columns()


class TestErrors:
    def test_non_fk_join_rejected(self, toy_database, toy_metadata):
        # A join between S and T on non-key columns is outside the model.
        query = Query(
            name="bad",
            tables=["S", "T"],
            joins=[JoinCondition("S", "A", "T", "C")],
        )
        plan = JoinNode(
            left=ScanNode(table="S"),
            right=ScanNode(table="T"),
            condition=query.joins[0],
        )
        for node in plan.iter_nodes():
            node.cardinality = 1
        aqp = AnnotatedQueryPlan(query=query, plan=plan)
        with pytest.raises(DecompositionError):
            decompose_workload([aqp], toy_metadata)

    def test_fk_declared_onto_a_non_key_column_rejected(self):
        # fact.dim_code references dim.code, which is not dim's primary key:
        # regeneration writes every FK value as a referenced pk index, so the
        # join cannot be decomposed as if it followed an FK -> PK edge.
        dim = Table(
            name="dim",
            columns=[Column("dim_pk", INTEGER), Column("code", INTEGER)],
            primary_key="dim_pk",
        )
        fact = Table(
            name="fact",
            columns=[Column("fact_pk", INTEGER), Column("dim_code", INTEGER)],
            primary_key="fact_pk",
            foreign_keys=[ForeignKey("dim_code", "dim", "code")],
        )
        schema = Schema.from_tables([fact, dim])
        database = Database.from_table_data(
            schema,
            [
                TableData(dim, {"dim_pk": np.arange(4), "code": np.arange(4) * 10}),
                TableData(fact, {"fact_pk": np.arange(8), "dim_code": np.arange(8) % 4 * 10}),
            ],
        )
        aqp = AQPExtractor(database=database).extract_sql(
            "select count(*) from fact, dim where fact.dim_code = dim.code", name="non_key"
        )
        with pytest.raises(DecompositionError, match="not along a declared key/foreign-key edge"):
            decompose_workload([aqp], collect_metadata(database))

    def test_filter_above_join_attributed_to_anchor(self, toy_database, toy_metadata):
        """A filter that was not pushed below the join still decomposes correctly."""
        schema = toy_database.schema
        query = parse_query("select * from R, S where R.S_fk = S.S_pk", schema, name="q")
        join = JoinNode(
            left=ScanNode(table="R"),
            right=ScanNode(table="S"),
            condition=query.joins[0],
        )
        plan = FilterNode(child=join, table="S", predicate=Comparison("A", ">=", 5))
        for node in plan.iter_nodes():
            node.cardinality = 7
        aqp = AnnotatedQueryPlan(query=query, plan=plan)
        workload = decompose_workload([aqp], toy_metadata)
        top_constraints = [
            c
            for c in workload.for_relation("R").constraints
            if "S_fk" in c.predicate.reference_map
            and "A" in c.predicate.reference_map["S_fk"].predicate.box.columns()
        ]
        assert top_constraints and top_constraints[-1].cardinality == 7

    def test_filter_on_absent_table_rejected(self, toy_database, toy_metadata):
        schema = toy_database.schema
        query = parse_query("select * from S where S.A >= 5", schema, name="q")
        plan = FilterNode(
            child=ScanNode(table="S"), table="T", predicate=Comparison("C", ">=", 1)
        )
        for node in plan.iter_nodes():
            node.cardinality = 1
        aqp = AnnotatedQueryPlan(query=query, plan=plan)
        with pytest.raises(DecompositionError):
            decompose_workload([aqp], toy_metadata)

    def test_unannotated_nodes_are_skipped(self, toy_database, toy_metadata):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="fig1")
        aqp.plan.clear_annotations()
        workload = decompose_workload([aqp], toy_metadata)
        assert workload.total_constraints() == 0

    def test_multi_column_disjunctive_filter_raises_decomposition_error(
        self, toy_database, toy_metadata
    ):
        """Found by the differential fuzzer: box normalisation rejects a
        disjunction spanning two columns with a plain ValueError, which
        leaked through ``decompose_workload`` past every caller that
        handles the documented ``DecompositionError`` contract."""
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(
            "select count(*) from S where (S.A > 90 or S.B < 10)",
            name="multicol_or",
        )
        with pytest.raises(DecompositionError, match="normalised to a box"):
            decompose_workload([aqp], toy_metadata)

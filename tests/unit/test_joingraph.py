"""Tests for :mod:`repro.plans.joingraph` and the planner built on it.

Covers FK-edge classification, the anchor score, left-deep attachment order
(including redundant-edge dropping) and the planner error message that
names the offending join predicate of a disconnected query.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import INTEGER
from repro.plans.joingraph import JoinGraph, classify_fk_edge
from repro.plans.logical import JoinNode
from repro.plans.planner import PlannerError, build_plan, choose_anchor
from repro.sql.parser import parse_query
from repro.sql.query import DisjunctiveJoinCondition
from repro.workload.tpch import CHAIN_COUNT_QUERY, tpch_schema
from repro.workload.toy import (
    FIGURE1_DISJUNCTIVE_QUERY,
    FIGURE1_QUERY,
    toy_schema,
)


@pytest.fixture(scope="module")
def toy():
    return toy_schema()


@pytest.fixture(scope="module")
def tpch():
    return tpch_schema()


def _graph(sql, schema):
    query = parse_query(sql, schema)
    return JoinGraph.from_query(query), query


class TestClassifyFkEdge:
    def test_fk_equi_join_classifies_in_either_orientation(self, toy):
        for sql in (
            "select count(*) from R, S where R.S_fk = S.S_pk",
            "select count(*) from R, S where S.S_pk = R.S_fk",
        ):
            query = parse_query(sql, toy)
            assert classify_fk_edge(query.joins[0], toy) == ("R", "S_fk", "S", "S_pk")

    def test_non_fk_join_does_not_classify(self, tpch):
        query = parse_query(
            "select count(*) from part, supplier where part.p_partkey = supplier.s_suppkey",
            tpch,
        )
        assert classify_fk_edge(query.joins[0], tpch) is None

    def test_disjunctive_join_does_not_classify(self, toy):
        query = parse_query(FIGURE1_DISJUNCTIVE_QUERY, toy)
        condition = query.joins[0]
        assert isinstance(condition, DisjunctiveJoinCondition)
        assert classify_fk_edge(condition, toy) is None

    def test_fk_onto_a_non_key_column_does_not_classify(self):
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
        query = parse_query("select count(*) from fact, dim where fact.dim_code = dim.code", schema)
        assert classify_fk_edge(query.joins[0], schema) is None


class TestJoinGraph:
    def test_edges_are_the_query_join_conditions(self, toy):
        graph, query = _graph(FIGURE1_QUERY, toy)
        assert graph.tables == tuple(query.tables)
        assert graph.joins == tuple(query.joins)
        assert repr(graph) == "JoinGraph(tables=['R', 'S', 'T'], joins=2)"


class TestAnchorChoice:
    def test_fact_table_wins(self, tpch):
        graph, query = _graph(CHAIN_COUNT_QUERY, tpch)
        # orders is on the FK side of one join and participates in two.
        assert graph.referencing_score(tpch, "orders") == (1, 2)
        assert graph.referencing_score(tpch, "lineitem") == (1, 1)
        assert graph.referencing_score(tpch, "customer") == (0, 1)
        assert graph.choose_anchor(tpch) == "orders"
        assert choose_anchor(tpch, query) == "orders"

    def test_disjunctive_alternatives_count_once(self, toy):
        graph, _ = _graph(FIGURE1_DISJUNCTIVE_QUERY, toy)
        # Both alternatives put R on the FK side, but the edge scores once.
        assert graph.referencing_score(toy, "R") == (1, 1)
        assert graph.choose_anchor(toy) == "R"


class TestLeftDeepSteps:
    def test_attachment_order_matches_query_joins(self, tpch):
        graph, _ = _graph(CHAIN_COUNT_QUERY, tpch)
        steps = list(graph.left_deep_steps("orders"))
        assert [((c.left_table, c.right_table), new) for c, new in steps] == [
            (("lineitem", "orders"), "lineitem"),
            (("orders", "customer"), "customer"),
        ]

    def test_redundant_edge_yields_none(self, toy):
        graph, _ = _graph(
            "select count(*) from R, S where R.S_fk = S.S_pk and R.S_fk = S.S_pk",
            toy,
        )
        steps = list(graph.left_deep_steps("R"))
        assert [new for _, new in steps] == ["S", None]

    def test_redundant_edge_produces_single_join_node(self, toy):
        plan = build_plan(
            parse_query(
                "select count(*) from R, S where R.S_fk = S.S_pk and R.S_fk = S.S_pk",
                toy,
            ),
            toy,
        )
        joins = [node for node in plan.iter_nodes() if isinstance(node, JoinNode)]
        assert len(joins) == 1


class TestPlannerErrors:
    def test_disconnected_graph_error_names_predicate(self, tpch):
        query = parse_query(
            "select count(*) from orders, customer, part, supplier "
            "where orders.o_custkey = customer.c_custkey "
            "and part.p_partkey = supplier.s_suppkey",
            tpch,
        )
        with pytest.raises(PlannerError, match=r"part\.p_partkey = supplier\.s_suppkey"):
            build_plan(query, tpch)

    def test_cartesian_product_rejected(self, toy):
        query = parse_query("select count(*) from R, T where R.S_fk >= 1", toy)
        with pytest.raises(PlannerError, match="no join condition"):
            build_plan(query, toy)

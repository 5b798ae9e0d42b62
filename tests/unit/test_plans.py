"""Unit tests for plan nodes, the planner and AQP serialisation."""

from __future__ import annotations

import pytest

from repro.plans.aqp import AnnotatedQueryPlan
from repro.plans.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    ProjectNode,
    ScanNode,
    plan_from_dict,
)
from repro.plans.planner import PlannerError, build_plan, choose_anchor
from repro.sql.parser import parse_query
from repro.sql.query import JoinCondition, Query
from repro.workload.toy import FIGURE1_QUERY, toy_schema
from repro.workload.tpcds import tpcds_schema


@pytest.fixture()
def schema():
    return toy_schema()


class TestPlanNodes:
    def test_iter_nodes_preorder(self, schema):
        plan = build_plan(parse_query(FIGURE1_QUERY, schema), schema)
        nodes = list(plan.iter_nodes())
        assert isinstance(nodes[0], JoinNode)
        operators = [node.operator for node in nodes]
        assert operators.count("SCAN") == 3
        assert operators.count("FILTER") == 2
        assert operators.count("JOIN") == 2

    def test_output_tables(self, schema):
        plan = build_plan(parse_query(FIGURE1_QUERY, schema), schema)
        assert plan.output_tables() == {"R", "S", "T"}

    def test_clear_and_map_annotations(self, schema):
        plan = build_plan(parse_query("select * from S where S.A >= 3", schema), schema)
        for node in plan.iter_nodes():
            node.cardinality = 10
        plan.map_annotations(lambda node, card: card * 3)
        assert all(node.cardinality == 30 for node in plan.iter_nodes())
        plan.clear_annotations()
        assert all(node.cardinality is None for node in plan.iter_nodes())

    def test_pretty_contains_rows(self, schema):
        plan = build_plan(parse_query(FIGURE1_QUERY, schema), schema)
        assert "rows=?" in plan.pretty()

    def test_serialisation_roundtrip(self, schema):
        plan = build_plan(parse_query(FIGURE1_QUERY, schema), schema)
        for index, node in enumerate(plan.iter_nodes()):
            node.cardinality = index * 5
        restored = plan_from_dict(plan.to_dict())
        original = [(n.operator, n.cardinality) for n in plan.iter_nodes()]
        rebuilt = [(n.operator, n.cardinality) for n in restored.iter_nodes()]
        assert original == rebuilt

    def test_plan_from_dict_unknown_operator(self):
        with pytest.raises(ValueError):
            plan_from_dict({"operator": "SORT"})


class TestPlanner:
    def test_single_table_plan(self, schema):
        plan = build_plan(parse_query("select * from S where S.A >= 3", schema), schema)
        assert isinstance(plan, FilterNode)
        assert isinstance(plan.child, ScanNode)

    def test_single_table_no_filter(self, schema):
        plan = build_plan(parse_query("select * from T", schema), schema)
        assert isinstance(plan, ScanNode)

    def test_count_star_adds_aggregate(self, schema):
        plan = build_plan(parse_query("select count(*) from S where S.A > 1", schema), schema)
        assert isinstance(plan, AggregateNode)

    def test_projection_node(self, schema):
        plan = build_plan(parse_query("select A from S where S.A > 1", schema), schema)
        assert isinstance(plan, ProjectNode)

    def test_anchor_is_referencing_table(self, schema):
        query = parse_query(FIGURE1_QUERY, schema)
        assert choose_anchor(schema, query) == "R"

    def test_left_deep_shape(self, schema):
        plan = build_plan(parse_query(FIGURE1_QUERY, schema), schema)
        assert isinstance(plan, JoinNode)
        assert isinstance(plan.left, JoinNode)
        # The right input of every join is a single (possibly filtered) scan.
        assert plan.right.output_tables() in ({"S"}, {"T"})
        assert plan.left.right.output_tables() in ({"S"}, {"T"})

    def test_filters_pushed_to_scans(self, schema):
        plan = build_plan(parse_query(FIGURE1_QUERY, schema), schema)
        for node in plan.iter_nodes():
            if isinstance(node, FilterNode):
                assert isinstance(node.child, ScanNode)
                assert node.child.table == node.table

    def test_disconnected_join_graph_rejected(self, schema):
        query = Query(name="bad", tables=["R", "S", "T"], joins=[
            JoinCondition("R", "S_fk", "S", "S_pk")
        ])
        with pytest.raises(PlannerError):
            build_plan(query, schema)

    def test_cross_product_rejected(self, schema):
        query = Query(name="cross", tables=["S", "T"], joins=[])
        with pytest.raises(PlannerError):
            build_plan(query, schema)

    def test_deterministic_plans(self, schema):
        query = parse_query(FIGURE1_QUERY, schema)
        plan_a = build_plan(query, schema)
        plan_b = build_plan(query, schema)
        assert plan_a.to_dict()["operator"] == plan_b.to_dict()["operator"]
        a_ops = [n.operator for n in plan_a.iter_nodes()]
        b_ops = [n.operator for n in plan_b.iter_nodes()]
        assert a_ops == b_ops

    def test_star_query_on_tpcds(self):
        schema = tpcds_schema()
        sql = (
            "select * from store_sales, item, date_dim "
            "where store_sales.ss_item_sk = item.i_item_sk "
            "and store_sales.ss_sold_date_sk = date_dim.d_date_sk "
            "and item.i_category = 'Music' and date_dim.d_year = 2000"
        )
        plan = build_plan(parse_query(sql, schema), schema)
        assert choose_anchor(schema, parse_query(sql, schema)) == "store_sales"
        assert plan.output_tables() == {"store_sales", "item", "date_dim"}


class TestAnnotatedQueryPlan:
    def _aqp(self, schema) -> AnnotatedQueryPlan:
        query = parse_query(FIGURE1_QUERY, schema, name="fig1")
        plan = build_plan(query, schema)
        for index, node in enumerate(plan.iter_nodes()):
            node.cardinality = (index + 1) * 10
        return AnnotatedQueryPlan(query=query, plan=plan)

    def test_edges(self, schema):
        aqp = self._aqp(schema)
        assert len(aqp.edges()) == 7

    def test_json_roundtrip(self, schema):
        aqp = self._aqp(schema)
        restored = AnnotatedQueryPlan.from_json(aqp.to_json())
        assert restored.name == "fig1"
        assert [e.cardinality for e in restored.edges()] == [e.cardinality for e in aqp.edges()]
        assert restored.query.tables == aqp.query.tables

    def test_save_load(self, schema, tmp_path):
        aqp = self._aqp(schema)
        path = tmp_path / "aqp.json"
        aqp.save(path)
        assert AnnotatedQueryPlan.load(path).name == "fig1"

    def test_scale_annotations(self, schema):
        aqp = self._aqp(schema)
        scaled = aqp.scale_annotations(10)
        assert [e.cardinality for e in scaled.edges()] == [
            e.cardinality * 10 for e in aqp.edges()
        ]
        # the original is untouched
        assert aqp.edges()[0].cardinality == 10

    def test_inject_annotations(self, schema):
        aqp = self._aqp(schema)
        injected = aqp.inject_annotations({0: 999})
        assert list(injected.plan.iter_nodes())[0].cardinality == 999
        assert list(aqp.plan.iter_nodes())[0].cardinality != 999

    def test_pretty_contains_query_name(self, schema):
        aqp = self._aqp(schema)
        assert "fig1" in aqp.pretty()

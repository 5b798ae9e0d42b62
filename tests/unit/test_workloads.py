"""Unit tests for the synthetic schemas, data generators and workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.plans.planner import build_plan
from repro.workload.generator import (
    WorkloadConfig,
    WorkloadGenerator,
    generate_workload,
)
from repro.workload.toy import FIGURE1_QUERY, ToyConfig, generate_toy_database, toy_schema
from repro.workload.tpcds import TPCDSConfig, tpcds_schema
from repro.workload.tpch import TPCHConfig, tpch_schema
from repro.sql.parser import parse_query


class TestToy:
    def test_schema_matches_figure1(self):
        schema = toy_schema()
        assert set(schema.table_names) == {"R", "S", "T"}
        assert {fk.ref_table for fk in schema.table("R").foreign_keys} == {"S", "T"}

    def test_database_sizes(self):
        database = generate_toy_database(ToyConfig(r_rows=100, s_rows=20, t_rows=5))
        assert database.row_count("R") == 100
        assert database.row_count("S") == 20
        assert database.row_count("T") == 5

    def test_referential_integrity(self):
        database = generate_toy_database(ToyConfig(r_rows=500, s_rows=50, t_rows=10))
        r = database.table_data("R")
        assert r.column("S_fk").max() < 50
        assert r.column("S_fk").min() >= 0
        assert r.column("T_fk").max() < 10

    def test_figure1_query_parses(self):
        schema = toy_schema()
        query = parse_query(FIGURE1_QUERY, schema)
        assert set(query.tables) == {"R", "S", "T"}

    def test_determinism(self):
        a = generate_toy_database(ToyConfig(r_rows=100, seed=5))
        b = generate_toy_database(ToyConfig(r_rows=100, seed=5))
        assert np.array_equal(a.table_data("R").column("S_fk"), b.table_data("R").column("S_fk"))


class TestTPCDS:
    def test_schema_shape(self):
        schema = tpcds_schema()
        assert {"store_sales", "web_sales", "catalog_sales", "item", "customer",
                "date_dim", "store"} == set(schema.table_names)
        assert len(schema.table("store_sales").foreign_keys) == 4
        order = schema.topological_order()
        assert order.index("item") < order.index("store_sales")

    def test_scale_controls_sizes(self):
        small = TPCDSConfig(scale=0.05)
        large = TPCDSConfig(scale=0.5)
        assert large.store_sales_rows > small.store_sales_rows
        assert small.date_rows == large.date_rows  # calendar does not scale

    def test_database_fk_integrity(self, tpcds_database):
        fact = tpcds_database.table_data("store_sales")
        assert fact.column("ss_item_sk").max() < tpcds_database.row_count("item")
        assert fact.column("ss_customer_sk").max() < tpcds_database.row_count("customer")

    def test_item_columns_match_paper_example(self):
        schema = tpcds_schema()
        names = schema.table("item").column_names
        for expected in ("i_manager_id", "i_class", "i_category"):
            assert expected in names

    def test_item_categories_decode(self, tpcds_database):
        item = tpcds_database.table_data("item")
        decoded = item.row(0, decoded=True)
        category_index = item.table.column_names.index("i_category")
        assert isinstance(decoded[category_index], str)


class TestTPCH:
    def test_schema_snowflake_chain(self):
        schema = tpch_schema()
        lineitem = schema.table("lineitem")
        assert {fk.ref_table for fk in lineitem.foreign_keys} == {"orders", "part", "supplier"}
        orders = schema.table("orders")
        assert orders.foreign_keys[0].ref_table == "customer"
        order = schema.topological_order()
        assert order.index("customer") < order.index("orders") < order.index("lineitem")

    def test_database_sizes_and_integrity(self, tpch_database):
        assert tpch_database.row_count("lineitem") == TPCHConfig(scale=0.1).lineitem_rows
        lineitem = tpch_database.table_data("lineitem")
        assert lineitem.column("l_orderkey").max() < tpch_database.row_count("orders")


class TestWorkloadGenerator:
    def test_generates_requested_count(self, tpcds_metadata):
        queries = generate_workload(tpcds_metadata, WorkloadConfig(num_queries=25, seed=1))
        assert len(queries) == 25
        assert len({q.name for q in queries}) == 25

    def test_queries_are_distinct(self, tpcds_workload):
        signatures = set()
        for query in tpcds_workload:
            signature = (
                tuple(sorted(query.tables)),
                tuple(sorted(repr(p) for p in query.filters.values())),
            )
            signatures.add(signature)
        assert len(signatures) == len(tpcds_workload)

    def test_queries_validate_and_plan(self, tpcds_metadata, tpcds_workload):
        schema = tpcds_metadata.schema
        for query in tpcds_workload:
            query.validate(schema)
            plan = build_plan(query, schema)
            assert plan.output_tables() == set(query.tables)

    def test_star_join_structure(self, tpcds_metadata, tpcds_workload):
        fact_names = {"store_sales", "web_sales", "catalog_sales"}
        for query in tpcds_workload:
            facts = [t for t in query.tables if t in fact_names]
            assert len(facts) == 1
            # every join connects the fact to one of its dimensions
            for join in query.joins:
                assert facts[0] in (join.left_table, join.right_table)

    def test_workload_spreads_over_fact_tables(self, tpcds_metadata):
        queries = generate_workload(tpcds_metadata, WorkloadConfig(num_queries=60, seed=9))
        facts = {"store_sales", "web_sales", "catalog_sales"}
        used_facts = {table for query in queries for table in query.tables if table in facts}
        assert len(used_facts) >= 2

    def test_filters_reference_existing_columns(self, tpcds_metadata, tpcds_workload):
        schema = tpcds_metadata.schema
        for query in tpcds_workload:
            for table, predicate in query.filters.items():
                for column in predicate.columns():
                    assert schema.table(table).has_column(column)

    def test_deterministic_given_seed(self, tpcds_metadata):
        a = generate_workload(tpcds_metadata, WorkloadConfig(num_queries=10, seed=4))
        b = generate_workload(tpcds_metadata, WorkloadConfig(num_queries=10, seed=4))
        assert [q.sql for q in a] == [q.sql for q in b]

    def test_too_many_queries_raises(self, toy_metadata):
        config = WorkloadConfig(num_queries=500, templates_per_dimension=2, seed=0)
        with pytest.raises(ValueError):
            WorkloadGenerator(metadata=toy_metadata, config=config).generate()

    def test_works_on_toy_schema(self, toy_metadata):
        queries = generate_workload(toy_metadata, WorkloadConfig(num_queries=5, seed=2))
        assert len(queries) == 5
        for query in queries:
            assert query.tables[0] == "R"

    def test_works_on_tpch_schema(self, tpch_metadata):
        queries = generate_workload(
            tpch_metadata, WorkloadConfig(num_queries=15, seed=3, templates_per_dimension=3)
        )
        assert len(queries) == 15
        anchors = {query.tables[0] for query in queries}
        assert anchors <= {"lineitem", "orders"}

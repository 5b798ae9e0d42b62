"""End-to-end tests for SUM/AVG aggregates, multi-way FK chains and
disjunctive join predicates.

Every aggregate is checked against a numpy oracle on the materialised
client database, then across all engine routes (the ``engine_routes``
fixture: materialised, streaming, default) of the regenerated vendor
database, asserting ``aggregate_route`` and the zero-generation contract
of the summary route.  A hand-built
three-relation chain summary pins down the multi-way fast path exactly;
the ``VolumetricComparator`` closes the loop on AQP annotations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.catalog.metadata import collect_metadata
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.client.extractor import AQPExtractor
from repro.core.errors import DecompositionError
from repro.core.pipeline import Hydra
from repro.core.preprocessor import decompose_workload
from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation
from repro.executor.engine import ExecutionEngine
from repro.plans.planner import build_plan
from repro.sql.parser import parse_query
from repro.sql.predicates import Interval, IntervalSet
from repro.storage.database import Database
from repro.verify.comparator import VolumetricComparator
from repro.workload.tpch import CHAIN_COUNT_QUERY, TPCHConfig, generate_tpch_database
from repro.workload.toy import (
    FIGURE1_AVG_QUERY,
    FIGURE1_DISJUNCTIVE_QUERY,
    FIGURE1_SUM_QUERY,
    ToyConfig,
    generate_toy_database,
)

WORKLOAD_SQLS = [
    ("sum_b", FIGURE1_SUM_QUERY),
    ("avg_b", FIGURE1_AVG_QUERY),
    ("join_count", "select count(*) from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 30"),
]


@pytest.fixture(scope="module")
def client_database():
    return generate_toy_database(ToyConfig(r_rows=4000, s_rows=400, t_rows=40, seed=5))


@pytest.fixture(scope="module")
def client_aqps(client_database):
    extractor = AQPExtractor(database=client_database)
    queries = [
        parse_query(sql, client_database.schema, name=name) for name, sql in WORKLOAD_SQLS
    ]
    return extractor.extract_workload(queries)


@pytest.fixture(scope="module")
def vendor_database(client_database, client_aqps):
    hydra = Hydra(metadata=collect_metadata(client_database))
    result = hydra.build_summary(client_aqps)
    return hydra.regenerate(result.summary)


@pytest.fixture(scope="module")
def vendor_routes(vendor_database, engine_routes):
    return engine_routes(vendor_database)


def _run(route, sql):
    """Plan and execute ``sql`` on a database or a ``(database, execute)`` route."""
    if not isinstance(route, tuple):
        route = route, ExecutionEngine(database=route).execute
    database, execute = route
    return execute(build_plan(parse_query(sql, database.schema), database.schema))


def _column(database, table, column):
    return np.asarray(database.provider(table).column(column))


class TestSumAvgOracle:
    def test_sum_matches_numpy(self, client_database):
        a = _column(client_database, "S", "A")
        b = _column(client_database, "S", "B")
        expected = math.fsum(b[(a >= 20) & (a < 60)].astype(np.float64).tolist())
        result = _run(client_database, FIGURE1_SUM_QUERY)
        assert float(result.column("sum")[0]) == expected

    def test_avg_matches_numpy(self, client_database):
        a = _column(client_database, "S", "A")
        b = _column(client_database, "S", "B")
        selected = b[(a >= 20) & (a < 60)].astype(np.float64)
        expected = math.fsum(selected.tolist()) / len(selected)
        result = _run(client_database, FIGURE1_AVG_QUERY)
        assert float(result.column("avg")[0]) == expected

    def test_avg_of_empty_selection_is_zero(self, client_database):
        result = _run(client_database, "select avg(B) from S where S.A >= 500")
        assert float(result.column("avg")[0]) == 0.0


class TestSumAvgRoutes:
    @pytest.mark.parametrize("sql", [FIGURE1_SUM_QUERY, FIGURE1_AVG_QUERY])
    def test_routes_bit_identical(self, sql, vendor_routes):
        results = {name: _run(route, sql) for name, route in vendor_routes.items()}
        function = sql.split("(")[0].split()[-1]
        base = results["materialised"].column(function)
        for name, result in results.items():
            assert list(result.columns) == [function], name
            assert result.column(function).dtype == base.dtype, name
            assert float(result.column(function)[0]) == float(base[0]), name

    def test_summary_route_generates_nothing_on_vendor(self, vendor_routes):
        result = _run(vendor_routes["default"], FIGURE1_SUM_QUERY)
        assert result.aggregate_route == "summary"
        assert result.scanned_rows == 0

    def test_materialised_route_is_reported(self, vendor_routes):
        result = _run(vendor_routes["materialised"], FIGURE1_SUM_QUERY)
        assert result.aggregate_route == "streaming"
        assert result.fallback_reasons == ["not-summary-backed"]
        assert result.scanned_rows > 0

    def test_sum_over_primary_key_uses_interval_arithmetic(self, vendor_routes):
        sql = "select sum(S_pk) from S where S.S_pk >= 100 and S.S_pk < 300"
        fast = _run(vendor_routes["default"], sql)
        slow = _run(vendor_routes["streaming"], sql)
        # Regenerated primary keys are always 0..N-1, so the answer is the
        # exact arithmetic series regardless of the summary's region layout.
        assert float(fast.column("sum")[0]) == float(sum(range(100, 300)))
        assert float(fast.column("sum")[0]) == float(slow.column("sum")[0])
        assert fast.aggregate_route == "summary"
        assert fast.scanned_rows == 0


class TestChainCount:
    @pytest.fixture(scope="class")
    def tpch_client(self):
        return generate_tpch_database(TPCHConfig(scale=0.02, seed=11))

    @pytest.fixture(scope="class")
    def tpch_vendor(self, tpch_client):
        extractor = AQPExtractor(database=tpch_client)
        aqps = [extractor.extract_sql(CHAIN_COUNT_QUERY, name="chain")]
        hydra = Hydra(metadata=collect_metadata(tpch_client))
        result = hydra.build_summary(aqps)
        return hydra.regenerate(result.summary)

    def test_client_chain_matches_numpy(self, tpch_client):
        segment = _column(tpch_client, "customer", "c_mktsegment")
        building = tpch_client.schema.table("customer").column("c_mktsegment")
        encoded = building.dtype.encode("BUILDING")
        custkeys = np.flatnonzero(segment == encoded)
        o_custkey = _column(tpch_client, "orders", "o_custkey")
        order_ok = np.isin(o_custkey, custkeys)
        l_orderkey = _column(tpch_client, "lineitem", "l_orderkey")
        expected = int(order_ok[l_orderkey].sum())
        result = _run(tpch_client, CHAIN_COUNT_QUERY)
        assert int(result.column("count")[0]) == expected

    def test_chain_routes_agree(self, tpch_vendor, engine_routes):
        results = {
            name: _run(route, CHAIN_COUNT_QUERY)
            for name, route in engine_routes(tpch_vendor).items()
        }
        counts = {name: int(result.column("count")[0]) for name, result in results.items()}
        assert len(set(counts.values())) == 1, counts
        assert results["default"].aggregate_route == "summary"
        assert results["default"].scanned_rows == 0


def _dataless_chain():
    """A 3-relation FK chain whose mid-chain restriction is all-or-nothing.

    ``fact -> mid -> dim`` with a filter on ``dim`` that each ``mid`` region
    either fully satisfies or fully misses, so the multi-way COUNT fast path
    can fold the restriction bottom-up without generating a single tuple.
    """
    dim = Table(
        name="dim",
        columns=[Column("dim_pk", INTEGER), Column("price", FLOAT)],
        primary_key="dim_pk",
    )
    mid = Table(
        name="mid",
        columns=[Column("mid_pk", INTEGER), Column("dim_fk", INTEGER), Column("weight", FLOAT)],
        primary_key="mid_pk",
        foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
    )
    fact = Table(
        name="fact",
        columns=[Column("fact_pk", INTEGER), Column("mid_fk", INTEGER), Column("qty", INTEGER)],
        primary_key="fact_pk",
        foreign_keys=[ForeignKey("mid_fk", "mid", "mid_pk")],
    )
    schema = Schema.from_tables([fact, mid, dim])
    summary = DatabaseSummary(schema=schema)
    summary.add_relation(
        RelationSummary(
            table="dim",
            rows=[
                SummaryRow(count=60, values={"price": 10.0}),
                SummaryRow(count=40, values={"price": 90.0}),
            ],
        )
    )
    summary.add_relation(
        RelationSummary(
            table="mid",
            rows=[
                SummaryRow(
                    count=30,
                    values={"weight": 1.0},
                    fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(0, 60)]))},
                ),
                SummaryRow(
                    count=20,
                    values={"weight": 2.0},
                    fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(60, 100)]))},
                ),
            ],
        )
    )
    summary.add_relation(
        RelationSummary(
            table="fact",
            rows=[
                SummaryRow(
                    count=500,
                    values={"qty": 3.0},
                    fk_refs={"mid_fk": FKReference("mid", IntervalSet([Interval(0, 30)]))},
                ),
                SummaryRow(
                    count=250,
                    values={"qty": 8.0},
                    fk_refs={"mid_fk": FKReference("mid", IntervalSet([Interval(30, 50)]))},
                ),
                # Straddles both mid regions: the root row is counted through
                # the round-robin prefix arithmetic, not all-or-nothing.
                SummaryRow(
                    count=100,
                    values={"qty": 5.0},
                    fk_refs={"mid_fk": FKReference("mid", IntervalSet([Interval(0, 50)]))},
                ),
            ],
        )
    )
    summary.validate()
    database = Database(schema=schema, providers={})
    for name in ("fact", "mid", "dim"):
        generator = TupleGenerator(table=schema.table(name), summary=summary.relation(name))
        database.attach(name, DataGenRelation(source=generator))
    return database


CHAIN_SQL = (
    "select count(*) from fact, mid, dim "
    "where fact.mid_fk = mid.mid_pk and mid.dim_fk = dim.dim_pk and dim.price >= 50"
)


class TestChainFastPath:
    @pytest.fixture()
    def chain_database(self):
        return _dataless_chain()

    def test_summary_route_counts_without_generating(self, chain_database):
        result = _run(chain_database, CHAIN_SQL)
        assert result.aggregate_route == "summary"
        assert result.scanned_rows == 0
        # 250 fully-matching fact tuples plus 40 of the straddling region's
        # 100 tuples (round-robin over [0,50): 20 allowed targets hit twice).
        assert int(result.column("count")[0]) == 290

    @pytest.mark.parametrize("name", ["materialised", "streaming"])
    def test_executing_routes_agree(self, chain_database, engine_routes, name):
        fast = _run(chain_database, CHAIN_SQL)
        slow = _run(engine_routes(chain_database)[name], CHAIN_SQL)
        assert slow.aggregate_route != "summary"
        assert slow.scanned_rows > 0
        assert int(slow.column("count")[0]) == int(fast.column("count")[0])

    def test_annotations_match_across_routes(self, chain_database, engine_routes):
        plans = {}
        for name, (database, execute) in engine_routes(chain_database).items():
            plan = build_plan(parse_query(CHAIN_SQL, database.schema), database.schema)
            execute(plan)
            plans[name] = [node.cardinality for node in plan.iter_nodes()]
        assert plans["materialised"] == plans["streaming"] == plans["default"]


class TestDisjunctiveJoin:
    def _pair_oracle(self, database):
        r_s = _column(database, "R", "S_fk")
        r_t = _column(database, "R", "T_fk")
        a = _column(database, "S", "A")
        ok = a < 50
        # Each R row pairs with every S row matching either alternative; the
        # two alternatives hit the same S row only when S_fk == T_fk.
        via_s = ok[r_s]
        via_t = ok[r_t]
        both_same = (r_s == r_t) & via_s
        return int(via_s.sum() + via_t.sum() - both_same.sum())

    def test_count_matches_pair_oracle(self, client_database):
        expected = self._pair_oracle(client_database)
        result = _run(client_database, FIGURE1_DISJUNCTIVE_QUERY)
        assert int(result.column("count")[0]) == expected

    def test_all_routes_agree(self, vendor_routes):
        # A disjunctive join is the one build/probe join with a key pair per
        # alternative: a dataless input streams like any other probe side
        # (shape x attachment table: test_join_pushdown.py::TestOneJoin).
        results = {
            name: _run(route, FIGURE1_DISJUNCTIVE_QUERY) for name, route in vendor_routes.items()
        }
        counts = {name: int(result.column("count")[0]) for name, result in results.items()}
        assert len(set(counts.values())) == 1, counts
        for name, result in results.items():
            expected = (
                ("join", "materializing", "no-streamable-leaf")
                if name == "materialised"
                else ("join", "streaming", None)
            )
            assert expected in [
                (event.kind, event.route, event.reason) for event in result.route_events
            ], name

    def test_decomposition_rejects_disjunctive_joins(self, client_database):
        extractor = AQPExtractor(database=client_database)
        aqp = extractor.extract_sql(FIGURE1_DISJUNCTIVE_QUERY, name="disjunctive")
        with pytest.raises(DecompositionError, match="disjunctive"):
            decompose_workload([aqp], collect_metadata(client_database))


class TestVolumetricVerification:
    def test_comparator_is_route_independent(self, vendor_routes, client_aqps):
        outcomes = {
            name: VolumetricComparator(database=vendor_routes[name][0]).verify(client_aqps)
            for name in ("materialised", "default")
        }
        base = outcomes["materialised"].comparisons
        assert base, "expected at least one volumetric constraint"
        assert outcomes["default"].comparisons == base

    def test_aggregate_annotations_are_exact_on_vendor(self, vendor_database, client_aqps):
        result = VolumetricComparator(database=vendor_database).verify(client_aqps)
        assert result.max_relative_error() == 0.0

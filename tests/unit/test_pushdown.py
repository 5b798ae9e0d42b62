"""Tests for streaming pushdown scans and the summary-fast-path for counts.

Covers the planner's pushdown analysis, route equivalence (materialised vs
streaming vs summary; see the ``engine_routes`` fixture) on both the client
and the regenerated database, the exact summary counting machinery, and the
satellite bugfix regressions of this PR.
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np
import pytest

from repro.catalog.metadata import collect_metadata
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.client.extractor import AQPExtractor
from repro.core.errors import SummaryError
from repro.core.pipeline import Hydra
from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation
from repro.executor.engine import ExecutionEngine, ExecutionResult
from repro.executor.rate import RateLimiter
from repro.plans.logical import AggregateNode, FilterNode, JoinNode, ScanNode, plan_from_dict
from repro.plans.planner import build_plan, compute_pushdowns
from repro.sql.predicates import BoxCondition, Comparison, Interval, IntervalSet
from repro.sql.parser import parse_query
from repro.sql.query import JoinCondition
from repro.storage.database import Database
from repro.workload.toy import FIGURE1_QUERY, ToyConfig, generate_toy_database

from aggregate_reference import stream_aggregate


@pytest.fixture(scope="module")
def client_database():
    return generate_toy_database(ToyConfig(r_rows=4000, s_rows=400, t_rows=40, seed=5))


WORKLOAD_SQLS = [
    ("figure1", FIGURE1_QUERY),
    ("count_s", "select count(*) from S where S.A >= 10 and S.A < 30"),
    ("count_t_float", "select count(*) from T where T.C >= 5"),
    ("count_r_fk", "select count(*) from R where R.S_fk >= 100 and R.S_fk < 300"),
    ("count_r_all", "select count(*) from R"),
    ("count_s_two_cols", "select count(*) from S where S.A >= 20 and S.B < 25"),
    ("project_s", "select A, B from S where S.A >= 10"),
    ("count_join", "select count(*) from R, S where R.S_fk = S.S_pk and S.B < 25"),
]


@pytest.fixture(scope="module")
def client_aqps(client_database):
    extractor = AQPExtractor(database=client_database)
    queries = [
        parse_query(sql, client_database.schema, name=name)
        for name, sql in WORKLOAD_SQLS
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


def _execute_routes(routes, plan):
    """Run one plan along the materialised, streaming and default routes."""
    outcomes = []
    for _database, execute in routes.values():
        cloned = plan_from_dict(plan.to_dict())
        cloned.clear_annotations()
        result = execute(cloned)
        outcomes.append(
            (
                [node.cardinality for node in cloned.iter_nodes()],
                result.row_count,
                result.scanned_rows,
                {name: values.tolist() for name, values in result.columns.items()},
            )
        )
    return outcomes


def _scan_columns(plan, schema):
    """``{table: output columns}`` of every scan of ``plan``."""
    pushdowns = compute_pushdowns(plan, schema)
    return {
        node.table: pushdowns[node.node_id]
        for node in plan.iter_nodes()
        if isinstance(node, ScanNode)
    }


class TestComputePushdowns:
    def test_count_star_drops_the_fused_filter_columns(self, client_database):
        query = parse_query(
            "select count(*) from S where S.A >= 10 and S.A < 30",
            client_database.schema,
        )
        plan = build_plan(query, client_database.schema)
        # A is only read by the filter fused into the scan: nothing survives it.
        assert _scan_columns(plan, client_database.schema) == {"S": ()}

    def test_select_star_keeps_all_columns(self, client_database):
        query = parse_query("select * from S where S.A >= 10", client_database.schema)
        plan = build_plan(query, client_database.schema)
        assert _scan_columns(plan, client_database.schema) == {"S": None}

    def test_join_keys_and_projection_are_required(self, client_database):
        query = parse_query(
            "select A from R, S where R.S_fk = S.S_pk and S.B < 25",
            client_database.schema,
        )
        plan = build_plan(query, client_database.schema)
        by_table = _scan_columns(plan, client_database.schema)
        assert by_table["R"] == ("S_fk",)
        # B is only referenced by the pushed filter: generated, not output.
        assert set(by_table["S"]) == {"S_pk", "A"}

    def test_a_filter_above_its_scan_keeps_its_columns(self, client_database):
        schema = client_database.schema
        plan = AggregateNode(
            child=FilterNode(
                child=JoinNode(
                    left=ScanNode(table="R"),
                    right=ScanNode(table="S"),
                    condition=JoinCondition("R", "S_fk", "S", "S_pk"),
                ),
                table="S",
                predicate=Comparison("B", "<", 25),
            ),
            function="count",
        )
        assert _scan_columns(plan, schema) == {"R": ("S_fk",), "S": ("S_pk", "B")}

    def test_plain_scan_outputs_every_column(self, client_database):
        scan = ScanNode(table="S")
        assert compute_pushdowns(scan, client_database.schema) == {scan.node_id: None}


class TestRouteEquivalence:
    def test_client_database_reproduces_its_own_annotations(self, client_database, client_aqps):
        # Every provider is materialised: the engine's aggregate and one
        # taken over the executed child must agree, and re-execution is
        # deterministic.
        routes = {
            "streaming": (client_database, partial(stream_aggregate, client_database)),
            "default": (client_database, ExecutionEngine(database=client_database).execute),
        }
        for aqp in client_aqps:
            expected = [node.cardinality for node in aqp.plan.iter_nodes()]
            for cards, _rows, scanned, _columns in _execute_routes(routes, aqp.plan):
                assert cards == expected, aqp.name
                assert scanned > 0, aqp.name

    def test_routes_agree_on_regenerated_database(self, vendor_routes, client_aqps):
        for aqp in client_aqps:
            materialised, streaming, default = _execute_routes(vendor_routes, aqp.plan)
            # Annotations, row count, column order and every value.
            assert materialised[0] == streaming[0] == default[0], aqp.name
            assert materialised[1] == streaming[1] == default[1], aqp.name
            assert list(materialised[3]) == list(streaming[3]) == list(default[3]), aqp.name
            assert materialised[3] == streaming[3] == default[3], aqp.name

    def test_summary_route_count_scans_zero_rows(self, vendor_routes, client_aqps):
        summary_counts = {
            "count_s", "count_t_float", "count_r_fk", "count_r_all", "count_s_two_cols"
        }
        for aqp in client_aqps:
            if aqp.name not in summary_counts:
                continue
            materialised, streaming, default = _execute_routes(vendor_routes, aqp.plan)
            assert default[2] == 0, aqp.name
            assert streaming[2] <= materialised[2], aqp.name

    def test_streaming_filtered_scan_generates_only_needed_columns(self, vendor_database):
        schema = vendor_database.schema
        plan = build_plan(
            parse_query("select count(*) from S where S.A >= 10", schema), schema
        )
        provider = vendor_database.provider("S")
        before = provider.stats.rows_generated
        result = stream_aggregate(vendor_database, plan)
        generated = provider.stats.rows_generated - before
        # Only the matching summary-row segments were generated, and only once.
        assert generated <= provider.row_count
        assert result.scanned_rows == generated


class TestSummaryCounting:
    def test_fk_matched_matches_brute_force(self, fk_targets_oracle, fk_matched):
        def brute_force(ref: FKReference, num_offsets: int, allowed: IntervalSet) -> int:
            targets = fk_targets_oracle(ref, np.arange(num_offsets, dtype=np.int64))
            return int(allowed.membership_mask(targets.astype(np.float64)).sum())

        ref = FKReference("dim", IntervalSet([Interval(0, 3), Interval(10, 14)]))
        cases = [
            IntervalSet([Interval(0, 2)]),
            IntervalSet([Interval(1, 12)]),
            IntervalSet([Interval(11, 100)]),
            IntervalSet([Interval(-5, 0.5)]),
            IntervalSet.everything(),
            IntervalSet.empty(),
        ]
        for allowed in cases:
            for num in (0, 1, 3, 7, 14, 15, 50):
                expected = brute_force(ref, num, allowed) if num else 0
                assert fk_matched(ref, 0, num, allowed) == expected, (allowed, num)

    def test_count_matching_value_and_pk(self):
        summary = RelationSummary(
            table="dim",
            rows=[
                SummaryRow(count=10, values={"price": 5.0}),
                SummaryRow(count=20, values={"price": 9.0}),
            ],
        )
        box = BoxCondition({"price": IntervalSet([Interval(4.0, 6.0)])})
        assert summary.count_matching(box, pk_column="dim_pk") == 10
        pk_box = BoxCondition({"dim_pk": IntervalSet([Interval(5.0, 25.0)])})
        assert summary.count_matching(pk_box, pk_column="dim_pk") == 20
        assert summary.count_matching(BoxCondition({}), pk_column="dim_pk") == 30

    def test_count_matching_fk_partial_is_exact(self):
        summary = RelationSummary(
            table="fact",
            rows=[
                SummaryRow(
                    count=10,
                    fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(0, 4)]))},
                )
            ],
        )
        table = Table(
            name="fact",
            columns=[Column("fact_pk", INTEGER), Column("dim_fk", INTEGER)],
            primary_key="fact_pk",
            foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
        )
        generator = TupleGenerator(table=table, summary=summary)
        box = BoxCondition({"dim_fk": IntervalSet([Interval(1.0, 3.0)])})
        block = generator.generate_block(0, 10)
        expected = int(box.evaluate(block).sum())
        assert summary.count_matching(box, pk_column="fact_pk") == expected

    def test_count_matching_pk_window_plus_one_partial_fk_is_exact(self, engine_routes):
        summary = RelationSummary(
            table="fact",
            rows=[
                SummaryRow(
                    count=10,
                    fk_refs={
                        "dim_fk": FKReference("dim", IntervalSet([Interval(0, 4)])),
                        "other_fk": FKReference("other", IntervalSet([Interval(0, 3)])),
                    },
                )
            ],
        )
        table = Table(
            name="fact",
            columns=[
                Column("fact_pk", INTEGER), Column("dim_fk", INTEGER), Column("other_fk", INTEGER)
            ],
            primary_key="fact_pk",
            foreign_keys=[
                ForeignKey("dim_fk", "dim", "dim_pk"), ForeignKey("other_fk", "other", "other_pk")
            ],
        )
        block = TupleGenerator(table=table, summary=summary).generate_block(0, 10)
        box = BoxCondition(
            {
                "dim_fk": IntervalSet([Interval(1.0, 3.0)]),
                "fact_pk": IntervalSet([Interval(2.0, 9.0)]),
            }
        )
        expected = int(box.evaluate(block).sum())
        assert 0 < expected < 7  # both constraints really are partial
        assert summary.count_matching(box, pk_column="fact_pk") == expected
        # Two partial FK columns stay correlated through the tuple offset.
        two_fks = BoxCondition(
            {
                "dim_fk": IntervalSet([Interval(1.0, 3.0)]),
                "other_fk": IntervalSet([Interval(0.0, 2.0)]),
            }
        )
        assert summary.count_matching(two_fks, pk_column="fact_pk") is None
        # Two spreads over 5 targets each, on a row of 2 tuples: a box
        # admitting the 2 targets both reach matches every tuple, so neither
        # spread is partial and the count — and the summary route — is exact.
        targets = ("dim", "other")
        schema = Schema.from_tables(
            [table]
            + [Table(name=t, columns=[Column(f"{t}_pk", INTEGER)], primary_key=f"{t}_pk")
               for t in targets]
        )
        spreads = {f"{t}_fk": FKReference(t, IntervalSet([Interval(0, 5)])) for t in targets}
        relations = {
            "fact": RelationSummary(table="fact", rows=[SummaryRow(count=2, fk_refs=spreads)]),
            **{t: RelationSummary(table=t, rows=[SummaryRow(count=5)]) for t in targets},
        }
        reached = BoxCondition(
            {column: IntervalSet([Interval(0.0, 2.0)]) for column in ("dim_fk", "other_fk")}
        )
        assert relations["fact"].count_matching(reached, pk_column="fact_pk") == 2
        dataless = Database(schema=schema, providers={})
        for name, relation in relations.items():
            generator = TupleGenerator(table=schema.table(name), summary=relation)
            dataless.attach(name, DataGenRelation(source=generator))
        sql = "select count(*) from fact where fact.dim_fk < 2 and fact.other_fk < 2"
        plan = build_plan(parse_query(sql, schema), schema)
        materialised, streaming, default = _execute_routes(engine_routes(dataless), plan)
        assert materialised[:2] == streaming[:2] == default[:2]
        assert default[3] == streaming[3] == {"count": [2]} and default[2] == 0
        result = ExecutionEngine(database=dataless).execute(plan_from_dict(plan.to_dict()))
        assert result.aggregate_route == "summary" and result.fallback_reasons == []

    def test_excluded_skips_unreachable_segments(self):
        summary = RelationSummary(
            table="dim",
            rows=[
                SummaryRow(count=10, values={"price": 5.0}),
                SummaryRow(count=10, values={"price": 50.0}),
            ],
        )
        box = BoxCondition({"price": IntervalSet([Interval(40.0, 60.0)])})
        assert summary.excluded(box, pk_column="dim_pk").tolist() == [True, False]


def _hand_built_star(price: float = 10.0) -> Database:
    """A dataless dim/fact star; ``price`` is the first dim row's value."""
    dim = Table(
        name="dim",
        columns=[Column("dim_pk", INTEGER), Column("price", FLOAT)],
        primary_key="dim_pk",
    )
    fact = Table(
        name="fact",
        columns=[Column("fact_pk", INTEGER), Column("dim_fk", INTEGER), Column("qty", INTEGER)],
        primary_key="fact_pk",
        foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
    )
    schema = Schema.from_tables([fact, dim])
    summary = DatabaseSummary(schema=schema)
    summary.add_relation(
        RelationSummary(
            table="dim",
            rows=[
                SummaryRow(count=60, values={"price": price}),
                SummaryRow(count=40, values={"price": 90.0}),
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
                    fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(0, 60)]))},
                ),
                SummaryRow(
                    count=250,
                    values={"qty": 8.0},
                    fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(60, 100)]))},
                ),
            ],
        )
    )
    database = Database(schema=schema, providers={})
    for name in ("dim", "fact"):
        generator = TupleGenerator(table=schema.table(name), summary=summary.relation(name))
        database.attach(name, DataGenRelation(source=generator))
    return database


class TestFastpathOnHandBuiltSummary:
    @pytest.fixture()
    def dataless(self):
        return _hand_built_star()

    @pytest.mark.parametrize(
        "sql",
        [
            "select count(*) from fact where fact.qty >= 5",
            "select count(*) from fact where fact.dim_fk >= 10 and fact.dim_fk < 70",
            "select count(*) from fact where fact.fact_pk >= 100 and fact.fact_pk < 600",
            "select count(*) from fact",
            "select count(*) from dim where dim.price >= 50",
        ],
    )
    def test_summary_route_equals_streaming_and_materialised(self, dataless, engine_routes, sql):
        plan = build_plan(parse_query(sql, dataless.schema), dataless.schema)
        materialised, streaming, default = _execute_routes(engine_routes(dataless), plan)
        assert materialised[3] == streaming[3] == default[3]
        assert materialised[0] == streaming[0] == default[0]
        assert default[2] == 0  # the summary route generated nothing

    @pytest.mark.parametrize(
        "sql",
        [
            # On continuous columns =, !=, <= and > are epsilon-approximated
            # by the box conversion, so the filter has no exact box of its
            # own; it reads only a value column, so the engine decides it once
            # per summary row instead — exact even when a representative
            # lands inside the epsilon window.
            "select count(*) from dim where dim.price != 10",
            "select count(*) from dim where dim.price = 90",
            "select count(*) from dim where dim.price <= 10",
            "select count(*) from dim where dim.price > 10",
            "select sum(dim.dim_pk) from dim where dim.price > 10",
            "select avg(dim.dim_pk) from dim where dim.price <= 10",
        ],
    )
    def test_inexact_float_boxes_are_decided_on_the_summary(self, engine_routes, sql):
        # Plant a representative inside the epsilon window of 10.0.
        dataless = _hand_built_star(price=10.0 + 1e-12)
        plan = build_plan(parse_query(sql, dataless.schema), dataless.schema)
        materialised, streaming, default = _execute_routes(engine_routes(dataless), plan)
        assert materialised[3] == streaming[3] == default[3]
        assert materialised[0] == streaming[0] == default[0]
        assert default[2] == 0  # decided on the summary: nothing generated
        result = ExecutionEngine(database=dataless).execute(plan_from_dict(plan.to_dict()))
        assert result.aggregate_route == "summary" and result.fallback_reasons == []

    def test_exact_float_range_still_uses_fastpath(self, dataless):
        # < and >= are exact on continuous domains, so the fast path applies.
        sql = "select count(*) from dim where dim.price >= 50 and dim.price < 100"
        plan = build_plan(parse_query(sql, dataless.schema), dataless.schema)
        engine = ExecutionEngine(database=dataless)
        result = engine.execute(plan_from_dict(plan.to_dict()))
        assert int(result.column("count")[0]) == 40
        assert result.scanned_rows == 0

    @pytest.mark.parametrize(
        "sql",
        [
            # Non-integral constants on a discrete column: the box rounds the
            # bound (= 2.5 becomes [2.5, 3.5), matching qty == 3) so the
            # engine must refuse the filter's own box and decide the
            # predicate per summary row instead.
            "select count(*) from fact where fact.qty = 2.5",
            "select count(*) from fact where fact.qty != 2.5",
            "select count(*) from fact where fact.qty <= 2.5",
            "select count(*) from fact where fact.qty > 2.5",
            "select count(*) from fact where fact.qty >= 2.5",
            "select count(*) from fact where fact.qty < 3.5",
        ],
    )
    def test_non_integral_constants_on_discrete_columns(self, dataless, engine_routes, sql):
        plan = build_plan(parse_query(sql, dataless.schema), dataless.schema)
        materialised, streaming, default = _execute_routes(engine_routes(dataless), plan)
        assert materialised[3] == streaming[3] == default[3]
        assert default[2] == 0  # qty is a value column: decided per summary row

    @pytest.mark.parametrize("payload", [{"op": "true"}, {"op": "or", "children": []}])
    def test_column_free_predicates_from_aqp_payloads(self, dataless, engine_routes, payload):
        # Deserialised AQPs can carry trivial or empty predicates; fused
        # scans must give them the same constant verdict on every route.
        from repro.sql.predicates import predicate_from_dict

        plan = AggregateNode(
            child=FilterNode(
                child=ScanNode(table="fact"),
                table="fact",
                predicate=predicate_from_dict(payload),
            )
        )
        materialised, streaming, default = _execute_routes(engine_routes(dataless), plan)
        assert materialised[0] == streaming[0] == default[0]
        assert materialised[3] == streaming[3] == default[3]

    def test_unknown_column_raises_on_every_route(self, dataless, engine_routes):
        # A malformed AQP package can carry a predicate on a column the table
        # does not have; no route may silently fabricate a count for it.
        plan = AggregateNode(
            child=FilterNode(
                child=ScanNode(table="fact"),
                table="fact",
                predicate=Comparison("typo", ">=", 0.0),
            )
        )
        for _database, execute in engine_routes(dataless).values():
            with pytest.raises(KeyError):
                execute(plan_from_dict(plan.to_dict()))

    def test_correlated_straddle_is_counted_from_the_summary(self, dataless, engine_routes):
        # Both the pk and the fk constraints are partial on the same summary
        # row: still exactly countable (prefix counting inside the pk
        # window), so the summary route answers it.
        sql = (
            "select count(*) from fact where fact.fact_pk >= 100 "
            "and fact.fact_pk < 300 and fact.dim_fk >= 10 and fact.dim_fk < 30"
        )
        plan = build_plan(parse_query(sql, dataless.schema), dataless.schema)
        routes = engine_routes(dataless)
        materialised, streaming, default = _execute_routes(routes, plan)
        assert materialised[3] == streaming[3] == default[3]
        assert materialised[0] == streaming[0] == default[0]
        assert default[2] == 0
        result = ExecutionEngine(database=dataless).execute(plan_from_dict(plan.to_dict()))
        assert result.aggregate_route == "summary"
        assert result.fallback_reasons == []


class TestSatelliteRegressions:
    def test_fraction_on_an_integer_column_is_refused_at_load(self, vendor_database):
        # A planted -2.5 on S.A used to load: the summary route then counted
        # it inside ``S.A >= -3 and S.A < -2`` while generation truncated it
        # to -2, so the routes answered the row's count and 0.
        schema = vendor_database.schema
        summary = DatabaseSummary(
            schema=schema,
            relations={
                name: vendor_database.provider(name).source.summary for name in schema.table_names
            },
        )
        payload = summary.to_dict()
        DatabaseSummary.from_dict(payload)  # as built, it loads
        payload["relations"]["S"]["rows"][0]["values"]["A"] = -2.5
        field = "relations['S'].rows[0].values['A']"
        with pytest.raises(SummaryError, match=re.escape(f"malformed database summary at {field}: ")):
            DatabaseSummary.from_dict(payload)

    def test_result_column_ambiguity_error_lists_candidates(self):
        result = ExecutionResult(
            columns={"R.x": np.arange(3), "S.x": np.arange(3)}, row_count=3
        )
        with pytest.raises(KeyError, match="ambiguous") as excinfo:
            result.column("x")
        assert "R.x" in str(excinfo.value) and "S.x" in str(excinfo.value)
        with pytest.raises(KeyError, match="no column"):
            result.column("missing")

    def test_fetch_columns_preserves_dtype_for_empty_relations(self):
        table = Table(
            name="empty",
            columns=[Column("pk", INTEGER), Column("v", FLOAT)],
            primary_key="pk",
        )
        generator = TupleGenerator(table=table, summary=RelationSummary(table="empty"))
        relation = DataGenRelation(source=generator)
        columns = relation.fetch_columns(["pk", "v"])
        assert columns["pk"].dtype == np.int64
        assert columns["v"].dtype == np.float64
        assert len(columns["pk"]) == 0

    @pytest.mark.parametrize("configured, requested", [(0, None), (-5, None), (8192, -1), (8192, 0)])
    def test_non_positive_batch_size_is_refused(self, configured, requested):
        # ``batch_size=0`` used to yield zero-row blocks forever.
        table = Table(name="t", columns=[Column("pk", INTEGER)], primary_key="pk")
        generator = TupleGenerator(
            table=table, summary=RelationSummary(table="t", rows=[SummaryRow(count=3)])
        )
        relation = DataGenRelation(source=generator, batch_size=configured)
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            next(relation.iter_blocks(requested))
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            next(relation.iter_filtered_blocks(box=BoxCondition({}), batch_size=requested))
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            relation.fetch_columns(["pk"], batch_size=requested)

    def test_rate_limiter_clone_is_fresh(self):
        limiter, clock = RateLimiter.with_virtual_clock(100.0)
        limiter.throttle(500)
        clone = limiter.clone()
        assert clone.rows_per_second == limiter.rows_per_second
        assert clone.rows_produced == 0
        assert clone.clock is limiter.clock
        # The clone starts its own schedule: 100 rows at 100 rows/s from now.
        start = clock.now()
        clone.throttle(100)
        assert clock.now() - start == pytest.approx(1.0)

    def test_regenerate_gives_each_relation_its_own_limiter(self, client_database, client_aqps):
        hydra = Hydra(metadata=collect_metadata(client_database))
        result = hydra.build_summary(client_aqps)
        limiter, _clock = RateLimiter.with_virtual_clock(1000.0)
        database = hydra.regenerate(result.summary, rate_limiter=limiter)
        limiters = [database.provider(name).rate_limiter for name in database]
        assert len(set(map(id, limiters))) == len(limiters)
        assert all(clone is not limiter for clone in limiters)
        # Draining one relation must not affect another relation's budget.
        database.provider("S").fetch_columns(["S_pk"])
        assert database.provider("T").rate_limiter.rows_produced == 0

    def test_regenerate_shared_mode_keeps_single_instance(self, client_database, client_aqps):
        hydra = Hydra(metadata=collect_metadata(client_database))
        result = hydra.build_summary(client_aqps)
        limiter, _clock = RateLimiter.with_virtual_clock(None)
        database = hydra.regenerate(
            result.summary, rate_limiter=limiter, shared_rate_limiter=True
        )
        assert all(database.provider(name).rate_limiter is limiter for name in database)


class TestVirtualClockPacingIsolation:
    def test_two_cloned_streams_do_not_share_budget(self):
        limiter, clock = RateLimiter.with_virtual_clock(100.0)
        first, second = limiter.clone(), limiter.clone()
        first.throttle(1000)  # 10 virtual seconds
        elapsed = clock.now()
        second.throttle(100)
        # The second stream pays only for its own 100 rows (1s), not for the
        # first stream's backlog.
        assert clock.now() - elapsed == pytest.approx(1.0)

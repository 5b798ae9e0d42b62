"""Tests for the one build/probe join and the summary-aware routes around it.

Covers the join operator on every condition shape and attachment
(:class:`TestOneJoin`: bit-identical output blocks, annotations, pinned
``scanned_rows`` and route events), its peak-memory bound, the semi-join
box a join builds for its FK probe and its segment-skipping contract, the
join-COUNT summary fast path with its exact-only fallback rules, and earlier
satellite fixes (empty disjunction boxes, provider kinds, ``observed_rate``
semantics, ``FKColumn.matched`` property coverage).
"""

from __future__ import annotations

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.catalog.metadata import collect_metadata
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.client.extractor import AQPExtractor
from repro.core.pipeline import Hydra
from repro.core.scenario import scale_metadata
from repro.core.summary import (
    DatabaseSummary,
    FKReference,
    RelationSummary,
    SummaryRow,
)
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation
from repro.executor import engine as engine_module
from repro.executor.engine import ExecutionEngine, ExecutorError
from repro.executor.rate import RateLimiter
from repro.plans.logical import AggregateNode, FilterNode, JoinNode, ScanNode, plan_from_dict
from repro.plans.planner import build_plan, exact_predicate_box
from repro.sql.predicates import (
    And,
    BoxCondition,
    Comparison,
    InList,
    Interval,
    IntervalSet,
    Not,
    Or,
    box_semantics_exact,
)
from repro.sql.parser import parse_query
from repro.sql.query import JoinCondition
from repro.storage.database import Database, MaterializedRelation
from repro.telemetry import telemetry_session
from repro.verify.comparator import VolumetricComparator
from repro.workload.toy import FIGURE1_QUERY, ToyConfig, generate_toy_database

from aggregate_reference import stream_aggregate

JOIN_SQLS = [
    ("figure1", FIGURE1_QUERY),
    ("join_count", "select count(*) from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 30"),
    ("join_count_unfiltered", "select count(*) from R, T where R.T_fk = T.T_pk"),
    ("join_count_both_sides",
     "select count(*) from R, S where R.S_fk = S.S_pk and S.A >= 10 and R.T_fk >= 5"),
    ("join_projection", "select R_pk, A from R, S where R.S_fk = S.S_pk and S.B < 25"),
    ("join_star", "select * from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 30"),
    ("join_float_filter", "select count(*) from R, T where R.T_fk = T.T_pk and T.C >= 5"),
]


@pytest.fixture(scope="module")
def client_database():
    return generate_toy_database(ToyConfig(r_rows=4000, s_rows=400, t_rows=40, seed=5))


@pytest.fixture(scope="module")
def client_aqps(client_database):
    extractor = AQPExtractor(database=client_database)
    queries = [
        parse_query(sql, client_database.schema, name=name) for name, sql in JOIN_SQLS
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


def _run_route(route, plan):
    """Execute a fresh clone of ``plan`` on one ``(database, execute)`` route."""
    _database, execute = route
    cloned = plan_from_dict(plan.to_dict())
    cloned.clear_annotations()
    result = execute(cloned)
    return result, [node.cardinality for node in cloned.iter_nodes()]


def _run_routes(routes, plan):
    return {name: _run_route(route, plan) for name, route in routes.items()}


def _assert_bit_identical(outcomes, label):
    """Same annotations and blocks (values, dtypes, column and row order)."""
    reference, reference_cards = outcomes["materialised"]
    for name, (result, cards) in outcomes.items():
        assert cards == reference_cards, (label, name)
        assert result.row_count == reference.row_count, (label, name)
        assert list(result.columns) == list(reference.columns), (label, name)
        for key in reference.columns:
            assert result.columns[key].dtype == reference.columns[key].dtype, (label, name, key)
            assert np.array_equal(result.columns[key], reference.columns[key]), (
                label,
                name,
                key,
            )


class TestJoinRouteEquivalence:
    def test_all_routes_bit_identical(self, vendor_routes, client_aqps):
        for aqp in client_aqps:
            _assert_bit_identical(_run_routes(vendor_routes, aqp.plan), aqp.name)

    def test_client_database_reproduces_its_own_annotations(self, client_database, client_aqps):
        for aqp in client_aqps:
            expected = [node.cardinality for node in aqp.plan.iter_nodes()]
            for execute in (
                ExecutionEngine(database=client_database).execute,
                partial(stream_aggregate, client_database),
            ):
                _result, cards = _run_route((client_database, execute), aqp.plan)
                assert cards == expected, aqp.name

    def test_join_count_summary_route_generates_nothing(self, vendor_routes, client_aqps):
        for name in ("join_count", "join_count_unfiltered"):
            aqp = next(a for a in client_aqps if a.name == name)
            reference, reference_cards = _run_route(vendor_routes["materialised"], aqp.plan)
            fast, fast_cards = _run_route(vendor_routes["default"], aqp.plan)
            assert fast.scanned_rows == 0, name
            assert int(fast.column("count")[0]) == int(reference.column("count")[0])
            assert fast_cards == reference_cards

    def test_aggregate_route_census(self, vendor_routes):
        """A silent summary-route regression fails even when the counts agree.

        ``summary`` on the default dataless database, ``streaming`` on the
        materialised one (formerly the "Aggregate route reporting" CI step
        over E11 / E12).
        """
        schema = vendor_routes["default"][0].schema
        reasons = {"default": [], "materialised": ["not-summary-backed"]}
        for sql in (
            "select count(*) from R where R.T_fk >= 5",
            "select count(*) from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 30",
        ):
            plan = build_plan(parse_query(sql, schema), schema)
            for name in reasons:
                result, _cards = _run_route(vendor_routes[name], plan)
                assert result.aggregate_route == ("summary" if name == "default" else "streaming")
                assert result.fallback_reasons[-1:] == reasons[name], (sql, name)
                assert (result.scanned_rows == 0) == (name == "default"), (sql, name)

    def test_verification_is_route_independent(self, vendor_routes, client_aqps):
        materialised, _execute = vendor_routes["materialised"]
        dataless, _execute = vendor_routes["default"]
        baseline = VolumetricComparator(database=materialised).verify(client_aqps).comparisons
        assert baseline
        assert VolumetricComparator(database=dataless).verify(client_aqps).comparisons == baseline


def _leaf(table, predicate=None):
    scan = ScanNode(table=table)
    return scan if predicate is None else FilterNode(child=scan, table=table, predicate=predicate)


STREAMING = ("streaming", None)
KEYED = ("keyed", None)
MATERIALIZING = ("materializing", "no-streamable-leaf")

#: Relations attached materialised per attachment (the rest stay dataless).
ATTACHMENTS = {"dataless": (), "materialised": ("R", "S", "T"), "mixed": ("R", "T")}

#: shape -> (plan factory, per attachment ``(scanned_rows, join route events)``).
#: ``scanned_rows`` are the parent commit's values for the same attachment.
JOIN_SHAPES = {
    "fk_equi": (
        "select * from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 30",
        {"dataless": (421, [STREAMING]), "materialised": (4400, [MATERIALIZING]),
         "mixed": (4084, [STREAMING])},
    ),
    "non_fk_equi": (
        "select R_pk, S_pk, A from R, S where R.T_fk = S.S_pk and S.A < 50",
        {"dataless": (4253, [STREAMING]), "materialised": (4400, [MATERIALIZING]),
         "mixed": (4253, [STREAMING])},
    ),
    "disjunctive": (
        "select * from R, S where (R.S_fk = S.S_pk or R.T_fk = S.S_pk) and S.A < 50",
        {"dataless": (4253, [STREAMING]), "materialised": (4400, [MATERIALIZING]),
         "mixed": (4253, [STREAMING])},
    ),
    "probe_left": (
        lambda: JoinNode(
            left=_leaf("R", Comparison("T_fk", ">=", 5.0)),
            right=_leaf("T"),
            condition=JoinCondition("R", "T_fk", "T", "T_pk"),
        ),
        {"dataless": (3554, [STREAMING]), "materialised": (4040, [MATERIALIZING]),
         "mixed": (4040, [MATERIALIZING])},
    ),
    "probe_right": (
        lambda: JoinNode(
            left=_leaf("S", Comparison("A", "<", 30.0)),
            right=_leaf("R"),
            condition=JoinCondition("R", "S_fk", "S", "S_pk"),
        ),
        {"dataless": (1420, [STREAMING]), "materialised": (4400, [MATERIALIZING]),
         "mixed": (4123, [STREAMING])},
    ),
    # The upper join's right input is the dataless T joined on its primary
    # key: it is the build side and the R-S block probes it (keyed).  In
    # "mixed" T is materialised, so that join keeps materialising.
    "join_of_join": (
        FIGURE1_QUERY,
        {"dataless": (984, [STREAMING, KEYED]), "materialised": (4440, [MATERIALIZING] * 2),
         "mixed": (4208, [MATERIALIZING, STREAMING])},
    ),
    # q10-shaped: a filtered dimension at the first join, then two unfiltered
    # dimensions above it (the toy schema has two, so S is joined again).
    "dimension_chain": (
        lambda: JoinNode(
            left=JoinNode(
                left=JoinNode(
                    left=_leaf("R"),
                    right=_leaf("S", Comparison("A", "<", 50.0)),
                    condition=JoinCondition("R", "S_fk", "S", "S_pk"),
                ),
                right=_leaf("T"),
                condition=JoinCondition("R", "T_fk", "T", "T_pk"),
            ),
            right=_leaf("S"),
            condition=JoinCondition("R", "S_fk", "S", "S_pk"),
        ),
        {"dataless": (2466, [STREAMING, KEYED, KEYED]),
         "materialised": (4840, [MATERIALIZING] * 3),
         "mixed": (4693, [MATERIALIZING, STREAMING, KEYED])},
    ),
    # Both inputs scan S, so the qualified output names collide and the right
    # input's columns win: behaves as it did on the materialising join.
    "self_join": (
        lambda: JoinNode(
            left=_leaf("S"),
            right=_leaf("S", Comparison("A", "<", 50.0)),
            condition=JoinCondition("S", "B", "S", "A"),
        ),
        {"dataless": (653, [STREAMING]), "materialised": (800, [MATERIALIZING]),
         "mixed": (653, [STREAMING])},
    ),
}


class TestOneJoin:
    """Every join shape × attachment runs on the one build/probe operator."""

    @pytest.fixture(scope="class")
    def attachments(self, vendor_database):
        schema = vendor_database.schema
        databases = {}
        for name, materialised in ATTACHMENTS.items():
            database = databases[name] = Database(schema=schema, providers={})
            for table in vendor_database:
                provider = vendor_database.provider(table)
                if table in materialised:
                    provider = MaterializedRelation(provider.materialize(schema.table(table)))
                database.attach(table, provider)
        return databases

    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    def test_shape_on_every_attachment(self, attachments, shape, monkeypatch):
        monkeypatch.setattr(engine_module, "BATCH_SIZE", 512)
        make, expected = JOIN_SHAPES[shape]
        schema = attachments["dataless"].schema
        outcomes = {}
        for name, database in attachments.items():
            plan = build_plan(parse_query(make, schema), schema) if isinstance(make, str) else make()
            result = ExecutionEngine(database=database).execute(plan)
            outcomes[name] = (result, [node.cardinality for node in plan.iter_nodes()])
            joins = [(e.route, e.reason) for e in result.route_events if e.kind == "join"]
            assert (result.scanned_rows, joins) == expected[name], (shape, name)
        assert outcomes["materialised"][0].row_count > 0, shape
        _assert_bit_identical(outcomes, shape)

    def test_unresolvable_keys_are_an_executor_error(self, attachments):
        for name, database in attachments.items():
            plan = JoinNode(
                left=_leaf("R"), right=_leaf("S"), condition=JoinCondition("R", "S_fk", "T", "T_pk")
            )
            with pytest.raises(ExecutorError, match="join keys R.S_fk/T.T_pk not available"):
                ExecutionEngine(database=database).execute(plan)


class TestMemoryBound:
    """Dataless leaves and joins peak at O(build + batch + output).

    The paper's alternative to dynamic regeneration — materialise the
    scanned relations, then execute — is measured as one region and must
    peak at least 5x higher (formerly benchmarks E11 / E12, untimed here).
    """

    QUERIES = {
        "scan": "select count(*) from R where R.T_fk >= 5",
        "fk_join": "select count(*) from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 30",
        "disjunctive_join": (
            "select count(*) from R, S "
            "where (R.S_fk = S.S_pk or R.R_pk = S.S_pk) and S.A >= 10 and S.A < 30"
        ),
    }

    @pytest.fixture(scope="class")
    def scaled(self, client_database, client_aqps):
        metadata = collect_metadata(client_database)
        hydra = Hydra(metadata=scale_metadata(metadata, 100))
        return hydra, hydra.build_summary(client_aqps).summary

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_streaming_peaks_5x_below_materialise_then_execute(self, scaled, name, monkeypatch):
        monkeypatch.setattr(engine_module, "BATCH_SIZE", 8192)
        hydra, summary = scaled
        schema = summary.schema

        def execute(materialize):
            plan = build_plan(parse_query(self.QUERIES[name], schema), schema)
            database = hydra.regenerate(
                summary, materialize=plan.output_tables() if materialize else ()
            )
            return stream_aggregate(database, plan)

        streamed, streaming_peak = self._peak(lambda: execute(False))
        reference, materialised_peak = self._peak(lambda: execute(True))
        assert int(streamed.column("count")[0]) == int(reference.column("count")[0]) > 0
        if name != "scan":
            assert [e.route for e in streamed.route_events if e.kind == "join"] == ["streaming"]
        rows = summary.row_count("R")
        assert materialised_peak > rows * 8  # at least one full int64 column
        assert streaming_peak < materialised_peak / 5, (streaming_peak, materialised_peak)
        assert streaming_peak < rows * 8  # never a whole column of the probe relation

    def test_a_dimension_larger_than_the_join_below_streams(self, scaled, monkeypatch):
        """A selective lower join, then an unfiltered dimension 200x its size.

        The dimension is not made the build side (``join:keyed``): it streams
        through the small intermediate, so the peak stays below one column of
        the dimension, which the build side alone would hold twice over.
        """
        monkeypatch.setattr(engine_module, "BATCH_SIZE", 1024)
        hydra, summary = scaled
        schema = summary.schema
        sql = (
            "select count(*) from R, T, S "
            "where R.T_fk = T.T_pk and R.S_fk = S.S_pk and R.R_pk < 200"
        )

        def execute(materialize=False):
            plan = build_plan(parse_query(sql, schema), schema)
            database = hydra.regenerate(
                summary, materialize=plan.output_tables() if materialize else ()
            )
            return stream_aggregate(database, plan)

        reference = execute(materialize=True)
        execute()  # summary caches are built once per summary, not per query
        streamed, peak = self._peak(execute)
        assert int(streamed.column("count")[0]) == int(reference.column("count")[0]) == 200
        assert [e.route for e in streamed.route_events if e.kind == "join"] == [
            "streaming",
            "streaming",
        ]
        assert peak < summary.row_count("S") * 8, peak

    @staticmethod
    def _row_bytes(schema, table):
        columns = schema.table(table).columns
        return sum(np.dtype(column.dtype.numpy_dtype).itemsize for column in columns)

    def test_an_fk_join_onto_an_unfiltered_dimension_writes_its_output_once(
        self, scaled, monkeypatch
    ):
        """``select *`` of R joined to all of S: both sides are written straight into the output.

        The probe streams into R's output columns and the build side's output
        is gathered batch by batch, so the peak is the output plus the build
        block plus one batch — a second copy of either side would not fit.
        """
        batch = 8192
        monkeypatch.setattr(engine_module, "BATCH_SIZE", batch)
        hydra, summary = scaled
        schema = summary.schema
        database = hydra.regenerate(summary)
        sql = "select * from R, S where R.S_fk = S.S_pk"

        def execute():
            plan = build_plan(parse_query(sql, schema), schema)
            return ExecutionEngine(database=database).execute(plan)

        reference = execute()  # summary caches are built once per summary, not per query
        with telemetry_session() as session:
            streamed, peak = self._peak(execute)
        counters = session.metrics.snapshot()["counters"]
        assert counters["engine.output.in_place"] == 2  # the S leaf and the R probe
        assert not [name for name in counters if name.startswith("engine.output.gathered")]
        assert streamed.row_count == reference.row_count == summary.row_count("R")
        output = sum(values.nbytes for values in streamed.columns.values())
        build = summary.row_count("S") * self._row_bytes(schema, "S")
        probe_batch = batch * self._row_bytes(schema, "R")
        assert peak <= output + build + probe_batch, (peak, output, build, probe_batch)

    def test_a_join_onto_a_filtered_dimension_never_allocates_at_the_probe_size(
        self, scaled, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "BATCH_SIZE", 1024)
        hydra, summary = scaled
        schema = summary.schema
        database = hydra.regenerate(summary)
        sql = "select * from R, S where R.S_fk = S.S_pk and S.A >= 10 and S.A < 12"

        def execute():
            plan = build_plan(parse_query(sql, schema), schema)
            return ExecutionEngine(database=database).execute(plan)

        execute()
        with telemetry_session() as session:
            streamed, peak = self._peak(execute)
        counters = session.metrics.snapshot()["counters"]
        assert counters["engine.output.gathered.build-filtered"] == 1
        rows = summary.row_count("R")
        assert 0 < streamed.row_count < rows / 4
        assert peak < rows * 8, (peak, rows)  # not one int64 column of the probe relation


class TestBuildSideChoice:
    def test_probe_is_larger_side_by_summary_cardinality(self, vendor_database, client_aqps):
        aqp = next(a for a in client_aqps if a.name == "join_count")
        r_before = vendor_database.provider("R").stats.rows_generated
        s_before = vendor_database.provider("S").stats.rows_generated
        plan = plan_from_dict(aqp.plan.to_dict())
        plan.clear_annotations()
        stream_aggregate(vendor_database, plan)
        r_generated = vendor_database.provider("R").stats.rows_generated - r_before
        s_generated = vendor_database.provider("S").stats.rows_generated - s_before
        # S (400 rows) is the build side and is generated at most once in
        # full; R (4000 rows) streams as the probe side.
        assert s_generated <= vendor_database.row_count("S")
        assert r_generated <= vendor_database.row_count("R")
        assert r_generated > 0


def _dataless_star(price: float = 10.0, qty: float = 3.0):
    """The star fixture; ``price`` / ``qty`` are the first dim / fact row's values."""
    dim = Table(
        name="dim",
        columns=[Column("dim_pk", INTEGER), Column("price", FLOAT)],
        primary_key="dim_pk",
    )
    fact = Table(
        name="fact",
        columns=[
            Column("fact_pk", INTEGER),
            Column("dim_fk", INTEGER),
            Column("qty", INTEGER),
        ],
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
                    values={"qty": qty},
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
    return database, summary


@pytest.fixture()
def dataless_star():
    return _dataless_star()


def _skip_boxes(database, table, monkeypatch):
    """Record the ``skip_box`` each stream of ``table``'s provider is given."""
    provider = database.provider(table)
    stream = provider.iter_filtered_blocks
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("skip_box"))
        return stream(*args, **kwargs)

    monkeypatch.setattr(provider, "iter_filtered_blocks", recording)
    return seen


def _streamed(database, sql):
    """Execute ``sql`` with the join streamed; ``(result, the run's metrics registry)``."""
    plan = build_plan(parse_query(sql, database.schema), database.schema)
    with telemetry_session() as session:
        result = stream_aggregate(database, plan)
    return result, session.metrics


class TestSemiJoinPushdown:
    def test_projects_matching_pk_intervals_onto_fk_column(self, dataless_star, monkeypatch):
        database, _summary = dataless_star
        boxes = _skip_boxes(database, "fact", monkeypatch)
        sql = "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and dim.price >= 50"
        result, metrics = _streamed(database, sql)
        # Only dim's second summary row (price=90, pk indices [60, 100))
        # matches the referenced-side filter: the fact probe skips outside it.
        assert boxes == [BoxCondition({"dim_fk": IntervalSet([Interval(60.0, 100.0)])})]
        assert metrics.counter_value("tuplegen.segments_semijoin_skipped") == 1
        assert result.scanned_rows == 250 + 40
        assert int(result.column("count")[0]) == 250

    def test_unselective_referenced_filter_produces_no_box(self, dataless_star, monkeypatch):
        database, _summary = dataless_star
        boxes = _skip_boxes(database, "fact", monkeypatch)
        result, metrics = _streamed(
            database, "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk"
        )
        # Every referenced pk index is reachable: skipping/masking can never
        # fire, so the probe is given no box at all.
        assert boxes == [None]
        assert metrics.counter_value("tuplegen.segments_semijoin_skipped") == 0
        assert result.scanned_rows == 750 + 100

    @pytest.mark.parametrize("select", ["*", "count(*)"])
    def test_a_decided_referenced_box_narrows_the_probe(
        self, engine_routes, monkeypatch, select
    ):
        # price > 50 on a continuous column is not an exact box: the dim leaf
        # is decided per summary row into the pk range [60, 100), and the join
        # projects that exact box onto the fact probe's FK column.
        database, _summary = _dataless_star()
        sql = f"select {select} from fact, dim where fact.dim_fk = dim.dim_pk and dim.price > 50"
        plan = build_plan(parse_query(sql, database.schema), database.schema)
        dim_filter = next(node for node in plan.iter_nodes() if isinstance(node, FilterNode))
        assert exact_predicate_box(dim_filter.predicate, database.schema.table("dim")) is None
        boxes = _skip_boxes(database, "fact", monkeypatch)
        outcomes = _run_routes(engine_routes(database), plan)
        _assert_bit_identical(outcomes, sql)
        assert BoxCondition({"dim_fk": IntervalSet([Interval(60.0, 100.0)])}) in boxes
        streaming, _cards = outcomes["streaming"]
        # The fact segment referencing [0, 60) is never generated: 250 fact
        # rows plus dim's 40 (without the box the probe generates all 750).
        assert streaming.scanned_rows == 250 + 40
        assert streaming.row_count == (250 if select == "*" else 1)

    def test_segment_skipping_preserves_filter_annotation(self, dataless_star, engine_routes):
        database, _summary = dataless_star
        sql = (
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and dim.price >= 50 and fact.qty >= 2"
        )
        plan = build_plan(parse_query(sql, database.schema), database.schema)
        routes = engine_routes(database)
        reference, reference_cards = _run_route(routes["materialised"], plan)

        provider = database.provider("fact")
        before = provider.stats.rows_generated
        streaming, streaming_cards = _run_route(routes["streaming"], plan)
        generated = provider.stats.rows_generated - before
        # Fact's first summary row (refs [0, 60)) cannot reach the surviving
        # dim pks [60, 100): its 500 tuples are never generated, yet the
        # fact filter annotation still counts them exactly.
        assert generated == 250
        assert streaming_cards == reference_cards
        assert int(streaming.column("count")[0]) == int(reference.column("count")[0])

    def test_inexact_probe_predicate_is_decided_per_summary_row(
        self, dataless_star, engine_routes
    ):
        # qty <= 2.5 on a discrete column is not box-exact: the probe's box is
        # decided per summary row (a pk-range box) while the semi-join box
        # still masks rows with no partner — all routes must agree.
        database, _summary = dataless_star
        sql = (
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and dim.price >= 50 and fact.qty <= 2.5"
        )
        plan = build_plan(parse_query(sql, database.schema), database.schema)
        _assert_bit_identical(_run_routes(engine_routes(database), plan), sql)

    def test_skip_box_yields_exact_counts_without_generation(self, dataless_star):
        database, _summary = dataless_star
        generator = database.provider("fact").source
        skip = BoxCondition({"dim_fk": IntervalSet([Interval(60.0, 100.0)])})
        own = BoxCondition({"qty": IntervalSet([Interval(0.0, 5.0)])})
        blocks = list(
            generator.iter_filtered_blocks(own, batch_size=1000, columns=["dim_fk"], skip_box=skip)
        )
        # First fact segment: skipped (refs [0,60) unreachable) but counted
        # in full because qty=3 passes the scan's own box for all 500 tuples.
        assert blocks[0] == (0, 0, 500, {})
        # Second segment (qty=8 fails the own box) is excluded outright.
        assert len(blocks) == 1


class TestJoinCountFastPath:
    @staticmethod
    def _counts(routes, sql, names=("materialised", "default")):
        schema = routes["default"][0].schema
        plan = build_plan(parse_query(sql, schema), schema)
        outcomes = {}
        for name in names:
            result, cards = _run_route(routes[name], plan)
            outcomes[name] = (int(result.column("count")[0]), cards, result.scanned_rows)
        return outcomes

    @pytest.mark.parametrize(
        "sql",
        [
            "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk",
            "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and dim.price >= 50",
            "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and fact.qty >= 5",
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and fact.dim_fk >= 20 and fact.dim_fk < 80",
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and fact.fact_pk >= 100 and fact.fact_pk < 600",
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and dim.price >= 50 and fact.qty < 5",
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and dim.dim_pk >= 30 and dim.dim_pk < 70",
            # pk window and fk constraint both partial on the same fact row:
            # countable by prefix counting, for the filter annotation as for
            # the join root.
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and fact.fact_pk >= 100 and fact.fact_pk < 300 "
            "and fact.dim_fk >= 10 and fact.dim_fk < 30",
        ],
    )
    def test_exact_cases_generate_nothing(self, dataless_star, engine_routes, sql):
        database, _summary = dataless_star
        outcomes = self._counts(engine_routes(database), sql)
        assert outcomes["default"][0] == outcomes["materialised"][0], sql
        assert outcomes["default"][1] == outcomes["materialised"][1], sql
        assert outcomes["default"][2] == 0, sql

    @pytest.mark.parametrize(
        "sql",
        [
            # Epsilon-approximated float comparisons on the referenced side,
            # a non-integral constant on the referencing side: no exact box of
            # their own, so each leaf's filter is decided per summary row.
            "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and dim.price = 90",
            "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and dim.price != 10",
            "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and dim.price <= 10",
            "select count(*) from fact, dim "
            "where fact.dim_fk = dim.dim_pk and dim.price > 10 and fact.qty <= 3.5",
        ],
    )
    def test_inexact_cases_are_decided_on_the_summary(self, engine_routes, sql):
        # Plant a representative inside the epsilon window of 10.0.
        database, _summary = _dataless_star(price=10.0 + 1e-12)
        routes = engine_routes(database)
        outcomes = self._counts(routes, sql, ("materialised", "streaming", "default"))
        assert outcomes["default"][:2] == outcomes["materialised"][:2], sql
        assert outcomes["default"][:2] == outcomes["streaming"][:2], sql
        assert outcomes["default"][2] == 0, sql  # decided on the summary: nothing generated

    def test_constant_fk_summary_row(self, engine_routes):
        dim = Table(
            name="dim",
            columns=[Column("dim_pk", INTEGER), Column("price", FLOAT)],
            primary_key="dim_pk",
        )
        fact = Table(
            name="fact",
            columns=[Column("fact_pk", INTEGER), Column("dim_fk", INTEGER)],
            primary_key="fact_pk",
            foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
        )
        schema = Schema.from_tables([fact, dim])
        summary = DatabaseSummary(schema=schema)
        summary.add_relation(
            RelationSummary(table="dim", rows=[SummaryRow(count=10, values={"price": 5.0})])
        )
        # A summary row without an FKReference generates its FK column as a
        # constant representative value.
        summary.add_relation(
            RelationSummary(table="fact", rows=[SummaryRow(count=7, values={"dim_fk": 3.0})])
        )
        database = Database(schema=schema, providers={})
        for name in ("dim", "fact"):
            generator = TupleGenerator(table=schema.table(name), summary=summary.relation(name))
            database.attach(name, DataGenRelation(source=generator))
        sql = "select count(*) from fact, dim where fact.dim_fk = dim.dim_pk and dim.price < 6"
        outcomes = self._counts(engine_routes(database), sql)
        assert outcomes["default"][0] == outcomes["materialised"][0] == 7
        assert outcomes["default"][2] == 0

    def test_chained_reference_scattered_by_its_own_fk_is_counted(self, engine_routes):
        # c -> b -> a: the referenced side b is filtered on *its own* FK
        # column, which matches some b summary rows only partially — the
        # matching b pks are round-robin-scattered, so they form no pk
        # ranges; b's prefix still weighs every b pk c's spread reaches.
        a = Table(name="a", columns=[Column("a_pk", INTEGER)], primary_key="a_pk")
        b = Table(
            name="b",
            columns=[Column("b_pk", INTEGER), Column("a_fk", INTEGER)],
            primary_key="b_pk",
            foreign_keys=[ForeignKey("a_fk", "a", "a_pk")],
        )
        c = Table(
            name="c",
            columns=[Column("c_pk", INTEGER), Column("b_fk", INTEGER)],
            primary_key="c_pk",
            foreign_keys=[ForeignKey("b_fk", "b", "b_pk")],
        )
        schema = Schema.from_tables([c, b, a])
        summary = DatabaseSummary(schema=schema)
        summary.add_relation(RelationSummary(table="a", rows=[SummaryRow(count=10)]))
        summary.add_relation(
            RelationSummary(
                table="b",
                rows=[
                    SummaryRow(
                        count=9,
                        fk_refs={"a_fk": FKReference("a", IntervalSet([Interval(0, 10)]))},
                    )
                ],
            )
        )
        summary.add_relation(
            RelationSummary(
                table="c",
                rows=[
                    SummaryRow(
                        count=20,
                        fk_refs={"b_fk": FKReference("b", IntervalSet([Interval(0, 9)]))},
                    )
                ],
            )
        )
        database = Database(schema=schema, providers={})
        for name in ("a", "b", "c"):
            generator = TupleGenerator(table=schema.table(name), summary=summary.relation(name))
            database.attach(name, DataGenRelation(source=generator))
        sql = "select count(*) from c, b where c.b_fk = b.b_pk and b.a_fk >= 3 and b.a_fk < 6"
        outcomes = self._counts(engine_routes(database), sql)
        assert outcomes["default"][:2] == outcomes["materialised"][:2]
        assert 0 < outcomes["default"][0] < 20
        assert outcomes["default"][2] == 0  # answered from the summaries


_PRICES = st.sampled_from([0.0, 9.5, 10.0, 10.0 + 2**-40, 50.0, 90.0, 90.25])
_QTYS = st.sampled_from([0.0, 2.5, 3.0, 3.5, 7.75, 8.0])


def _value_filters(column, constants):
    """Filters on one value column: comparisons, ``IN`` lists, ``Or`` / ``And`` / ``Not``."""
    ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    leaves = st.builds(Comparison, st.just(column), ops, constants) | st.builds(
        InList, st.just(column), st.lists(constants, max_size=3).map(tuple)
    )
    return st.recursive(
        leaves,
        lambda children: st.lists(children, min_size=1, max_size=3).map(Or)
        | st.lists(children, min_size=1, max_size=3).map(And)
        | children.map(Not),
        max_leaves=6,
    )


class TestDecidedBox:
    """Value-column filters are decided per summary row, exactly, on every shape."""

    @settings(max_examples=150, deadline=None)
    @given(
        dim_filter=st.none() | _value_filters("price", _PRICES),
        fact_filter=st.none() | _value_filters("qty", _QTYS),
        shape=st.sampled_from(["count-dim", "sum-dim", "avg-fact", "sum-fact", "count-join"]),
        planted=st.booleans(),
    )
    def test_every_route_agrees_and_nothing_is_generated(
        self, engine_routes, dim_filter, fact_filter, shape, planted
    ):
        # A planted price lies inside the epsilon window of 10.0.
        database, _summary = _dataless_star(price=10.0 + 2**-40 if planted else 10.0)
        dim, fact = _leaf("dim", dim_filter), _leaf("fact", fact_filter)
        join = JoinNode(
            left=fact, right=dim, condition=JoinCondition("fact", "dim_fk", "dim", "dim_pk")
        )
        function, child, argument = {
            "count-dim": ("count", dim, None),
            "sum-dim": ("sum", dim, "dim.price"),
            "avg-fact": ("avg", fact, "fact.qty"),
            "sum-fact": ("sum", fact, "fact.qty"),
            "count-join": ("count", join, None),
        }[shape]
        plan = AggregateNode(child=child, function=function, argument=argument)
        outcomes = _run_routes(engine_routes(database), plan)
        _assert_bit_identical(outcomes, (shape, dim_filter, fact_filter))
        result, _cards = outcomes["default"]
        assert result.aggregate_route == "summary" and result.fallback_reasons == []
        assert result.scanned_rows == 0

    @pytest.mark.parametrize(
        "predicate",
        [
            Comparison("fact_pk", "<=", 200.5),
            Comparison("dim_fk", "!=", 20.5),
            Or([Comparison("qty", "=", 3.0), Comparison("dim_fk", "<", 10.0)]),
            Or([Comparison("qty", "<=", 2.5), Comparison("fact_pk", ">=", 600.0)]),
        ],
    )
    def test_non_box_filter_reading_a_key_still_streams(self, engine_routes, predicate):
        database, _summary = _dataless_star()
        plan = AggregateNode(child=_leaf("fact", predicate))
        outcomes = _run_routes(engine_routes(database), plan)
        _assert_bit_identical(outcomes, predicate)
        result, _cards = outcomes["default"]
        assert result.fallback_reasons == ["predicate-not-box"]
        assert result.scanned_rows == 750

    def test_values_are_read_as_generation_writes_them(self, engine_routes):
        # A hand-built row skips load validation: generation truncates 3.75 on
        # the integer column to 3, and the decided box must see that 3.
        database, summary = _dataless_star(qty=3.75)
        fact = summary.relation("fact")
        predicate = Comparison("qty", "<=", 3.5)
        box = fact.decided_box(predicate, database.schema.table("fact"))
        assert box == BoxCondition({"fact_pk": IntervalSet([Interval(0.0, 500.0)])})
        outcomes = _run_routes(engine_routes(database), AggregateNode(child=_leaf("fact", predicate)))
        _assert_bit_identical(outcomes, predicate)
        assert int(outcomes["default"][0].column("count")[0]) == 500

    def test_unknown_column_in_a_value_column_filter_still_raises(self, engine_routes):
        database, _summary = _dataless_star()
        predicate = Or([Comparison("qty", "=", 2.5), Comparison("typo", ">=", 0.0)])
        for _route_database, execute in engine_routes(database).values():
            with pytest.raises(KeyError, match="typo"):
                execute(AggregateNode(child=_leaf("fact", predicate)))


class TestMatchingPkIntervals:
    def test_value_and_pk_constraints(self):
        summary = RelationSummary(
            table="dim",
            rows=[
                SummaryRow(count=10, values={"price": 5.0}),
                SummaryRow(count=20, values={"price": 9.0}),
            ],
        )
        box = BoxCondition({"price": IntervalSet([Interval(4.0, 6.0)])})
        assert summary.matching_pk_intervals(box, pk_column="dim_pk") == IntervalSet(
            [Interval(0.0, 10.0)]
        )
        pk_box = BoxCondition({"dim_pk": IntervalSet([Interval(5.0, 25.0)])})
        assert summary.matching_pk_intervals(pk_box, pk_column="dim_pk") == IntervalSet(
            [Interval(5.0, 25.0)]
        )
        assert summary.matching_pk_intervals(BoxCondition.never(), pk_column="dim_pk") == (
            IntervalSet.empty()
        )

    def test_fk_partial_keeps_the_whole_segment(self):
        summary = RelationSummary(
            table="fact",
            rows=[
                SummaryRow(
                    count=10,
                    fk_refs={"dim_fk": FKReference("dim", IntervalSet([Interval(0, 4)]))},
                )
            ],
        )
        box = BoxCondition({"dim_fk": IntervalSet([Interval(1.0, 3.0)])})
        superset = summary.matching_pk_intervals(box, pk_column="fact_pk")
        assert superset == IntervalSet([Interval(0.0, 10.0)])

    @settings(max_examples=300, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(st.integers(-2, 17), st.sampled_from([0.0, 0.5]), st.integers(0, 6)),
            max_size=12,
        )
    )
    def test_pk_ranges_against_each_row_window(self, ranges):
        # Rows own pks [0, 5), [5, 12), [12, 16): ranges on a domain that
        # small keep landing on, just inside and just outside a row's ends.
        summary = RelationSummary(
            table="dim", rows=[SummaryRow(count=count) for count in (5, 7, 4)]
        )
        pks = IntervalSet(
            Interval(low + fraction, low + fraction + width) for low, fraction, width in ranges
        )
        box = BoxCondition({"dim_pk": pks})
        matched = summary.columns.matched(box, "dim_pk")
        excluded = summary.excluded(box, pk_column="dim_pk")
        for position in range(3):
            start, end = summary.pk_interval_of_row(position)
            expected = int(pks.membership_mask(np.arange(start, end, dtype=np.float64)).sum())
            assert matched[position] == expected
            assert excluded[position] == (expected == 0)


class TestEmptyDisjunctionBox(object):
    def test_empty_or_normalises_to_unsatisfiable_box(self):
        box = Or(()).to_box()
        assert box.is_empty
        assert not box.satisfiable
        assert not box.is_unconstrained
        values = {"x": np.arange(4, dtype=np.float64)}
        assert not box.evaluate(values).any()
        assert bool(Or(()).evaluate(values).any()) == bool(box.evaluate(values).any())

    def test_nested_and_column_free_disjunctions(self):
        assert Or((Or(()),)).to_box().is_empty
        from repro.sql.predicates import TruePredicate

        assert not Or((TruePredicate(),)).to_box().is_empty

    def test_unsatisfiable_disjunct_does_not_widen_the_union(self):
        # An unsatisfiable child carries no per-column condition; naively
        # asking it for one yields the unconstrained interval set, flipping
        # the whole disjunction to match-all on the exact-box routes.
        predicate = Or((Or(()), Comparison("x", "<", 5.0)))
        assert box_semantics_exact(predicate, {"x": True})
        box = predicate.to_box({"x": True})
        values = {"x": np.asarray([1.0, 7.0])}
        assert box.evaluate(values).tolist() == predicate.evaluate(values).tolist()
        assert box.conditions["x"] == IntervalSet([Interval(float("-inf"), 5.0)])
        # All-unsatisfiable children on a referenced column stay all-false.
        from repro.sql.predicates import And

        contradiction = And((Comparison("x", "<", 1.0), Comparison("x", ">=", 5.0)))
        assert Or((contradiction,)).to_box({"x": True}).is_empty

    def test_unsatisfiable_box_round_trips(self):
        box = BoxCondition.never()
        assert BoxCondition.from_dict(box.to_dict()) == box
        assert box.to_predicate().evaluate({"x": np.arange(3, dtype=np.float64)}).sum() == 0
        assert box.intersect(BoxCondition({"x": IntervalSet.everything()})).is_empty
        assert not box.contains_point({"x": 1.0})

    def test_not_of_unsatisfiable_child_is_match_all(self):
        # NOT(x < 5 AND <empty disjunction>) evaluates all-true; complementing
        # the child's per-column intervals while ignoring the satisfiable
        # flag would yield x >= 5 instead.
        from repro.sql.predicates import And, Not

        predicate = Not(And((Comparison("x", "<", 5.0), Or(()))))
        assert box_semantics_exact(predicate, {"x": True})
        box = predicate.to_box({"x": True})
        values = {"x": np.asarray([1.0, 6.0])}
        assert box.evaluate(values).tolist() == predicate.evaluate(values).tolist() == [True, True]
        assert box.is_unconstrained

    def test_region_partitioning_treats_falsum_as_empty(self):
        from repro.core.grid import _cell_inside
        from repro.core.regions import (
            Region,
            RegionPartitioner,
            box_is_empty,
        )

        never = BoxCondition.never()
        assert box_is_empty(never)
        domain = BoxCondition({"x": IntervalSet([Interval(0.0, 10.0)])})
        region = Region(index=0, signature=frozenset(), boxes=(domain,))
        assert not region.contained_in(never)
        assert not region.overlaps(never)
        assert not _cell_inside(domain, never)
        # An all-false predicate box partitions the domain into one region
        # that satisfies nothing, instead of dropping or blanket-matching it.
        partitioner = RegionPartitioner(discrete={"x": True}, domain=domain)
        regions = partitioner.partition([never])
        assert len(regions) == 1
        assert regions[0].signature == frozenset()

    def test_empty_or_is_box_exact_and_counts_zero(self):
        assert box_semantics_exact(Or(()), {"qty": True})
        summary = RelationSummary(table="t", rows=[SummaryRow(count=5)])
        assert summary.count_matching(Or(()).to_box(), pk_column="t_pk") == 0
        assert summary.excluded(Or(()).to_box(), pk_column="t_pk").all()

    def test_engine_routes_agree_on_empty_disjunction(self, dataless_star, engine_routes):
        database, _summary = dataless_star
        from repro.plans.logical import AggregateNode, FilterNode, ScanNode

        plan = AggregateNode(
            child=FilterNode(child=ScanNode(table="fact"), table="fact", predicate=Or(()))
        )
        outcomes = _run_routes(engine_routes(database), plan)
        _assert_bit_identical(outcomes, "empty disjunction")
        assert int(outcomes["default"][0].column("count")[0]) == 0


class _RowOnlyProvider:
    """A provider exposing nothing but the minimal row protocol."""

    def __init__(self, rows):
        self._rows = rows

    @property
    def row_count(self):
        return len(self._rows)

    @property
    def column_names(self):
        return ["pk", "v"]

    def row(self, index):
        return self._rows[index]


class TestProviderKinds:
    def test_unknown_provider_kind_is_a_typed_error(self):
        """The engine reads materialised and ``datagen`` providers, nothing else."""
        table = Table(
            name="tiny",
            columns=[Column("pk", INTEGER), Column("v", FLOAT)],
            primary_key="pk",
        )
        schema = Schema.from_tables([table])
        database = Database(schema=schema, providers={})
        database.attach("tiny", _RowOnlyProvider([(0, 1.5), (1, 2.5), (2, 3.5)]))
        engine = ExecutionEngine(database=database)
        for sql in ("select * from tiny", "select count(*) from tiny where tiny.v < 3"):
            plan = build_plan(parse_query(sql, schema), schema)
            with pytest.raises(ExecutorError, match="_RowOnlyProvider"):
                engine.execute(plan)


class TestObservedRate:
    def test_zero_before_first_throttle(self):
        limiter, _clock = RateLimiter.with_virtual_clock(None)
        assert limiter.observed_rate() == 0.0

    def test_inf_when_no_time_elapsed(self):
        limiter, _clock = RateLimiter.with_virtual_clock(None)
        limiter.throttle(0)
        assert limiter.observed_rate() == float("inf")
        limiter.throttle(100)
        assert limiter.observed_rate() == float("inf")

    def test_rate_after_time_elapses(self):
        limiter, clock = RateLimiter.with_virtual_clock(None)
        limiter.throttle(100)
        clock.advance(2.0)
        assert limiter.observed_rate() == pytest.approx(50.0)
        limiter.throttle(100)
        assert limiter.observed_rate() == pytest.approx(100.0)

    def test_throttled_stream_converges_to_target_rate(self):
        limiter, clock = RateLimiter.with_virtual_clock(1000.0)
        for _ in range(10):
            limiter.throttle(500)
        assert limiter.observed_rate() == pytest.approx(1000.0)
        del clock


_intervals = st.lists(
    st.tuples(st.integers(-30, 300), st.integers(1, 40)), min_size=1, max_size=4
).map(lambda pairs: IntervalSet([Interval(low, low + width) for low, width in pairs]))
_FRACTIONS = st.sampled_from([0.0, 0.25, 0.5, 0.75])


@st.composite
def _pieces_and_allowed(draw):
    """An FK reference of 1–4 fractional pieces and an allowed set around them.

    Up to 12 allowed intervals per piece, fractional ends, and optionally an
    allowed interval unbounded below and one unbounded above.
    """
    pieces = []
    cursor = draw(st.integers(-20, 50))
    for _ in range(draw(st.integers(1, 4))):
        low = cursor + draw(st.integers(0, 30)) + draw(_FRACTIONS)
        high = low + draw(st.integers(0, 40)) + draw(_FRACTIONS)
        pieces.append(Interval(low, high))
        cursor = math.ceil(high) + 1
    ref = FKReference("dim", IntervalSet(pieces))
    assume(ref.target_count() > 0)
    allowed = []
    for piece in pieces:
        for _ in range(draw(st.integers(0, 12))):
            low = draw(st.integers(math.floor(piece.low) - 3, math.ceil(piece.high) + 3))
            low += draw(_FRACTIONS)
            allowed.append(Interval(low, low + draw(st.integers(0, 6)) + draw(_FRACTIONS)))
    if draw(st.booleans()):
        allowed.append(Interval(-math.inf, draw(st.integers(-25, 250)) + draw(_FRACTIONS)))
    if draw(st.booleans()):
        allowed.append(Interval(draw(st.integers(-25, 250)) + draw(_FRACTIONS), math.inf))
    return ref, IntervalSet(allowed)


class TestCountMatchingOffsetsProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        ref_intervals=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 25)), min_size=1, max_size=4
        ),
        allowed=_intervals,
        num_offsets=st.integers(0, 400),
    )
    def test_matches_brute_force_enumeration(
        self, fk_targets_oracle, fk_matched, ref_intervals, allowed, num_offsets
    ):
        # Build non-overlapping reference intervals by stacking the widths.
        pieces = []
        cursor = 0
        for gap, width in ref_intervals:
            low = cursor + gap
            pieces.append(Interval(low, low + width))
            cursor = low + width + 1
        ref = FKReference("dim", IntervalSet(pieces))
        expected = 0
        if num_offsets:
            targets = fk_targets_oracle(ref, np.arange(num_offsets, dtype=np.int64))
            expected = int(allowed.membership_mask(targets.astype(np.float64)).sum())
        assert fk_matched(ref, 0, num_offsets, allowed) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        num_offsets=st.integers(0, 120),
        cut=st.integers(-5, 40),
    )
    def test_remainder_straddling_piece_boundaries(
        self, fk_targets_oracle, fk_matched, num_offsets, cut
    ):
        # Two pieces of sizes 7 and 13; the allowed set straddles the
        # boundary between them so remainders exercise both prefix shapes.
        ref = FKReference("dim", IntervalSet([Interval(0, 7), Interval(50, 63)]))
        allowed = IntervalSet([Interval(float(cut), float(cut + 15))])
        expected = 0
        if num_offsets:
            targets = fk_targets_oracle(ref, np.arange(num_offsets, dtype=np.int64))
            expected = int(allowed.membership_mask(targets.astype(np.float64)).sum())
        assert fk_matched(ref, 0, num_offsets, allowed) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        ref_intervals=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 25)), min_size=1, max_size=4
        ),
        allowed=_intervals,
        leading_rows=st.integers(0, 50),
        count=st.integers(1, 300),
        windows=st.lists(
            st.tuples(st.integers(-20, 360), st.integers(0, 200)), min_size=1, max_size=12
        ),
    )
    def test_pk_window_times_partial_fk_matches_brute_force(
        self, ref_intervals, allowed, leading_rows, count, windows
    ):
        # One summary row behind ``leading_rows`` others (so its segment does
        # not start at pk 0), pk ranges (up to 12, as a decided box has one
        # per passing row) and an FK allowed set that may each cover it fully,
        # partially or not at all.
        pieces = []
        cursor = 0
        for gap, width in ref_intervals:
            low = cursor + gap
            pieces.append(Interval(low, low + width))
            cursor = low + width + 1
        rows = [SummaryRow(count=leading_rows, values={"dim_fk": 0.0})] if leading_rows else []
        rows.append(
            SummaryRow(count=count, fk_refs={"dim_fk": FKReference("dim", IntervalSet(pieces))})
        )
        summary = RelationSummary(table="fact", rows=rows)
        table = Table(
            name="fact",
            columns=[Column("fact_pk", INTEGER), Column("dim_fk", INTEGER)],
            primary_key="fact_pk",
            foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
        )
        box = BoxCondition(
            {
                "fact_pk": IntervalSet(
                    Interval(float(low), float(low + width)) for low, width in windows
                ),
                "dim_fk": allowed,
            }
        )
        block = TupleGenerator(table=table, summary=summary).generate_block(leading_rows, count)
        expected = int(box.evaluate(block).sum())
        position = len(rows) - 1
        assert summary.columns.matched(box, "fact_pk")[position] == expected
        assert expected == 0 or not summary.excluded(box, pk_column="fact_pk")[position]

    @settings(max_examples=300, deadline=None)
    @given(case=_pieces_and_allowed(), num_offsets=st.integers(0, 400), many=st.integers(0, 10**12))
    def test_vectorised_count_matches_both_oracles(
        self, fk_targets_oracle, fk_count_oracle, fk_matched, case, num_offsets, many
    ):
        # Fractional piece and allowed bounds, unbounded allowed ends and up
        # to 12 allowed intervals per piece; offset counts far past what the
        # enumeration can reach are checked against the nested loop alone.
        ref, allowed = case
        expected = 0
        if num_offsets:
            targets = fk_targets_oracle(ref, np.arange(num_offsets, dtype=np.int64))
            expected = int(allowed.membership_mask(targets.astype(np.float64)).sum())
        assert fk_matched(ref, 0, num_offsets, allowed) == expected
        assert fk_count_oracle(ref, num_offsets, allowed) == expected
        assert fk_matched(ref, 0, many, allowed) == fk_count_oracle(ref, many, allowed)

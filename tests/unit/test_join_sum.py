"""SUM / AVG over FK joins on the summary route: exact, and bit-identical to streaming.

A hand-built four-relation snowflake — ``fact`` references ``dim`` and
``aux``, ``dim`` references ``sub`` — with non-dyadic representatives, FK
spreads of several pieces, constant-FK rows and empty rows.  Every case runs
on the three engine routes (the materialised reference, streaming with the
summary route off, and the default dataless engine) and asserts the result
bits and every node cardinality equal, no tuple generated when the summary
answers, and the catalogued reason when it does not.  The engine's FK test
runs at most once per join node per ``execute`` on every route, and the
fold's work — its per-table steps and prefix evaluations — is the same on a
copy of the snowflake scaled by 10⁶.
"""

from __future__ import annotations

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.core.columns import Prefix, SummaryColumns
from repro.core.summary import DatabaseSummary, FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.executor import engine as engine_module
from repro.executor.datagen import DataGenRelation
from repro.executor.engine import ExecutionEngine, ExecutorError
from repro.plans import joingraph as joingraph_module
from repro.plans.joingraph import classify_fk_edge
from repro.plans.logical import AggregateNode, FilterNode, JoinNode, ScanNode, plan_from_dict
from repro.plans.planner import build_plan
from repro.sql.parser import parse_query
from repro.sql.predicates import And, Comparison, Interval, IntervalSet
from repro.sql.query import JoinCondition
from repro.storage.database import Database

from aggregate_reference import stream_aggregate

SCHEMA = Schema.from_tables(
    [
        Table(
            name="fact",
            columns=[
                Column("fact_pk", INTEGER),
                Column("dim_fk", INTEGER),
                Column("aux_fk", INTEGER),
                Column("qty", INTEGER),
                Column("amt", FLOAT),
            ],
            primary_key="fact_pk",
            foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk"), ForeignKey("aux_fk", "aux", "aux_pk")],
        ),
        Table(
            name="dim",
            columns=[
                Column("dim_pk", INTEGER),
                Column("sub_fk", INTEGER),
                Column("price", FLOAT),
                Column("grade", INTEGER),
            ],
            primary_key="dim_pk",
            foreign_keys=[ForeignKey("sub_fk", "sub", "sub_pk")],
        ),
        Table(
            name="aux",
            columns=[Column("aux_pk", INTEGER), Column("weight", FLOAT)],
            primary_key="aux_pk",
        ),
        Table(
            name="sub",
            columns=[Column("sub_pk", INTEGER), Column("level", FLOAT)],
            primary_key="sub_pk",
        ),
    ]
)

#: ``(referencing table, referenced table) -> FK column`` of every schema edge.
EDGES = {("fact", "dim"): "dim_fk", ("fact", "aux"): "aux_fk", ("dim", "sub"): "sub_fk"}

#: The reason any shape may give when a row is not exactly countable.
EXACTNESS = {"summary-not-exact"}


def _ref(table, *pieces):
    return FKReference(table, IntervalSet([Interval(low, high) for low, high in pieces]))


def _database(relations):
    """A dataless database over ``{table: [SummaryRow, ...]}``."""
    summary = DatabaseSummary(schema=SCHEMA)
    database = Database(schema=SCHEMA, providers={})
    for name, rows in relations.items():
        summary.add_relation(RelationSummary(table=name, rows=rows))
        generator = TupleGenerator(table=SCHEMA.table(name), summary=summary.relation(name))
        database.attach(name, DataGenRelation(source=generator))
    return database


def _fixed():
    return _database(_fixed_rows())


def _fixed_rows():
    """The snowflake's summary rows, ``{table: [SummaryRow, ...]}``."""
    return {
        "sub": [
            SummaryRow(count=3, values={"level": 0.1}),
            SummaryRow(count=5, values={"level": 2.35}),
        ],
        "aux": [
            SummaryRow(count=7, values={"weight": 4.8}),
            SummaryRow(count=6, values={"weight": 4.14}),
            SummaryRow(count=4, values={"weight": 0.7}),
        ],
        "dim": [
            SummaryRow(
                count=20,
                values={"price": 4.8, "grade": 2.0},
                fk_refs={"sub_fk": _ref("sub", (0, 8))},
            ),
            SummaryRow(
                count=15,
                values={"price": 4.14, "grade": 5.0},
                fk_refs={"sub_fk": _ref("sub", (3, 8))},
            ),
            # A constant FK: every tuple references sub pk 1.
            SummaryRow(count=10, values={"price": 1.1, "grade": 5.0, "sub_fk": 1.0}),
        ],
        "fact": [
            SummaryRow(
                count=300,
                values={"qty": 3.0, "amt": 0.3},
                fk_refs={"dim_fk": _ref("dim", (0, 20), (30, 45)), "aux_fk": _ref("aux", (0, 17))},
            ),
            SummaryRow(count=0, values={"qty": 5.0, "amt": 9.9}, fk_refs={"dim_fk": _ref("dim", (0, 45))}),
            SummaryRow(
                count=250,
                values={"qty": 8.0, "amt": 7.77},
                fk_refs={"dim_fk": _ref("dim", (10, 45)), "aux_fk": _ref("aux", (5, 13))},
            ),
            SummaryRow(
                count=90,
                values={"qty": 1.0, "amt": 0.01, "dim_fk": 36.0},
                fk_refs={"aux_fk": _ref("aux", (0, 7))},
            ),
        ],
    }


def _run_routes(routes, plan):
    """``{route: (result, cardinalities)}`` of a fresh clone of ``plan`` per route."""
    outcomes = {}
    for name, (_database, execute) in routes.items():
        cloned = plan_from_dict(plan.to_dict())
        cloned.clear_annotations()
        result = execute(cloned)
        outcomes[name] = (result, [node.cardinality for node in cloned.iter_nodes()])
    return outcomes


def _assert_routes_agree(outcomes, label):
    """Same result bits and node cardinalities on every route; returns the default result."""
    reference, reference_cards = outcomes["materialised"]
    (column,) = reference.columns
    for name, (result, cards) in outcomes.items():
        assert cards == reference_cards, (label, name)
        assert list(result.columns) == [column], (label, name)
        assert result.columns[column].tobytes() == reference.columns[column].tobytes(), (
            label,
            name,
            result.columns[column],
            reference.columns[column],
        )
    return outcomes["default"][0]


def _assert_reason(result, reason, label):
    """The default route answered from the summary (``None``) or bailed with ``reason``."""
    if reason is None:
        assert result.aggregate_route == "summary", (label, result.fallback_reasons)
        assert result.fallback_reasons == [], label
        assert result.scanned_rows == 0, label
    else:
        assert result.aggregate_route == "streaming", label
        assert result.fallback_reasons == [reason], label


JOIN_FD = "fact.dim_fk = dim.dim_pk"
JOIN_FA = "fact.aux_fk = aux.aux_pk"
JOIN_DS = "dim.sub_fk = sub.sub_pk"

#: ``(sql, reason)``: ``None`` when the summary route must answer.
CASES = [
    # The owner is the root: value columns, its pk, its FK columns.
    (f"select sum(fact.amt) from fact, dim where {JOIN_FD}", None),
    (f"select avg(fact.qty) from dim, fact where {JOIN_FD} and dim.price < 4.5", None),
    (f"select sum(fact.amt) from fact, dim, aux where {JOIN_FD} and {JOIN_FA} and aux.weight < 4.5",
     None),
    (f"select sum(fact.fact_pk) from fact, dim where {JOIN_FD} "
     "and fact.fact_pk >= 100 and fact.fact_pk < 400", None),
    (f"select sum(fact.fact_pk) from fact, dim where {JOIN_FD} and dim.grade = 2",
     "pk-scattered-by-fk"),
    (f"select sum(fact.dim_fk) from fact, dim where {JOIN_FD}", "fk-argument-not-summable"),
    # The owner is one edge from the root: stars, chains, any FROM order.
    (f"select sum(dim.price) from fact, dim where {JOIN_FD}", None),
    (f"select sum(dim.price) from dim, fact where {JOIN_FD} and fact.qty >= 3", None),
    (f"select avg(dim.grade) from fact, dim where {JOIN_FD} and dim.price != 4.8", None),
    (f"select sum(dim.price) from aux, fact, dim where {JOIN_FD} and {JOIN_FA} and dim.grade = 5",
     None),
    (f"select avg(aux.weight) from fact, dim, aux where {JOIN_FD} and {JOIN_FA} "
     "and fact.fact_pk >= 37 and fact.fact_pk < 433", None),
    (f"select sum(dim.price) from fact, dim where {JOIN_FD} and dim.grade = 5 "
     "and fact.fact_pk >= 100 and fact.fact_pk < 333", None),
    (f"select sum(dim.price) from fact, dim where {JOIN_FD} "
     "and fact.dim_fk >= 12 and fact.dim_fk < 40", None),
    (f"select sum(dim.price) from sub, dim, fact where {JOIN_DS} and {JOIN_FD} and dim.grade = 5",
     None),
    (f"select sum(dim.price) from fact, dim, aux where {JOIN_FD} and {JOIN_FA} and aux.weight > 4.5",
     "summary-not-exact"),
    (f"select sum(dim.dim_pk) from fact, dim where {JOIN_FD}", "fk-argument-not-summable"),
    (f"select sum(dim.sub_fk) from fact, dim, sub where {JOIN_FD} and {JOIN_DS}",
     "fk-argument-not-summable"),
    # The owner is deeper.
    (f"select sum(sub.level) from fact, dim, sub where {JOIN_FD} and {JOIN_DS}", None),
    (f"select avg(sub.level) from sub, dim, fact where {JOIN_DS} and {JOIN_FD} and dim.grade = 5",
     None),
    # A referenced side scattered by its own partial FK: its prefix weighs each target.
    (f"select sum(dim.price) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} and sub.level > 1",
     None),
    # Depth 3, filters at every level.
    (f"select sum(sub.level) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} "
     "and fact.qty >= 3 and dim.price != 4.8 and sub.level > 1", None),
    (f"select avg(sub.level) from sub, dim, fact where {JOIN_DS} and {JOIN_FD} "
     "and fact.fact_pk >= 37 and fact.fact_pk < 433 and dim.grade = 5 and sub.sub_pk >= 2", None),
    (f"select sum(sub.level) from fact, dim, sub, aux where {JOIN_FD} and {JOIN_DS} and {JOIN_FA} "
     "and fact.dim_fk >= 12 and fact.dim_fk < 40 and dim.sub_fk >= 2 and aux.weight > 0.5", None),
    (f"select count(*) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} "
     "and fact.amt < 5.0 and dim.dim_pk >= 6 and sub.level > 1", None),
    (f"select avg(sub.level) from dim, sub, fact where {JOIN_DS} and {JOIN_FD} "
     "and fact.aux_fk < 6 and dim.price > 4.5 and sub.level > 1", "summary-not-exact"),
    (f"select sum(sub.sub_pk) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} and dim.grade = 5",
     "fk-argument-not-summable"),
    # A contradictory filter on the root: nothing joins, the owner's weights stay as wide.
    (f"select sum(sub.level) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} "
     "and fact.qty > 5 and fact.qty < 2", None),
    # Zero joins: the single leaf is its own root.
    ("select sum(fact.amt) from fact where fact.qty >= 3", None),
    ("select sum(fact.fact_pk) from fact where fact.fact_pk >= 7 and fact.fact_pk < 611", None),
    ("select avg(dim.price) from dim where dim.price != 4.8", None),
]


class TestFixedSnowflake:
    @pytest.mark.parametrize("sql, reason", CASES)
    def test_routes_agree_bit_for_bit(self, engine_routes, sql, reason):
        database = _fixed()
        plan = build_plan(parse_query(sql, SCHEMA), SCHEMA)
        result = _assert_routes_agree(_run_routes(engine_routes(database), plan), sql)
        _assert_reason(result, reason, sql)

    def test_a_deep_owner_is_weighed_once_per_table_on_its_path(self, monkeypatch):
        # One unit weight per owner row, carried up owner → root: the plan's
        # memo folds each table of that path once with the owner's width, and
        # no table off the path (aux) at all.
        folded = []
        fold = SummaryColumns.fold

        def recorded(view, box, pk_column, refs, weights):
            prefix = fold(view, box, pk_column, refs, weights)
            folded.append((pk_column, prefix.total.shape[0]))
            return prefix

        monkeypatch.setattr(SummaryColumns, "fold", recorded)
        sql = (
            f"select sum(sub.level) from fact, dim, sub, aux where {JOIN_FD} and {JOIN_DS} "
            f"and {JOIN_FA} and aux.weight > 0.5"
        )
        plan = build_plan(parse_query(sql, SCHEMA), SCHEMA)
        result = ExecutionEngine(database=_fixed()).execute(plan)
        _assert_reason(result, None, sql)
        width = len(_fixed_rows()["sub"])
        assert [pk for pk, entries in folded if entries == width] == ["sub_pk", "dim_pk", "fact_pk"]

    def test_the_root_is_not_the_anchor(self):
        # The planner anchors a chain at its middle table; the FK root is
        # the table no edge references.
        sql = f"select sum(dim.price) from fact, dim, sub where {JOIN_FD} and {JOIN_DS}"
        plan = build_plan(parse_query(sql, SCHEMA), SCHEMA)
        anchor = plan.child
        while isinstance(anchor, JoinNode):
            anchor = anchor.left
        assert anchor.table == "dim"
        assert ExecutionEngine(database=_fixed()).execute(plan).aggregate_route == "summary"

    def test_unresolvable_argument_is_not_answered_from_the_summary(self):
        # The planner rejects an argument no joined table owns; a hand-built
        # plan reaches the engine, whose summary route declines it
        # (argument-not-resolvable) and leaves it to the executed child's
        # error instead of answering.
        plan = AggregateNode(
            child=JoinNode(
                left=ScanNode(table="fact"),
                right=ScanNode(table="dim"),
                condition=JoinCondition("fact", "dim_fk", "dim", "dim_pk"),
            ),
            function="sum",
            argument="pk_of_nothing",
        )
        database = _fixed()
        for execute in (
            ExecutionEngine(database=database).execute,
            partial(stream_aggregate, database),
        ):
            with pytest.raises(ExecutorError, match="pk_of_nothing"):
                execute(plan_from_dict(plan.to_dict()))

    def test_single_leaf_sum_is_rounded_once(self, engine_routes):
        # 1 × 4.8 + 7 × 4.14: the rounded products 4.8 and 28.98 add up to
        # 33.779999999999994, the exact sum of the eight tuples rounds to 33.78.
        database = _database(
            {
                "aux": [
                    SummaryRow(count=1, values={"weight": 4.8}),
                    SummaryRow(count=7, values={"weight": 4.14}),
                ]
            }
        )
        plan = build_plan(parse_query("select sum(aux.weight) from aux", SCHEMA), SCHEMA)
        result = _assert_routes_agree(_run_routes(engine_routes(database), plan), "aux")
        _assert_reason(result, None, "aux")
        assert result.columns["sum"][0] == math.fsum([4.8] + [4.14] * 7) == 33.78

    def test_owner_row_counts_add_up_to_the_join_count(self):
        where = f"{JOIN_FD} and dim.grade = 5 and fact.fact_pk >= 100 and fact.fact_pk < 333"
        engine = ExecutionEngine(database=_fixed())
        counted = engine.execute(
            build_plan(parse_query(f"select count(*) from fact, dim where {where}", SCHEMA), SCHEMA)
        )
        averaged_plan = build_plan(
            parse_query(f"select avg(dim.price) from fact, dim where {where}", SCHEMA), SCHEMA
        )
        averaged = engine.execute(averaged_plan)
        assert counted.aggregate_route == averaged.aggregate_route == "summary"
        # The AVG plan's join annotation is the walk's per-owner-row total.
        assert averaged_plan.child.cardinality == int(counted.columns["count"][0]) > 0


def _scaled(relations, factor):
    """``relations`` with every count and pk/FK coordinate multiplied by ``factor``."""
    scaled = {}
    for name, rows in relations.items():
        fks = set(SCHEMA.table(name).foreign_key_columns)
        scaled[name] = [
            SummaryRow(
                count=row.count * factor,
                values={
                    column: value * factor if column in fks else value
                    for column, value in row.values.items()
                },
                fk_refs={
                    column: _ref(
                        ref.ref_table,
                        *((piece.low * factor, piece.high * factor) for piece in ref.intervals),
                    )
                    for column, ref in row.fk_refs.items()
                },
            )
            for row in rows
        ]
    return scaled


def _scaled_sql(sql, factor):
    """``sql`` with every pk/FK literal multiplied by ``factor``."""
    return re.sub(
        r"(_(?:pk|fk) (?:>=|<=|<|>|=) )(\d+)",
        lambda match: f"{match.group(1)}{int(match.group(2)) * factor}",
        sql,
    )


class TestScaleFree:
    """The fold's work depends on the summary rows, never on the tuples they stand for."""

    SQLS = [sql for sql, reason in CASES if reason is None] + [
        re.sub(r"select \w+\([\w.]+\)", "select count(*)", sql)
        for sql, reason in CASES
        if reason is None and "," in sql.split(" where ")[0]
    ]

    def _evaluations(self, monkeypatch, database, sql):
        """``(result, fold steps, prefix evaluations)`` of one default-route run."""
        steps, calls = [], []
        fold, evaluate = SummaryColumns.fold, Prefix.__call__

        def counted_fold(view, *args, **kwargs):
            steps.append(view)
            return fold(view, *args, **kwargs)

        def counted_call(prefix, x):
            calls.append(len(x))
            return evaluate(prefix, x)

        monkeypatch.setattr(SummaryColumns, "fold", counted_fold)
        monkeypatch.setattr(Prefix, "__call__", counted_call)
        result = ExecutionEngine(database=database).execute(
            build_plan(parse_query(sql, SCHEMA), SCHEMA)
        )
        monkeypatch.undo()
        return result, len(steps), len(calls)

    @pytest.mark.parametrize("sql", SQLS)
    def test_evaluations_are_equal_at_one_and_a_million(self, monkeypatch, sql):
        relations = _fixed_rows()
        small, small_steps, small_calls = self._evaluations(
            monkeypatch, _database(relations), sql
        )
        large, large_steps, large_calls = self._evaluations(
            monkeypatch, _database(_scaled(relations, 10**6)), _scaled_sql(sql, 10**6)
        )
        for result in (small, large):
            _assert_reason(result, None, sql)
        assert small_steps > 0
        assert (small_steps, small_calls) == (large_steps, large_calls)
        if "count(*)" in sql:
            assert large.columns["count"][0] == small.columns["count"][0] * 10**6


# -- Hypothesis: random snowflake summaries, left-deep orders, filters, arguments --

_FLOATS = st.sampled_from([0.1, 0.3, 0.7, 2.35, 4.14, 4.8, 7.77, 123.456, -0.7, 1e-3, 2.0])
_INTEGRALS = st.integers(-3, 9).map(float)

#: Filters per table: exact boxes on value, pk and FK columns, and
#: epsilon-approximated float comparisons that are decided per summary row.
FILTERS = {
    "fact": [
        Comparison("qty", ">=", 3.0),
        Comparison("amt", "<", 5.0),
        Comparison("amt", "=", 0.3),
        And([Comparison("fact_pk", ">=", 100.0), Comparison("fact_pk", "<", 333.0)]),
        And([Comparison("dim_fk", ">=", 4.0), Comparison("dim_fk", "<", 11.0)]),
        Comparison("aux_fk", "<", 6.0),
    ],
    "dim": [
        Comparison("grade", "=", 5.0),
        Comparison("price", ">", 4.5),
        Comparison("price", "!=", 4.8),
        Comparison("dim_pk", ">=", 6.0),
        Comparison("sub_fk", ">=", 2.0),
    ],
    "aux": [Comparison("weight", "<", 4.5), Comparison("aux_pk", "<", 9.0)],
    "sub": [Comparison("level", ">", 1.0), Comparison("sub_pk", ">=", 2.0)],
}

#: Table sets of every FK–PK out-tree of the schema with at least one join.
TREES = [
    ("fact", "dim"),
    ("fact", "aux"),
    ("dim", "sub"),
    ("fact", "dim", "aux"),
    ("fact", "dim", "sub"),
    ("fact", "dim", "aux", "sub"),
]


@st.composite
def _fk_column(draw, ref_table, total):
    """``(fk_refs entry, values entry)``: a spread of 1–2 pieces, or a constant target."""
    if draw(st.integers(0, 4)) == 0:
        return {}, float(draw(st.integers(0, total - 1)))
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        low = draw(st.integers(0, total - 1))
        pieces.append(Interval(low, draw(st.integers(low + 1, total))))
    return FKReference(ref_table, IntervalSet(pieces)), None


@st.composite
def _relation(draw, values, fks, max_count, totals):
    """1–4 summary rows; the first is never empty, so the relation can be referenced."""
    rows = []
    for index in range(draw(st.integers(1, 4))):
        count = draw(st.integers(1 if index == 0 else 0, max_count))
        row_values = {column: draw(strategy) for column, strategy in values.items()}
        fk_refs = {}
        for column, ref_table in fks.items():
            ref, constant = draw(_fk_column(ref_table, totals[ref_table]))
            if constant is None:
                fk_refs[column] = ref
            else:
                row_values[column] = constant
        rows.append(SummaryRow(count=count, values=row_values, fk_refs=fk_refs))
    return rows


@st.composite
def snowflakes(draw):
    relations, totals = {}, {}

    def add(name, rows):
        relations[name] = rows
        totals[name] = sum(row.count for row in rows)

    add("sub", draw(_relation({"level": _FLOATS}, {}, 6, totals)))
    add("aux", draw(_relation({"weight": _FLOATS}, {}, 12, totals)))
    add("dim", draw(_relation({"price": _FLOATS, "grade": _INTEGRALS}, {"sub_fk": "sub"}, 25, totals)))
    add(
        "fact",
        draw(
            _relation(
                {"qty": _INTEGRALS, "amt": _FLOATS}, {"dim_fk": "dim", "aux_fk": "aux"}, 150, totals
            )
        ),
    )
    return relations


@st.composite
def join_sums(draw):
    """A left-deep SUM/AVG plan over one out-tree: any connected order, any filters."""
    tables = draw(st.sampled_from(TREES))
    order = [draw(st.sampled_from(tables))]
    while len(order) < len(tables):
        frontier = [
            table
            for table in tables
            if table not in order
            and any((table, other) in EDGES or (other, table) in EDGES for other in order)
        ]
        order.append(draw(st.sampled_from(frontier)))

    def leaf(table):
        predicate = draw(st.none() | st.sampled_from(FILTERS[table]))
        scan = ScanNode(table=table)
        return scan if predicate is None else FilterNode(child=scan, table=table, predicate=predicate)

    plan = leaf(order[0])
    for index, table in enumerate(order[1:], start=1):
        other = next(
            joined for joined in order[:index] if (table, joined) in EDGES or (joined, table) in EDGES
        )
        fk_table, ref_table = (table, other) if (table, other) in EDGES else (other, table)
        condition = JoinCondition(fk_table, EDGES[fk_table, ref_table], ref_table, f"{ref_table}_pk")
        if draw(st.booleans()):
            condition = JoinCondition(ref_table, f"{ref_table}_pk", fk_table, EDGES[fk_table, ref_table])
        plan = JoinNode(left=plan, right=leaf(table), condition=condition)
    owner = draw(st.sampled_from(tables))
    column = draw(st.sampled_from(SCHEMA.table(owner).column_names))
    function = draw(st.sampled_from(["sum", "avg"]))
    return AggregateNode(child=plan, function=function, argument=f"{owner}.{column}"), tables


def _expected_reasons(tables, argument):
    """Every reason the default route may give for this argument over this tree."""
    owner, column = argument.split(".")
    (root,) = [table for table in tables if not any((other, table) in EDGES for other in tables)]
    table = SCHEMA.table(owner)
    if column == table.primary_key:
        if owner == root:
            return EXACTNESS | {None, "pk-scattered-by-fk"}
        return EXACTNESS | {"fk-argument-not-summable"}
    if column in table.foreign_key_columns:
        # Summable only over rows that store the FK as a constant.
        return EXACTNESS | {None, "fk-argument-not-summable"}
    return EXACTNESS | {None}


class TestOneFkTestPerJoin:
    """The FK test runs in the engine only, at most once per join node per ``execute``."""

    @pytest.mark.parametrize(
        "sql",
        [
            # Chains: answered from the summaries, or streamed.
            f"select count(*) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} and sub.level > 1",
            f"select * from fact, dim, sub where {JOIN_FD} and {JOIN_DS}",
            # Stars: answered from the summaries, or streamed.
            f"select sum(fact.amt) from fact, dim, aux where {JOIN_FD} and {JOIN_FA} "
            "and aux.weight < 4.5",
            f"select * from fact, dim, aux where {JOIN_FD} and {JOIN_FA} and aux.weight < 4.5",
        ],
    )
    @pytest.mark.parametrize("streamed", [False, True])
    def test_each_join_is_classified_at_most_once(self, monkeypatch, sql, streamed):
        calls = []

        def counting(condition, schema):
            calls.append(condition)
            return classify_fk_edge(condition, schema)

        for module in (joingraph_module, engine_module):
            monkeypatch.setattr(module, "classify_fk_edge", counting)
        plan = build_plan(parse_query(sql, SCHEMA), SCHEMA)
        assert calls == []
        joins = [node.condition for node in plan.iter_nodes() if isinstance(node, JoinNode)]
        database = _fixed()
        engine = ExecutionEngine(database=database)
        execute = partial(stream_aggregate, database) if streamed else engine.execute
        for _ in range(2):
            calls.clear()
            execute(plan)
            assert 0 < len(calls) <= len(joins)
            assert all(sum(call is join for call in calls) <= 1 for join in joins)


#: dim stores its FK to sub as a constant and no dim row passes the filter:
#: dim's fold has no run, yet its weight must still carry one entry per row
#: of sub, the SUM's owner (the fold once indexed sub's two rows with one).
_NO_RUN_BELOW_THE_ROOT = {
    "relations": {
        "sub": [
            SummaryRow(count=1, values={"level": 0.1}),
            SummaryRow(count=0, values={"level": 0.1}),
        ],
        "aux": [SummaryRow(count=1, values={"weight": 0.1})],
        "dim": [SummaryRow(count=1, values={"price": 0.1, "grade": 0.0, "sub_fk": 0.0})],
        "fact": [
            SummaryRow(count=1, values={"qty": 0.0, "amt": 0.1, "dim_fk": 0.0, "aux_fk": 0.0})
        ],
    },
    "case": (
        build_plan(
            parse_query(
                f"select sum(sub.level) from fact, dim, sub where {JOIN_FD} and {JOIN_DS} "
                "and dim.grade = 5",
                SCHEMA,
            ),
            SCHEMA,
        ),
        ("fact", "dim", "sub"),
    ),
}


class TestRandomSnowflakes:
    @settings(max_examples=150, deadline=None)
    @given(relations=snowflakes(), case=join_sums())
    @example(**_NO_RUN_BELOW_THE_ROOT)
    def test_routes_agree_and_bails_are_catalogued(self, engine_routes, relations, case):
        plan, tables = case
        database = _database(relations)
        result = _assert_routes_agree(_run_routes(engine_routes(database), plan), plan.argument)
        reason = result.fallback_reasons[-1] if result.fallback_reasons else None
        assert reason in _expected_reasons(tables, plan.argument), (plan.argument, reason)
        if reason is None:
            _assert_reason(result, None, plan.argument)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.dictionaries(
            st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
            st.integers(1, 40),
            max_size=12,
        )
    )
    def test_is_fsum_of_the_expanded_multiset(self, weights):
        expanded = [value for value, count in weights.items() for _ in range(count)]
        exact = engine_module._exact_sum(weights)
        assert np.float64(exact).tobytes() == np.float64(math.fsum(expanded)).tobytes()

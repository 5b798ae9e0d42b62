"""A deterministic planner producing left-deep filter/join trees.

HYDRA relies on the client and vendor sites choosing the *same* plan for a
query (the paper uses CODD's metadata transfer to guarantee this on
PostgreSQL).  In this reproduction the guarantee comes from determinism: the
planner derives the plan purely from the query text and the schema, so both
sites — and the verification step — always operate on structurally identical
plans and the per-operator cardinalities are directly comparable.

Plan shape:

* one ``Scan`` per table, with a ``Filter`` directly above it whenever the
  query has a predicate on that table (filters are pushed down to the scans,
  exactly as in the paper's Figure 1c);
* a left-deep chain of key/foreign-key ``Join`` operators.  The anchor (the
  left-most input) is chosen as the table that *references* the others — the
  fact table in a star query — so every join step filters the anchor rather
  than multiplying it;
* an optional ``Project`` / ``Aggregate`` on top.

Plan shape — connectivity, anchor scoring, attachment order — lives in the
:class:`~repro.plans.joingraph.JoinGraph` the planner builds from the
query's join conditions; this module turns the graph's deterministic answers
into plan trees and reports which columns each scan must output.  Whether a
join follows a foreign-key edge is decided where it is used, by the engine
and the preprocessor (:func:`~repro.plans.joingraph.classify_fk_edge`).
"""

from __future__ import annotations

import re

from ..catalog.schema import Schema, Table
from ..sql.predicates import BoxCondition, Predicate, box_semantics_exact
from ..sql.query import Query
from .joingraph import JoinGraph
from .logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    leaf_scan,
)

__all__ = [
    "PlannerError",
    "build_plan",
    "choose_anchor",
    "compute_pushdowns",
    "exact_predicate_box",
    "parse_aggregate_projection",
]


class PlannerError(ValueError):
    """Raised when no valid left-deep key/FK join plan exists for the query."""


_AGGREGATE_PROJECTION = re.compile(r"^(count|sum|avg)\((.+)\)$", re.IGNORECASE)


def parse_aggregate_projection(projection: list[str]) -> tuple[str, str | None] | None:
    """``(function, argument)`` when the projection is a single aggregate.

    ``["count(*)"]`` yields ``("count", None)``; ``["sum(T.C)"]`` yields
    ``("sum", "T.C")``.  Returns ``None`` for non-aggregate projections;
    raises :class:`PlannerError` for malformed aggregates (``count`` with a
    column argument, ``sum``/``avg`` over ``*``).
    """
    if len(projection) != 1:
        return None
    match = _AGGREGATE_PROJECTION.match(projection[0].strip())
    if match is None:
        return None
    function, argument = match.group(1).lower(), match.group(2).strip()
    if function == "count":
        if argument != "*":
            raise PlannerError(f"count over a column is not supported: {projection[0]!r}")
        return "count", None
    if argument == "*":
        raise PlannerError(f"{function}(*) is not a valid aggregate: {projection[0]!r}")
    return function, argument


def _leaf_plan(query: Query, table: str) -> PlanNode:
    node: PlanNode = ScanNode(table=table)
    if query.has_filter(table):
        node = FilterNode(child=node, table=table, predicate=query.filter_for(table))
    return node


def choose_anchor(schema: Schema, query: Query) -> str:
    """Pick the anchor (left-most) table of the left-deep join chain."""
    return JoinGraph.from_query(query).choose_anchor(schema)


def build_plan(query: Query, schema: Schema) -> PlanNode:
    """Build the deterministic left-deep plan for an SPJ query."""
    query.validate(schema)
    graph = JoinGraph.from_query(query)
    anchor = graph.choose_anchor(schema)

    plan = _leaf_plan(query, anchor)
    joined = {anchor}
    attached_edges = 0
    for condition, new_table in graph.left_deep_steps(anchor):
        attached_edges += 1
        if new_table is None:
            # Redundant edge inside the already-joined tables: consumed
            # without a join node (it would not change the output).
            continue
        plan = JoinNode(left=plan, right=_leaf_plan(query, new_table), condition=condition)
        joined.add(new_table)

    if attached_edges < len(graph.joins):
        unattached = [
            str(condition.as_predicate())
            for condition in graph.joins
            if not (condition.left_table in joined and condition.right_table in joined)
        ]
        raise PlannerError(
            f"query {query.name!r} has disconnected join graph: "
            f"cannot reach {sorted(set(query.tables) - joined)} "
            f"via join predicate(s) {', '.join(unattached)}"
        )

    unjoined = [table for table in query.tables if table not in joined]
    if unjoined:
        raise PlannerError(
            f"query {query.name!r} lists tables with no join condition: {unjoined}"
        )

    aggregate = parse_aggregate_projection(query.projection)
    if aggregate is not None:
        function, argument = aggregate
        if argument is not None:
            _validate_aggregate_argument(query, schema, argument)
        return AggregateNode(child=plan, function=function, argument=argument)
    if query.projection and query.projection != ["*"]:
        return ProjectNode(child=plan, columns=list(query.projection))
    return plan


def _validate_aggregate_argument(query: Query, schema: Schema, argument: str) -> None:
    """Check that a SUM/AVG argument resolves to exactly one query column."""
    if "." in argument:
        table, column = argument.split(".", 1)
        if table not in query.tables:
            raise PlannerError(
                f"aggregate argument {argument!r} references a table not in FROM"
            )
        if not schema.table(table).has_column(column):
            raise PlannerError(
                f"aggregate argument {argument!r} is not a column of {table!r}"
            )
        return
    owners = [
        table
        for table in query.tables
        if schema.has_table(table) and schema.table(table).has_column(argument)
    ]
    if not owners:
        raise PlannerError(f"aggregate argument {argument!r} matches no query column")
    if len(owners) > 1:
        raise PlannerError(
            f"aggregate argument {argument!r} is ambiguous across tables {owners}"
        )


# ---------------------------------------------------------------------------
# Projection pushdown analysis
# ---------------------------------------------------------------------------


def compute_pushdowns(plan: PlanNode, schema: Schema) -> dict[int, tuple[str, ...] | None]:
    """The columns each :class:`ScanNode` of a plan must output, keyed by ``node_id``.

    ``None`` means every column (a ``SELECT *`` style output: without a
    Project/Aggregate root the raw join output is the result).  Otherwise
    a scan outputs the columns referenced anywhere upstream — join keys,
    projections, aggregate arguments and the predicates of filters that do
    not sit directly on the scan, in schema order; a filter sitting directly
    on its scan is fused into it, so columns only it reads are dropped
    after its mask.  Join-key requirements are read off the join
    conditions' *predicate algebra*: every qualified column reference of
    the condition-as-predicate is required on its table, which covers
    disjunctive joins (each alternative's key pair) with the same rule as
    plain equi-joins.  The execution engine generates only these columns of
    a dataless relation's filtered stream.
    """
    scans = [node for node in plan.iter_nodes() if isinstance(node, ScanNode)]
    if not isinstance(plan, (ProjectNode, AggregateNode)):
        return {scan.node_id: None for scan in scans}
    tables = {scan.table for scan in scans}
    required: dict[str, set[str]] = {table: set() for table in tables}

    def require_column(name: str) -> None:
        """Mark a (possibly qualified) referenced column as required."""
        if "." in name:
            table, column = name.split(".", 1)
            if table in required:
                required[table].add(column)
        else:
            for table in tables:
                if schema.has_table(table) and schema.table(table).has_column(name):
                    required[table].add(name)

    for node in plan.iter_nodes():
        if isinstance(node, FilterNode):
            # A filter above the scan is evaluated on the scan's output.
            if node.table in required and leaf_scan(node) is None:
                required[node.table] |= node.predicate.columns()
        elif isinstance(node, JoinNode):
            for ref in node.condition.as_predicate().itercolumns():
                if ref.table in required:
                    required[ref.table].add(ref.column)
        elif isinstance(node, ProjectNode):
            for name in node.columns:
                require_column(name)
        elif isinstance(node, AggregateNode):
            if node.argument is not None:
                require_column(node.argument)

    result: dict[int, tuple[str, ...] | None] = {}
    for scan in scans:
        order = schema.table(scan.table).column_names if schema.has_table(scan.table) else []
        result[scan.node_id] = tuple(name for name in order if name in required[scan.table])
    return result


def exact_predicate_box(predicate: Predicate, table: Table) -> BoxCondition | None:
    """``predicate`` as an *exactly equivalent* box condition, else ``None``.

    Box conditions on continuous columns approximate ``=``, ``!=``, ``<=``
    and ``>`` with epsilon-widened half-open intervals; routing execution or
    summary arithmetic through such a box could diverge from predicate
    evaluation on values inside the epsilon window, so those predicates are
    rejected (see :func:`repro.sql.predicates.box_semantics_exact`).
    """
    discrete = {column.name: column.dtype.is_discrete for column in table.columns}
    if not box_semantics_exact(predicate, discrete):
        return None
    try:
        return predicate.to_box(discrete)
    except ValueError:
        return None

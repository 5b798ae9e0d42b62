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

Structural analysis of the joins — classification, connectivity, anchor
scoring, attachment order — lives in the :class:`~repro.plans.joingraph
.JoinGraph` the planner builds from the query's predicate algebra; this
module turns the graph's deterministic answers into plan trees and pushdown
metadata.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..catalog.schema import Schema, Table
from ..sql.predicates import (
    BoxCondition,
    Interval,
    IntervalSet,
    Predicate,
    box_semantics_exact,
)
from ..sql.query import Query
from .joingraph import JoinGraph, classify_fk_edge
from .logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    leaf_scan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.summary import RelationSummary

__all__ = [
    "PlannerError",
    "ScanPushdown",
    "build_plan",
    "choose_anchor",
    "compute_pushdowns",
    "compute_semijoin_pushdowns",
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
    return JoinGraph.from_query(query, schema).choose_anchor(schema)


def build_plan(query: Query, schema: Schema) -> PlanNode:
    """Build the deterministic left-deep plan for an SPJ query."""
    query.validate(schema)
    graph = JoinGraph.from_query(query, schema)
    anchor = graph.choose_anchor(schema)

    plan = _leaf_plan(query, anchor)
    joined = {anchor}
    attached_edges = 0
    for edge, new_table in graph.left_deep_steps(anchor):
        attached_edges += 1
        if new_table is None:
            # Redundant edge inside the already-joined tables: consumed
            # without a join node (it would not change the output).
            continue
        plan = JoinNode(left=plan, right=_leaf_plan(query, new_table), condition=edge.condition)
        joined.add(new_table)

    if attached_edges < len(graph.edges):
        unattached = [
            str(edge.predicate())
            for edge in graph.edges
            if not (edge.tables[0] in joined and edge.tables[1] in joined)
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
# Projection / predicate pushdown analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanPushdown:
    """What a single scan actually has to produce.

    ``generate_columns`` is the set of columns the scan must generate at all
    (``None`` means every column, e.g. for ``SELECT *``); ``output_columns``
    is the subset that must survive past the scan's own filter — predicate
    columns that nothing upstream references can be dropped after the filter
    mask is applied.  ``predicate`` is the conjunctive filter sitting directly
    on top of the scan, which the engine may fuse into the scan itself.
    """

    table: str
    generate_columns: tuple[str, ...] | None
    output_columns: tuple[str, ...] | None
    predicate: Predicate | None


def compute_pushdowns(plan: PlanNode, schema: Schema) -> dict[int, ScanPushdown]:
    """Per-:class:`ScanNode` projection and predicate pushdown for a plan.

    Walks the plan once and computes, for every scan, the columns referenced
    anywhere upstream (join keys, filter predicates, projections, aggregate
    arguments — everything for ``SELECT *`` style outputs) and the filter
    that sits directly above the scan.  Join-key requirements are read off
    the join conditions' *predicate algebra*: every qualified column
    reference of the condition-as-predicate is required on its table, which
    covers disjunctive joins (each alternative's key pair) with the same
    rule as plain equi-joins.  The execution engine uses the result to
    generate only the requested columns of dataless relations and to
    evaluate pushed filters batch-by-batch, keeping a scan's peak memory
    O(batch_size) instead of O(rows × columns).  Keyed by ``node_id``.
    """
    scans = [node for node in plan.iter_nodes() if isinstance(node, ScanNode)]
    if not scans:
        return {}
    tables = {scan.table for scan in scans}
    required: dict[str, set[str]] = {table: set() for table in tables}
    predicate_only: dict[str, set[str]] = {table: set() for table in tables}
    pushed: dict[int, Predicate] = {}
    # Without a Project/Aggregate root the raw join output is the result, so
    # every column of every table is needed.
    select_all = not isinstance(plan, (ProjectNode, AggregateNode))

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
            if node.table not in required:
                continue
            if isinstance(node.child, ScanNode) and node.child.table == node.table:
                pushed[node.child.node_id] = node.predicate
                predicate_only[node.table] |= node.predicate.columns()
            else:
                # The filter is evaluated above the scan, so its columns must
                # flow through the scan's output.
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

    result: dict[int, ScanPushdown] = {}
    for scan in scans:
        predicate = pushed.get(scan.node_id)
        if select_all:
            result[scan.node_id] = ScanPushdown(scan.table, None, None, predicate)
            continue
        output = required[scan.table]
        generate = output | predicate_only[scan.table]
        order = schema.table(scan.table).column_names if schema.has_table(scan.table) else []
        result[scan.node_id] = ScanPushdown(
            table=scan.table,
            generate_columns=tuple(name for name in order if name in generate),
            output_columns=tuple(name for name in order if name in output),
            predicate=predicate,
        )
    return result


# ---------------------------------------------------------------------------
# Semi-join foreign-key pushdown analysis
# ---------------------------------------------------------------------------


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


def _referenced_filter_box(subtree: PlanNode, table: Table) -> BoxCondition:
    """The referenced side's own pushed filter, as a *sound* box.

    Only the filter sitting directly on the referenced table's scan counts
    (other operators in the subtree can merely remove further rows, which
    keeps any projection derived from this box a superset).  When the filter
    is not exactly box-representable the unconstrained box is returned —
    still sound, just less selective.
    """
    for node in subtree.iter_nodes():
        if (
            isinstance(node, FilterNode)
            and node.table == table.name
            and isinstance(node.child, ScanNode)
        ):
            box = exact_predicate_box(node.predicate, table)
            return box if box is not None else BoxCondition({})
    return BoxCondition({})


def compute_semijoin_pushdowns(
    plan: PlanNode,
    schema: Schema,
    summaries: Mapping[str, "RelationSummary"],
) -> dict[int, BoxCondition]:
    """Per-:class:`ScanNode` semi-join boxes for key/foreign-key joins.

    For every join whose direct child is the leaf access path of the
    *referencing* (foreign-key) side, the referenced side's matching pk
    index intervals — computed from its relation summary and its own pushed
    filter box — are projected into a box condition on the referencing
    side's FK column.  Probe-side summary segments whose admissible FK
    targets all fall outside those intervals can then be skipped without
    generating a tuple, and generated probe rows outside them can be masked
    before the hash probe: either way no join partner exists for them.

    Join eligibility is the graph classification
    (:func:`~repro.plans.joingraph.classify_fk_edge`): only plain equi-joins that follow a schema FK
    edge participate — a disjunctive join never classifies, so it never
    contributes a box.

    The projection is a sound superset of the referenced pks that survive
    into the build side, so skipping/masking never changes the join output.
    It is restricted to the join *directly above* the leaf because a box
    borrowed from a later join in the chain would change the intermediate
    join's output (and its AQP annotation).  Keyed by ``node_id`` of the
    referencing side's scan; only summary-backed referenced relations (whose
    regenerated pks are the auto-numbered indices the summary describes)
    contribute.
    """
    result: dict[int, BoxCondition] = {}
    for node in plan.iter_nodes():
        if not isinstance(node, JoinNode):
            continue
        edge = classify_fk_edge(node.condition, schema)
        if edge is None:
            continue
        fk_table, fk_column, ref_table_name, ref_column = edge
        for probe_child, build_child in (
            (node.left, node.right),
            (node.right, node.left),
        ):
            leaf = leaf_scan(probe_child)
            if leaf is None:
                continue
            scan, _filter = leaf
            if scan.table != fk_table:
                continue
            summary = summaries.get(ref_table_name)
            if summary is None:
                continue
            ref_box = _referenced_filter_box(build_child, schema.table(ref_table_name))
            intervals = summary.matching_pk_intervals(ref_box, pk_column=ref_column)
            if intervals is None:
                continue
            # An unselective projection (every referenced pk index reachable)
            # cannot skip or mask anything: FK targets are valid pks by
            # construction, so don't pay the per-batch evaluation for it.
            total = summary.total_rows
            covered = IntervalSet([Interval(0.0, float(total))]).subtract(intervals)
            if total > 0 and covered.count_integers() == 0:
                continue
            box = BoxCondition({fk_column: intervals})
            existing = result.get(scan.node_id)
            result[scan.node_id] = box if existing is None else existing.intersect(box)
    return result

"""Workload decomposition into per-relation cardinality constraints.

This is the "Preprocessor" box of the paper's architecture (Figure 2), sourced
conceptually from DataSynth: it makes every relation independently solvable by
translating each annotated operator edge of every AQP into a constraint on a
*single* relation.

The key observation (valid for the SPJ / key-foreign-key workloads HYDRA
targets) is that a join ``R ⋈_{R.fk = S.pk} S`` does not multiply the rows of
the referencing side: each R-tuple either finds its unique S partner or does
not.  Hence the annotated output of the join is a constraint on the *anchor*
relation alone — the relation whose rows the intermediate result corresponds
to one-for-one (the fact table of a star query, the innermost fact of a
snowflake chain).  Conditions contributed by joined dimensions are attached to
the anchor's predicate as nested *referenced predicates* along the foreign-key
path (``lineitem → orders → customer``), and stay symbolic until the
referenced relations have been summarised (see
:mod:`repro.core.constraints`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..catalog.metadata import DatabaseMetadata
from ..catalog.schema import Schema, Table
from ..plans.aqp import AnnotatedQueryPlan
from ..plans.joingraph import classify_fk_edge
from ..plans.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from ..sql.predicates import BoxCondition
from ..sql.query import DisjunctiveJoinCondition
from .constraints import (
    CardinalityConstraint,
    ReferencedPredicate,
    RelationConstraints,
    SymbolicPredicate,
)
from .errors import DecompositionError

__all__ = ["WorkloadConstraints", "decompose_workload", "decompose_plan"]


@dataclass
class WorkloadConstraints:
    """Per-relation constraint sets for a whole workload."""

    schema: Schema
    relations: dict[str, RelationConstraints] = field(default_factory=dict)

    def for_relation(self, name: str) -> RelationConstraints:
        if name not in self.relations:
            raise KeyError(f"no constraints collected for relation {name!r}")
        return self.relations[name]

    def total_constraints(self) -> int:
        return sum(len(rel.constraints) for rel in self.relations.values())


@dataclass
class _TableNode:
    """Mutable per-table state while walking one plan.

    ``box`` accumulates the table's own filter conditions; ``children`` maps a
    foreign-key column of this table to the node of the referenced table that
    has been joined below it.
    """

    table: str
    box: BoxCondition
    children: dict[str, "_TableNode"] = field(default_factory=dict)

    def to_symbolic(self) -> SymbolicPredicate:
        references = {
            fk_column: ReferencedPredicate(table=child.table, predicate=child.to_symbolic())
            for fk_column, child in self.children.items()
        }
        return SymbolicPredicate.make(box=self.box, references=references)


@dataclass
class _SubPlanState:
    """Result of decomposing a sub-plan.

    ``anchor`` is the table whose rows the sub-plan output corresponds 1:1 to;
    ``nodes`` indexes every base table of the sub-plan by name.
    """

    anchor: _TableNode
    nodes: dict[str, _TableNode]


def _discrete_map(table: Table) -> dict[str, bool]:
    return {column.name: column.dtype.is_discrete for column in table.columns}


def decompose_workload(
    aqps: Iterable[AnnotatedQueryPlan],
    metadata: DatabaseMetadata,
) -> WorkloadConstraints:
    """Decompose every AQP of a workload into per-relation constraints.

    The returned :class:`WorkloadConstraints` contains an entry for *every*
    table of the schema (unconstrained tables simply carry their row count,
    so the summary generator can still regenerate them at the right size).
    """
    schema = metadata.schema
    workload = WorkloadConstraints(schema=schema)
    for table in schema:
        workload.relations[table.name] = RelationConstraints(
            relation=table.name,
            row_count=metadata.row_count(table.name),
        )

    for aqp in aqps:
        decompose_plan(aqp, workload)
    return workload


def decompose_plan(aqp: AnnotatedQueryPlan, workload: WorkloadConstraints) -> None:
    """Decompose one AQP, adding its constraints to ``workload`` in place."""
    _walk(aqp.plan, aqp, workload)


def _walk(
    node: PlanNode, aqp: AnnotatedQueryPlan, workload: WorkloadConstraints
) -> _SubPlanState:
    schema = workload.schema

    if isinstance(node, ScanNode):
        table_node = _TableNode(table=node.table, box=BoxCondition({}))
        state = _SubPlanState(anchor=table_node, nodes={node.table: table_node})
        _emit(node, state, aqp, workload)
        return state

    if isinstance(node, FilterNode):
        child = _walk(node.child, aqp, workload)
        if node.table not in child.nodes:
            raise DecompositionError(
                f"filter on {node.table!r} sits above a sub-plan that does not "
                f"contain that table (query {aqp.name!r})"
            )
        table = schema.table(node.table)
        try:
            box = node.predicate.to_box(_discrete_map(table))
        except ValueError as exc:
            # Box normalisation rejects e.g. multi-column disjunctions with a
            # plain ValueError; surface it under the documented contract.
            raise DecompositionError(
                f"filter on {node.table!r} cannot be normalised to a box "
                f"(query {aqp.name!r}): {exc}"
            ) from exc
        target = child.nodes[node.table]
        target.box = target.box.intersect(box)
        _emit(node, child, aqp, workload)
        return child

    if isinstance(node, JoinNode):
        left = _walk(node.left, aqp, workload)
        right = _walk(node.right, aqp, workload)
        state = _join_state(node, left, right, schema, aqp)
        _emit(node, state, aqp, workload)
        return state

    if isinstance(node, (ProjectNode, AggregateNode)):
        child = _walk(node.child, aqp, workload)
        # Projection and COUNT(*) do not change which tuples survive, so they
        # add no volumetric constraint beyond their child's.
        return child

    raise DecompositionError(f"unsupported plan node {type(node).__name__}")


def _join_state(
    node: JoinNode,
    left: _SubPlanState,
    right: _SubPlanState,
    schema: Schema,
    aqp: AnnotatedQueryPlan,
) -> _SubPlanState:
    condition = node.condition
    if isinstance(condition, DisjunctiveJoinCondition):
        raise DecompositionError(
            f"join {condition.as_predicate()} in query {aqp.name!r} is disjunctive; "
            "the LP decomposition only supports key/foreign-key equi-joins"
        )

    oriented = classify_fk_edge(condition, schema)
    if oriented is None:
        raise DecompositionError(
            f"join {condition!r} in query {aqp.name!r} is not along a declared "
            "key/foreign-key edge"
        )
    fk_table, fk_column, ref_table, _ref_column = oriented

    if fk_table in left.nodes and ref_table in right.nodes:
        referencing_state, referenced_state = left, right
    elif fk_table in right.nodes and ref_table in left.nodes:
        referencing_state, referenced_state = right, left
    else:
        raise DecompositionError(
            f"join {condition!r} in query {aqp.name!r} does not connect the two "
            f"sub-plans (tables {sorted(left.nodes)} and {sorted(right.nodes)})"
        )

    referenced_anchor = referenced_state.anchor
    if referenced_anchor.table != ref_table:
        raise DecompositionError(
            f"join {condition!r} in query {aqp.name!r} attaches {ref_table!r}, but the "
            f"referenced sub-plan is anchored at {referenced_anchor.table!r}; such plans "
            "multiply anchor rows and are outside the supported key/FK class"
        )

    referencing_node = referencing_state.nodes[fk_table]
    if fk_column in referencing_node.children:
        raise DecompositionError(
            f"foreign-key column {fk_table}.{fk_column} is joined twice in query {aqp.name!r}"
        )
    referencing_node.children[fk_column] = referenced_anchor

    merged_nodes = dict(referencing_state.nodes)
    overlap = set(merged_nodes) & set(referenced_state.nodes)
    if overlap:
        raise DecompositionError(
            f"query {aqp.name!r} joins table(s) {sorted(overlap)} more than once; "
            "self-joins are outside the supported query class"
        )
    merged_nodes.update(referenced_state.nodes)
    return _SubPlanState(anchor=referencing_state.anchor, nodes=merged_nodes)


def _emit(
    node: PlanNode,
    state: _SubPlanState,
    aqp: AnnotatedQueryPlan,
    workload: WorkloadConstraints,
) -> None:
    """Record the node's annotation as a constraint on the anchor relation."""
    if node.cardinality is None:
        return
    anchor = state.anchor
    relation = workload.relations[anchor.table]
    predicate = anchor.to_symbolic()
    relation.add(
        CardinalityConstraint(
            relation=anchor.table,
            predicate=predicate,
            cardinality=int(node.cardinality),
            source=f"{aqp.name}#{node.operator.lower()}",
        )
    )
    _register_tracking(predicate, workload)


def _register_tracking(predicate: SymbolicPredicate, workload: WorkloadConstraints) -> None:
    """Register every nested (borrowed) predicate on its own relation.

    The referenced relation needs these as partition predicates so that,
    once aligned, the borrowed condition maps to whole primary-key blocks.
    """
    for _fk_column, referenced in predicate.references:
        workload.relations[referenced.table].add_tracking(referenced.predicate)
        _register_tracking(referenced.predicate, workload)

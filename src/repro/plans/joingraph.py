"""Join graph: tables as nodes, classified join predicates as edges.

The planner, the semi-join pushdown pass and the engine's join fast paths all
need the same questions answered about a query's joins: *which tables does
each join relate* (classification), *which table anchors the left-deep
chain* and *in which deterministic order does the chain attach the others*
(plan shape; an edge that never attaches is how the planner detects a
disconnected query).  :class:`JoinGraph` answers them once, from the
predicate algebra, instead of each consumer pattern-matching on raw
conditions.

Edges are built from :class:`repro.sql.query.JoinCondition` /
:class:`repro.sql.query.DisjunctiveJoinCondition` and carry both the
condition and its resolution onto the schema's foreign-key graph
(:func:`classify_fk_edge`).  Every traversal sweeps the edges in query join
order, so what the planner derives is a pure function of the query text —
the same determinism contract the planner gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..catalog.schema import Schema
from ..sql.predicates import AbstractPredicate
from ..sql.query import DisjunctiveJoinCondition, JoinCondition, Query

__all__ = ["JoinEdge", "JoinGraph", "classify_fk_edge"]


def classify_fk_edge(
    condition: "JoinCondition | DisjunctiveJoinCondition", schema: Schema
) -> tuple[str, str, str, str] | None:
    """Resolve a join condition onto the schema's foreign-key graph.

    Returns ``(fk_table, fk_column, ref_table, ref_column)`` when the
    condition equi-joins a foreign-key column onto the primary key it
    references (in either orientation), else ``None``.  This is the single
    eligibility check shared by the planner's semi-join pushdown pass and
    the engine's join fast paths, so consumers can never disagree about
    which joins follow an FK–PK edge.  Disjunctive joins never classify:
    no single column pair carries the edge.
    """
    if isinstance(condition, DisjunctiveJoinCondition):
        return None
    if condition.left_table == condition.right_table:
        return None
    for fk_table in (condition.left_table, condition.right_table):
        if not schema.has_table(fk_table):
            continue
        fk_column = condition.side_column(fk_table)
        ref_table, ref_column = condition.other_side(fk_table)
        fk = schema.table(fk_table).foreign_key_for(fk_column)
        if (
            fk is not None
            and fk.ref_table == ref_table
            and fk.ref_column == ref_column
            and schema.has_table(ref_table)
            and schema.table(ref_table).primary_key == ref_column
        ):
            return fk_table, fk_column, ref_table, ref_column
    return None


@dataclass(frozen=True)
class JoinEdge:
    """One edge of the join graph: a join condition plus its classification.

    ``fk_table``/``fk_column``/``ref_table``/``ref_column`` are the
    foreign-key resolution from :func:`classify_fk_edge` (all ``None`` when
    the condition does not follow an FK–PK edge, e.g. a disjunctive join).
    """

    condition: "JoinCondition | DisjunctiveJoinCondition"
    fk_table: str | None = None
    fk_column: str | None = None
    ref_table: str | None = None
    ref_column: str | None = None

    @classmethod
    def classify(
        cls, condition: "JoinCondition | DisjunctiveJoinCondition", schema: Schema
    ) -> "JoinEdge":
        """Build an edge from a condition, resolving its FK orientation."""
        resolved = classify_fk_edge(condition, schema)
        if resolved is None:
            return cls(condition=condition)
        fk_table, fk_column, ref_table, ref_column = resolved
        return cls(
            condition=condition,
            fk_table=fk_table,
            fk_column=fk_column,
            ref_table=ref_table,
            ref_column=ref_column,
        )

    @property
    def tables(self) -> tuple[str, str]:
        """The ``(left, right)`` table pair the edge relates."""
        return self.condition.left_table, self.condition.right_table

    def involves(self, table: str) -> bool:
        """Whether ``table`` is one of the edge's endpoints."""
        return self.condition.involves(table)

    def predicate(self) -> AbstractPredicate:
        """The edge's condition as a classified join predicate.

        The returned predicate satisfies ``is_join()`` — its qualified
        column references span both endpoint tables.
        """
        return self.condition.as_predicate()

    def __repr__(self) -> str:
        """Render the underlying condition with its FK orientation."""
        if self.fk_table is not None:
            return f"JoinEdge({self.condition!r}, fk={self.fk_table}.{self.fk_column})"
        return f"JoinEdge({self.condition!r})"


class JoinGraph:
    """The query's tables and classified join edges as an undirected graph.

    Node order is the query's FROM order and edge order is the query's join
    order; every traversal below iterates in those orders, so everything the
    planner derives from the graph (anchor, attachment order, error
    messages) is deterministic given the query text.
    """

    def __init__(
        self,
        tables: "list[str] | tuple[str, ...]",
        edges: "list[JoinEdge] | tuple[JoinEdge, ...]",
    ) -> None:
        """Store the nodes (FROM order) and edges (join order)."""
        self.tables: tuple[str, ...] = tuple(tables)
        self.edges: tuple[JoinEdge, ...] = tuple(edges)

    @classmethod
    def from_query(cls, query: Query, schema: Schema) -> "JoinGraph":
        """Build the classified join graph of a query against a schema."""
        return cls(
            tables=query.tables,
            edges=[JoinEdge.classify(condition, schema) for condition in query.joins],
        )

    # -- planner services -------------------------------------------------

    def referencing_score(self, schema: Schema, table: str) -> tuple[int, int]:
        """``(fk participations, total participations)`` of a table.

        How many of the query's joins the table enters on the foreign-key
        side, and in how many it participates at all — the anchor-choice
        metric: the fact table of a star query maximises both.  Disjunctive
        edges count as participations; each alternative that puts the table
        on the FK side counts toward the first component, matching what a
        conjunctive rewrite of the disjunction would score.
        """
        fk_side = 0
        participations = 0
        table_obj = schema.table(table)
        for edge in self.edges:
            if not edge.involves(table):
                continue
            participations += 1
            condition = edge.condition
            alternatives = (
                condition.alternatives
                if isinstance(condition, DisjunctiveJoinCondition)
                else (condition,)
            )
            for alt in alternatives:
                if not alt.involves(table):
                    continue
                if table_obj.foreign_key_for(alt.side_column(table)) is not None:
                    fk_side += 1
                    break
        return fk_side, participations

    def choose_anchor(self, schema: Schema) -> str:
        """The left-most table of the left-deep join chain.

        The table with the highest referencing score wins; ties break to
        the earliest table in FROM order (the sort is stable and reversed
        on the score only).
        """
        if len(self.tables) == 1:
            return self.tables[0]
        scored = sorted(
            self.tables,
            key=lambda table: self.referencing_score(schema, table),
            reverse=True,
        )
        return scored[0]

    def left_deep_steps(
        self, anchor: str
    ) -> Iterator[tuple[JoinEdge, str | None]]:
        """Deterministic left-deep attachment order from ``anchor``.

        Yields ``(edge, new_table)`` pairs: repeatedly sweeps the edges in
        query join order, attaching any edge with exactly one endpoint
        already joined (``new_table`` is the endpoint it brings in) and
        discarding edges whose endpoints are both joined already
        (``new_table`` is ``None`` — a redundant edge).  Stops when no sweep
        makes progress; callers detect a disconnected graph by comparing
        the attached tables against the node set.
        """
        joined = {anchor}
        remaining = list(self.edges)
        while remaining:
            progressed = False
            for edge in list(remaining):
                left, right = edge.tables
                left_in = left in joined
                right_in = right in joined
                if left_in and right_in:
                    remaining.remove(edge)
                    progressed = True
                    yield edge, None
                    continue
                if not left_in and not right_in:
                    continue
                new_table = right if left_in else left
                joined.add(new_table)
                remaining.remove(edge)
                progressed = True
                yield edge, new_table
            if not progressed:
                return

    def __repr__(self) -> str:
        """Render the node and edge counts."""
        return f"JoinGraph(tables={list(self.tables)}, edges={len(self.edges)})"

"""Join graph: tables as nodes, join conditions as edges, and the one FK test.

The planner needs plan shape only: *which table anchors the left-deep
chain* and *in which deterministic order does the chain attach the others*
(an edge that never attaches is how the planner detects a disconnected
query).  :class:`JoinGraph` answers both from the query's
:class:`repro.sql.query.JoinCondition` /
:class:`repro.sql.query.DisjunctiveJoinCondition` edges.  Every traversal
sweeps the edges in query join order, so what the planner derives is a pure
function of the query text — the same determinism contract the planner
gives.

Whether a join follows a foreign-key → primary-key edge, and which side
references, is :func:`classify_fk_edge` — the one FK test, called by the
operator that uses the answer: the execution engine, once per join node per
``execute``, and the preprocessor's decomposition.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..catalog.schema import Schema
from ..sql.query import DisjunctiveJoinCondition, JoinCondition, Query

__all__ = ["JoinGraph", "classify_fk_edge"]


def classify_fk_edge(
    condition: JoinCondition | DisjunctiveJoinCondition, schema: Schema
) -> tuple[str, str, str, str] | None:
    """Resolve a join condition onto the schema's foreign-key graph.

    Returns ``(fk_table, fk_column, ref_table, ref_column)`` when the
    condition equi-joins a foreign-key column onto the primary key it
    references (in either orientation), else ``None``.  This is the single
    FK test: the engine's join routes and the preprocessor's decomposition
    read its answer, so they can never disagree about which joins follow an
    FK–PK edge.  Disjunctive joins never classify: no single column pair
    carries the edge.
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


class JoinGraph:
    """The query's tables and join conditions as an undirected graph.

    Node order is the query's FROM order and edge order is the query's join
    order; every traversal below iterates in those orders, so everything the
    planner derives from the graph (anchor, attachment order, error
    messages) is deterministic given the query text.
    """

    def __init__(
        self,
        tables: Sequence[str],
        joins: Sequence[JoinCondition | DisjunctiveJoinCondition],
    ) -> None:
        """Store the nodes (FROM order) and edges (join order)."""
        self.tables: tuple[str, ...] = tuple(tables)
        self.joins: tuple[JoinCondition | DisjunctiveJoinCondition, ...] = tuple(joins)

    @classmethod
    def from_query(cls, query: Query) -> "JoinGraph":
        """The join graph of a query."""
        return cls(tables=query.tables, joins=query.joins)

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
        for condition in self.joins:
            if not condition.involves(table):
                continue
            participations += 1
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
    ) -> Iterator[tuple[JoinCondition | DisjunctiveJoinCondition, str | None]]:
        """Deterministic left-deep attachment order from ``anchor``.

        Yields ``(condition, new_table)`` pairs: repeatedly sweeps the edges in
        query join order, attaching any edge with exactly one endpoint
        already joined (``new_table`` is the endpoint it brings in) and
        discarding edges whose endpoints are both joined already
        (``new_table`` is ``None`` — a redundant edge).  Stops when no sweep
        makes progress; callers detect a disconnected graph by comparing
        the attached tables against the node set.
        """
        joined = {anchor}
        remaining = list(self.joins)
        while remaining:
            progressed = False
            for condition in list(remaining):
                left, right = condition.left_table, condition.right_table
                left_in = left in joined
                right_in = right in joined
                if left_in and right_in:
                    remaining.remove(condition)
                    progressed = True
                    yield condition, None
                    continue
                if not left_in and not right_in:
                    continue
                new_table = right if left_in else left
                joined.add(new_table)
                remaining.remove(condition)
                progressed = True
                yield condition, new_table
            if not progressed:
                return

    def __repr__(self) -> str:
        """Render the nodes and the edge count."""
        return f"JoinGraph(tables={list(self.tables)}, joins={len(self.joins)})"

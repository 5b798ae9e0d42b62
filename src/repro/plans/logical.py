"""Logical query plan nodes and Annotated Query Plans (AQPs).

An AQP (Binnig et al., QAGen) is a query execution plan in which the output
edge of every operator is annotated with the row cardinality observed when the
plan was executed at the client site.  AQPs are the central exchange format of
HYDRA: the client produces them, the vendor's LP formulator consumes them, and
the verification step compares them against the cardinalities obtained on the
regenerated database.

The plan algebra is deliberately small — Scan, Filter, Join (key/foreign-key
equi-join), Project and Aggregate — matching the SPJ query class the paper
targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from ..sql.predicates import Predicate, predicate_from_dict
from ..sql.query import DisjunctiveJoinCondition, JoinCondition, join_condition_from_dict

__all__ = [
    "PlanNode",
    "ScanNode",
    "FilterNode",
    "JoinNode",
    "ProjectNode",
    "AggregateNode",
    "leaf_scan",
    "plan_from_dict",
]


_node_counter = itertools.count()


@dataclass
class PlanNode:
    """Base class of all plan operators.

    ``cardinality`` is the AQP annotation: ``None`` until the plan has been
    executed (or a synthetic value injected by scenario construction).
    """

    node_id: int = field(default_factory=lambda: next(_node_counter), init=False)
    cardinality: int | None = field(default=None, init=False)

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    @property
    def operator(self) -> str:
        return type(self).__name__.replace("Node", "").upper()

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def clear_annotations(self) -> None:
        for node in self.iter_nodes():
            node.cardinality = None

    def map_annotations(self, transform: Callable[["PlanNode", int], int]) -> None:
        """Apply ``transform(node, cardinality)`` to every annotated node."""
        for node in self.iter_nodes():
            if node.cardinality is not None:
                node.cardinality = int(transform(node, node.cardinality))

    def output_tables(self) -> set[str]:
        """The base tables contributing rows to this operator's output."""
        tables: set[str] = set()
        for child in self.children:
            tables |= child.output_tables()
        return tables

    def describe(self) -> str:
        raise NotImplementedError

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def _base_dict(self, **extra: Any) -> dict[str, Any]:
        payload: dict[str, Any] = {"operator": self.operator, "cardinality": self.cardinality}
        payload.update(extra)
        return payload

    def pretty(self, indent: int = 0) -> str:
        """Human-readable tree rendering (used by reports and the CLI)."""
        card = "?" if self.cardinality is None else str(self.cardinality)
        line = "  " * indent + f"{self.describe()}  [rows={card}]"
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass
class ScanNode(PlanNode):
    """Full scan of a base relation."""

    table: str

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def output_tables(self) -> set[str]:
        return {self.table}

    def describe(self) -> str:
        return f"Scan({self.table})"

    def to_dict(self) -> dict[str, Any]:
        return self._base_dict(table=self.table)


@dataclass
class FilterNode(PlanNode):
    """Selection applied to the rows of a single base table in the input."""

    child: PlanNode
    table: str
    predicate: Predicate

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter({self.table}: {self.predicate!r})"

    def to_dict(self) -> dict[str, Any]:
        return self._base_dict(
            table=self.table,
            predicate=self.predicate.to_dict(),
            child=self.child.to_dict(),
        )


@dataclass
class JoinNode(PlanNode):
    """Equi-join of two sub-plans on a key/foreign-key condition.

    ``condition`` is normally a plain :class:`JoinCondition`; a
    :class:`DisjunctiveJoinCondition` carries the ``(a = x OR b = y)`` shape.
    The engine runs both on one build/probe operator — a disjunction is one
    key pair per alternative — and streams the probe side whenever an input
    is the leaf of a dataless relation.
    """

    left: PlanNode
    right: PlanNode
    condition: JoinCondition | DisjunctiveJoinCondition

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"Join({self.condition!r})"

    def to_dict(self) -> dict[str, Any]:
        return self._base_dict(
            condition=self.condition.to_dict(),
            left=self.left.to_dict(),
            right=self.right.to_dict(),
        )


@dataclass
class ProjectNode(PlanNode):
    """Projection onto a list of (qualified) output columns."""

    child: PlanNode
    columns: list[str]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"

    def to_dict(self) -> dict[str, Any]:
        return self._base_dict(columns=list(self.columns), child=self.child.to_dict())


@dataclass
class AggregateNode(PlanNode):
    """Scalar aggregate (COUNT(*), SUM(col), AVG(col)) over the child's output.

    ``argument`` is the aggregated column for SUM/AVG and ``None`` for
    COUNT(*).  Serialisation omits the key when absent so pre-SUM/AVG
    payloads round-trip unchanged.
    """

    child: PlanNode
    function: str = "count"
    argument: str | None = None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        if self.argument is None:
            return f"Aggregate({self.function})"
        return f"Aggregate({self.function}({self.argument}))"

    def to_dict(self) -> dict[str, Any]:
        payload = self._base_dict(function=self.function, child=self.child.to_dict())
        if self.argument is not None:
            payload["argument"] = self.argument
        return payload


def leaf_scan(node: PlanNode) -> tuple[ScanNode, FilterNode | None] | None:
    """The ``(scan, filter)`` pair of a leaf access path, if ``node`` is one.

    A leaf access path is a bare :class:`ScanNode` or a :class:`FilterNode`
    sitting directly on the scan of its own table — the shape the planner
    emits for every base relation.  Streaming execution (fused filter+scan,
    build/probe joins, semi-join pushdown) keys off this shape; any other
    subtree returns ``None``.
    """
    if isinstance(node, ScanNode):
        return node, None
    if (
        isinstance(node, FilterNode)
        and isinstance(node.child, ScanNode)
        and node.child.table == node.table
    ):
        return node.child, node
    return None


def plan_from_dict(payload: Mapping[str, Any]) -> PlanNode:
    """Reconstruct a plan tree from its JSON representation."""
    operator = payload["operator"]
    node: PlanNode
    if operator == "SCAN":
        node = ScanNode(table=payload["table"])
    elif operator == "FILTER":
        node = FilterNode(
            child=plan_from_dict(payload["child"]),
            table=payload["table"],
            predicate=predicate_from_dict(payload["predicate"]),
        )
    elif operator == "JOIN":
        node = JoinNode(
            left=plan_from_dict(payload["left"]),
            right=plan_from_dict(payload["right"]),
            condition=join_condition_from_dict(payload["condition"]),
        )
    elif operator == "PROJECT":
        node = ProjectNode(
            child=plan_from_dict(payload["child"]), columns=list(payload["columns"])
        )
    elif operator == "AGGREGATE":
        node = AggregateNode(
            child=plan_from_dict(payload["child"]),
            function=payload.get("function", "count"),
            argument=payload.get("argument"),
        )
    else:
        raise ValueError(f"unknown plan operator {operator!r}")
    cardinality = payload.get("cardinality")
    node.cardinality = None if cardinality is None else int(cardinality)
    return node

"""Annotated Query Plans: a plan tree paired with its originating query.

The :class:`AnnotatedQueryPlan` is the unit of information HYDRA ships from
client to vendor (together with schema and metadata).  It supports JSON
round-tripping — the demo paper notes that the JSON plan format is what the
client interface parses — plus the helpers used by scenario construction
(annotation injection and scaling) and by the quality report (edge listing).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..serialization import write_atomic

from ..sql.query import Query
from .logical import PlanNode, plan_from_dict

__all__ = ["AnnotatedQueryPlan", "AQPEdge"]


@dataclass(frozen=True)
class AQPEdge:
    """One annotated output edge of an AQP operator."""

    query: str
    node_id: int
    operator: str
    description: str
    cardinality: int


@dataclass
class AnnotatedQueryPlan:
    """A query together with its (cardinality-annotated) execution plan."""

    query: Query
    plan: PlanNode

    @property
    def name(self) -> str:
        return self.query.name

    def edges(self) -> list[AQPEdge]:
        """All annotated operator output edges (skipping unannotated nodes)."""
        result = []
        for node in self.plan.iter_nodes():
            if node.cardinality is None:
                continue
            result.append(
                AQPEdge(
                    query=self.query.name,
                    node_id=node.node_id,
                    operator=node.operator,
                    description=node.describe(),
                    cardinality=int(node.cardinality),
                )
            )
        return result

    def scale_annotations(self, factor: float) -> "AnnotatedQueryPlan":
        """Return a copy with every cardinality multiplied by ``factor``.

        This is the basic building block of the demo's scenario construction
        ("extrapolated exabyte scenario").  Aggregate outputs are left alone:
        COUNT(*) produces one row regardless of the data volume.
        """
        clone = self.copy()
        clone.plan.map_annotations(
            lambda node, card: card
            if node.operator == "AGGREGATE"
            else max(0, round(card * factor))
        )
        return clone

    def inject_annotations(self, overrides: Mapping[int, int]) -> "AnnotatedQueryPlan":
        """Return a copy with specific node annotations replaced.

        ``overrides`` maps the *position* of the node in pre-order traversal
        (0-based) to the injected cardinality, which is stable across
        serialisation (unlike ``node_id``).
        """
        clone = self.copy()
        for position, node in enumerate(clone.plan.iter_nodes()):
            if position in overrides:
                node.cardinality = int(overrides[position])
        return clone

    def copy(self) -> "AnnotatedQueryPlan":
        return AnnotatedQueryPlan.from_dict(self.to_dict())

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"query": self.query.to_dict(), "plan": self.plan.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnnotatedQueryPlan":
        return cls(
            query=Query.from_dict(payload["query"]),
            plan=plan_from_dict(payload["plan"]),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AnnotatedQueryPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "AnnotatedQueryPlan":
        return cls.from_json(Path(path).read_text())

    def pretty(self) -> str:
        return f"-- {self.query.name}\n{self.query.sql}\n{self.plan.pretty()}"

"""Query model: SPJ queries over a schema.

HYDRA's workloads are select-project-join (SPJ) queries whose joins follow
key/foreign-key edges (the canonical TPC-DS style queries shown in the demo's
client interface).  A :class:`Query` captures exactly that structure:
the referenced tables, the equi-join conditions, one conjunctive filter
predicate per table, and the projection list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..catalog.schema import Schema
from .predicates import (
    ColumnComparison,
    ColumnRef,
    Or,
    Predicate,
    TruePredicate,
    predicate_from_dict,
)

__all__ = [
    "JoinCondition",
    "DisjunctiveJoinCondition",
    "join_condition_from_dict",
    "Query",
]


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def involves(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def other_side(self, table: str) -> tuple[str, str]:
        """The (table, column) on the opposite side of ``table``."""
        if table == self.left_table:
            return self.right_table, self.right_column
        if table == self.right_table:
            return self.left_table, self.left_column
        raise ValueError(f"join {self!r} does not involve table {table!r}")

    def side_column(self, table: str) -> str:
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise ValueError(f"join {self!r} does not involve table {table!r}")

    def to_dict(self) -> dict[str, str]:
        return {
            "left_table": self.left_table,
            "left_column": self.left_column,
            "right_table": self.right_table,
            "right_column": self.right_column,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, str]) -> "JoinCondition":
        return cls(
            left_table=payload["left_table"],
            left_column=payload["left_column"],
            right_table=payload["right_table"],
            right_column=payload["right_column"],
        )

    def as_predicate(self) -> ColumnComparison:
        """The join condition as a qualified column-comparison predicate."""
        return ColumnComparison(
            ColumnRef(self.left_table, self.left_column),
            "=",
            ColumnRef(self.right_table, self.right_column),
        )

    def __repr__(self) -> str:
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )


@dataclass(frozen=True)
class DisjunctiveJoinCondition:
    """A disjunction of equi-joins between the same pair of tables.

    The SQL shape ``(R.a = S.x OR R.b = S.y)``: every alternative must relate
    the same two tables, so the disjunction still contributes a single edge
    to the join graph.  A row pair matches when *any* alternative holds.
    """

    alternatives: tuple[JoinCondition, ...]

    def __init__(
        self, alternatives: "list[JoinCondition] | tuple[JoinCondition, ...]"
    ) -> None:
        alternatives = tuple(alternatives)
        if len(alternatives) < 2:
            raise ValueError("a disjunctive join needs at least two alternatives")
        pairs = {
            frozenset((alt.left_table, alt.right_table)) for alt in alternatives
        }
        if len(pairs) != 1:
            raise ValueError(
                "all alternatives of a disjunctive join must relate the same table pair"
            )
        object.__setattr__(self, "alternatives", alternatives)

    @property
    def left_table(self) -> str:
        """The left table (of the first alternative — all agree by table pair)."""
        return self.alternatives[0].left_table

    @property
    def right_table(self) -> str:
        """The right table (of the first alternative)."""
        return self.alternatives[0].right_table

    def involves(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def as_predicate(self) -> Predicate:
        """The disjunction as an ``Or`` of column-comparison predicates."""
        return Or([alt.as_predicate() for alt in self.alternatives])

    def to_dict(self) -> dict[str, Any]:
        return {"alternatives": [alt.to_dict() for alt in self.alternatives]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DisjunctiveJoinCondition":
        return cls([JoinCondition.from_dict(item) for item in payload["alternatives"]])

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(alt) for alt in self.alternatives) + ")"


def join_condition_from_dict(
    payload: Mapping[str, Any],
) -> "JoinCondition | DisjunctiveJoinCondition":
    """Deserialise either join-condition shape from its ``to_dict`` payload."""
    if "alternatives" in payload:
        return DisjunctiveJoinCondition.from_dict(payload)
    return JoinCondition.from_dict(payload)


@dataclass
class Query:
    """A select-project-join query over a schema."""

    name: str
    tables: list[str]
    joins: "list[JoinCondition | DisjunctiveJoinCondition]" = field(default_factory=list)
    filters: dict[str, Predicate] = field(default_factory=dict)
    projection: list[str] = field(default_factory=lambda: ["*"])
    sql: str = ""

    def filter_for(self, table: str) -> Predicate:
        """The (possibly trivial) filter predicate applied to ``table``."""
        return self.filters.get(table, TruePredicate())

    def has_filter(self, table: str) -> bool:
        predicate = self.filters.get(table)
        return predicate is not None and not isinstance(predicate, TruePredicate)

    def validate(self, schema: Schema) -> None:
        """Check that every table, join column and filter column exists."""
        for table_name in self.tables:
            schema.table(table_name)
        for join in self.joins:
            conjuncts = (
                join.alternatives
                if isinstance(join, DisjunctiveJoinCondition)
                else (join,)
            )
            for alt in conjuncts:
                schema.table(alt.left_table).column(alt.left_column)
                schema.table(alt.right_table).column(alt.right_column)
            if join.left_table not in self.tables or join.right_table not in self.tables:
                raise ValueError(f"join {join!r} references a table not in FROM")
        for table_name, predicate in self.filters.items():
            table = schema.table(table_name)
            for column in predicate.columns():
                table.column(column)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "tables": list(self.tables),
            "joins": [join.to_dict() for join in self.joins],
            "filters": {
                table: predicate.to_dict() for table, predicate in self.filters.items()
            },
            "projection": list(self.projection),
            "sql": self.sql,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Query":
        return cls(
            name=payload["name"],
            tables=list(payload["tables"]),
            joins=[join_condition_from_dict(item) for item in payload.get("joins", [])],
            filters={
                table: predicate_from_dict(item)
                for table, item in payload.get("filters", {}).items()
            },
            projection=list(payload.get("projection", ["*"])),
            sql=payload.get("sql", ""),
        )

    def __repr__(self) -> str:
        return f"Query({self.name!r}, tables={self.tables})"

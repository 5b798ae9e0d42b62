"""Relational schema model: columns, tables, keys and the foreign-key graph.

The schema is the first element of the information package a HYDRA client
ships to the vendor (paper Figure 2/3).  Besides naming columns and types it
records the primary key of each relation and every foreign-key reference;
the foreign-key graph drives the topological processing order used by the
preprocessor (referenced relations are summarised before referencing ones,
so that borrowed predicates can be aligned deterministically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .types import DataType, type_from_dict

__all__ = ["Column", "ForeignKey", "Table", "Schema", "SchemaError"]


class SchemaError(ValueError):
    """Raised for malformed schemas (unknown tables/columns, cyclic FKs...)."""


@dataclass(frozen=True)
class Column:
    """A single column of a relation."""

    name: str
    dtype: DataType
    nullable: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": self.dtype.to_dict(),
            "nullable": self.nullable,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Column":
        return cls(
            name=payload["name"],
            dtype=type_from_dict(payload["type"]),
            nullable=bool(payload.get("nullable", False)),
        )


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key reference ``table.column -> ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "column": self.column,
            "ref_table": self.ref_table,
            "ref_column": self.ref_column,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ForeignKey":
        return cls(
            column=payload["column"],
            ref_table=payload["ref_table"],
            ref_column=payload["ref_column"],
        )


@dataclass
class Table:
    """A relation: named columns, an optional primary key and foreign keys."""

    name: str
    columns: list[Column]
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise SchemaError(
                    f"foreign key column {fk.column!r} is not a column of {self.name!r}"
                )

    # -- lookups ---------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    def foreign_key_for(self, column: str) -> ForeignKey | None:
        for fk in self.foreign_keys:
            if fk.column == column:
                return fk
        return None

    @property
    def foreign_key_columns(self) -> set[str]:
        return {fk.column for fk in self.foreign_keys}

    def value_columns(self) -> list[Column]:
        """Columns that carry data values (everything except the primary key).

        Foreign-key columns *are* value columns: the summary stores explicit
        reference intervals for them.
        """
        return [column for column in self.columns if column.name != self.primary_key]

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "columns": [column.to_dict() for column in self.columns],
            "primary_key": self.primary_key,
            "foreign_keys": [fk.to_dict() for fk in self.foreign_keys],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Table":
        return cls(
            name=payload["name"],
            columns=[Column.from_dict(item) for item in payload["columns"]],
            primary_key=payload.get("primary_key"),
            foreign_keys=[
                ForeignKey.from_dict(item) for item in payload.get("foreign_keys", [])
            ],
        )


@dataclass
class Schema:
    """A database schema: a set of tables plus the derived foreign-key graph."""

    tables: dict[str, Table] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate_references()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_tables(cls, tables: Iterable[Table]) -> "Schema":
        return cls(tables={table.name: table for table in tables})

    def _validate_references(self) -> None:
        for table in self.tables.values():
            for fk in table.foreign_keys:
                if fk.ref_table not in self.tables:
                    # Allow forward references during incremental construction;
                    # they are re-checked whenever a table is added.
                    continue
                ref = self.tables[fk.ref_table]
                if not ref.has_column(fk.ref_column):
                    raise SchemaError(
                        f"foreign key {table.name}.{fk.column} references missing "
                        f"column {fk.ref_table}.{fk.ref_column}"
                    )

    # -- lookups ---------------------------------------------------------

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise SchemaError(f"schema has no table {name!r}")
        return self.tables[name]

    def has_table(self, name: str) -> bool:
        return name in self.tables

    @property
    def table_names(self) -> list[str]:
        return list(self.tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables.values())

    def __len__(self) -> int:
        return len(self.tables)

    def resolve_column(self, qualified: str) -> tuple[Table, Column]:
        """Resolve ``table.column`` (or a unique bare column name)."""
        if "." in qualified:
            table_name, column_name = qualified.split(".", 1)
            table = self.table(table_name)
            return table, table.column(column_name)
        matches = [
            (table, table.column(qualified))
            for table in self.tables.values()
            if table.has_column(qualified)
        ]
        if not matches:
            raise SchemaError(f"no table has a column named {qualified!r}")
        if len(matches) > 1:
            owners = ", ".join(table.name for table, _ in matches)
            raise SchemaError(f"column {qualified!r} is ambiguous (in {owners})")
        return matches[0]

    # -- foreign-key graph ----------------------------------------------

    def topological_order(self) -> list[str]:
        """Tables ordered so that referenced tables come before referencing ones.

        This is the processing order of the HYDRA preprocessor / summary
        generator: dimensions before facts in a star schema.  Kahn's
        algorithm by generations over the ``referencing -> referenced``
        graph — nodes in schema order (a referenced name the schema lacks
        after them), each table's references in foreign-key order, a
        repeated edge once — then reversed, so referenced tables come first.
        """
        graph: dict[str, list[str]] = {name: [] for name in self.tables}
        for table in self.tables.values():
            for fk in table.foreign_keys:
                graph.setdefault(fk.ref_table, [])
                if fk.ref_table not in graph[table.name]:
                    graph[table.name].append(fk.ref_table)
        indegree = dict.fromkeys(graph, 0)
        for targets in graph.values():
            for target in targets:
                indegree[target] += 1
        order: list[str] = []
        generation = [name for name, degree in indegree.items() if degree == 0]
        while generation:
            order.extend(generation)
            following = []
            for name in generation:
                for target in graph[name]:
                    indegree[target] -= 1
                    if indegree[target] == 0:
                        following.append(target)
            generation = following
        if len(order) < len(graph):
            raise SchemaError("foreign-key graph contains a cycle")
        return order[::-1]

    def referencing_tables(self, name: str) -> list[tuple[Table, ForeignKey]]:
        """All (table, fk) pairs that reference the given table."""
        result = []
        for table in self.tables.values():
            for fk in table.foreign_keys:
                if fk.ref_table == name:
                    result.append((table, fk))
        return result

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"tables": [table.to_dict() for table in self.tables.values()]}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Schema":
        return cls.from_tables(Table.from_dict(item) for item in payload["tables"])

"""CODD-style database metadata: schema + statistics, without any data.

HYDRA is part of the CODD "dataless databases" project: the vendor never sees
rows, only the schema, per-table row counts and per-column statistics.  The
:class:`DatabaseMetadata` object is exactly that package (it is what the
anonymisation layer operates on, and what the metadata-transfer step of the
paper's architecture ships to the vendor so both sites choose the same plans).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..serialization import write_atomic

from .schema import Schema
from .statistics import ColumnStatistics, TableStatistics, build_column_statistics

__all__ = ["DatabaseMetadata", "collect_metadata"]


@dataclass
class DatabaseMetadata:
    """Schema plus statistics for every table — no tuples."""

    schema: Schema
    statistics: dict[str, TableStatistics] = field(default_factory=dict)

    def row_count(self, table: str) -> int:
        if table in self.statistics:
            return self.statistics[table].row_count
        raise KeyError(f"no statistics recorded for table {table!r}")

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema.to_dict(),
            "statistics": {
                name: stats.to_dict() for name, stats in self.statistics.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DatabaseMetadata":
        return cls(
            schema=Schema.from_dict(payload["schema"]),
            statistics={
                name: TableStatistics.from_dict(item)
                for name, item in payload.get("statistics", {}).items()
            },
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DatabaseMetadata":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "DatabaseMetadata":
        return cls.from_json(Path(path).read_text())


def collect_metadata(database: "Database", max_mcvs: int = 10, histogram_buckets: int = 20) -> DatabaseMetadata:  # noqa: F821
    """Profile a materialised database into :class:`DatabaseMetadata`.

    This is the client-site profiling step shown in Figure 3 of the paper:
    row counts, most common values and equi-depth histogram bounds per column.
    """
    statistics: dict[str, TableStatistics] = {}
    for table in database.schema:
        data = database.table_data(table.name)
        columns: dict[str, ColumnStatistics] = {}
        for column in table.columns:
            columns[column.name] = build_column_statistics(
                column.name,
                data.column(column.name),
                max_mcvs=max_mcvs,
                histogram_buckets=histogram_buckets,
            )
        statistics[table.name] = TableStatistics(
            table=table.name, row_count=data.row_count, columns=columns
        )
    return DatabaseMetadata(schema=database.schema, statistics=statistics)

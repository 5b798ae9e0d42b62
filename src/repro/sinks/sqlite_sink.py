"""SQLite materialization backend (stdlib ``sqlite3``): one database file.

Every relation becomes a table of ``export.sqlite`` in the output
directory.  Inserts are batched through ``executemany`` inside a single
transaction per relation, which keeps the export both fast (no per-row
commit) and memory-bounded (one block of bind parameters at a time).
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Mapping

from numpy.typing import NDArray

from ..catalog.schema import Column, Table
from ..catalog.types import TypeKind
from .base import Sink, external_columns

__all__ = ["SqliteSink", "DATABASE_NAME"]

DATABASE_NAME = "export.sqlite"

_SQL_TYPES = {
    TypeKind.INTEGER: "INTEGER",
    TypeKind.FLOAT: "REAL",
    TypeKind.DATE: "TEXT",
    TypeKind.STRING: "TEXT",
}


def _quote(identifier: str) -> str:
    """Quote an SQL identifier (doubling embedded quotes)."""
    return '"' + identifier.replace('"', '""') + '"'


def _column_sql(column: Column) -> str:
    """The ``CREATE TABLE`` fragment of one column."""
    return f"{_quote(column.name)} {_SQL_TYPES[column.dtype.kind]}"


class SqliteSink(Sink):
    """Write every relation into one SQLite database file.

    Dates and dictionary-encoded strings are stored as ``TEXT`` (ISO-8601
    for dates), integers as ``INTEGER`` and floats as ``REAL`` — a layout
    any SQLite client can query directly.  An existing export database in
    the output directory is replaced.
    """

    format_name = "sqlite"

    def __init__(self, out_dir: str | Path) -> None:
        """Create the sink rooted at ``out_dir`` (created if missing)."""
        super().__init__(out_dir)
        path = self.database_path(self.out_dir)
        if path.exists():
            path.unlink()
        # isolation_level=None puts the connection in autocommit mode so the
        # one-transaction-per-relation BEGIN/COMMIT below is explicit and
        # version-independent (no implicit transaction management).
        self._connection = sqlite3.connect(path, isolation_level=None)
        self._insert_sql: str | None = None

    @staticmethod
    def database_path(out_dir: str | Path) -> Path:
        """The SQLite file an export directory holds."""
        return Path(out_dir) / DATABASE_NAME

    def _backend_open(self, table: Table) -> None:
        columns = ", ".join(_column_sql(column) for column in table.columns)
        self._connection.execute(f"DROP TABLE IF EXISTS {_quote(table.name)}")
        self._connection.execute(f"CREATE TABLE {_quote(table.name)} ({columns})")
        placeholders = ", ".join("?" for _ in table.columns)
        self._insert_sql = (
            f"INSERT INTO {_quote(table.name)} VALUES ({placeholders})"
        )
        self._connection.execute("BEGIN")

    def _backend_write(self, table: Table, block: Mapping[str, NDArray[Any]]) -> None:
        assert self._insert_sql is not None
        rows = zip(*external_columns(table, block).values())  # lists, in schema order
        self._connection.executemany(self._insert_sql, rows)

    def _backend_close(self, table: Table) -> list[str]:
        self._connection.execute("COMMIT")
        self._insert_sql = None
        return [DATABASE_NAME]

    def _backend_finalize(self) -> None:
        self._connection.close()

    def _backend_abort(self) -> None:
        try:
            if self._connection.in_transaction:
                self._connection.execute("ROLLBACK")
        except sqlite3.Error:
            pass
        self._connection.close()

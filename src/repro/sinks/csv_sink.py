"""CSV materialization backend (stdlib ``csv`` dialect): one file per relation."""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace
from typing import Any, IO, Mapping

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Column, Table
from ..catalog.types import TypeKind
from .base import Sink, external_column, external_value

__all__ = ["CsvSink"]

#: ``%``-conversion of a numeric column (``repr`` is ``csv.writer``'s float text too).
_CONVERSIONS = {TypeKind.INTEGER: "%d", TypeKind.FLOAT: "%r"}


class CsvSink(Sink):
    """Write each relation as ``<relation>.csv`` with a header row.

    Values are exported in their external representation (see
    :func:`repro.sinks.base.external_columns`): integers and floats as
    their shortest round-tripping decimal form, dates as ISO-8601 strings,
    dictionary-encoded strings decoded.  Rows are appended block by block,
    so peak memory stays bounded by the batch size.

    The bytes are ``csv.writer``'s, but it only renders single text cells (so
    quoting stays the dialect's): a block is one ``%``-template line filled row
    by row, in which a column that is constant on the block — detected on the
    array, the sink protocol carries no summary metadata — is literal text.
    """

    format_name = "csv"

    def __init__(self, out_dir: str | Path) -> None:
        """Create the sink rooted at ``out_dir`` (created if missing)."""
        super().__init__(out_dir)
        self._handle: IO[str] | None = None
        # A file stand-in whose ``write`` hands the line back: ``writerow`` returns it.
        self._writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
        self._wide = True

    @staticmethod
    def relation_path(out_dir: str | Path, table_name: str) -> Path:
        """The CSV file one relation exports to."""
        return Path(out_dir) / f"{table_name}.csv"

    def _text(self, column: Column, code: float) -> str:
        """The dialect's text of one encoded date / string cell."""
        line: str = self._writer.writerow((external_value(column, code),))
        # Alone in its row '' comes back quoted; beside other cells the dialect leaves it bare.
        return "" if self._wide and line == '""\n' else line[:-1]

    def _backend_open(self, table: Table) -> None:
        path = self.relation_path(self.out_dir, table.name)
        self._handle = path.open("w", newline="", encoding="utf-8")
        self._handle.write(self._writer.writerow(table.column_names))
        self._wide = len(table.columns) > 1

    def _backend_write(self, table: Table, block: Mapping[str, NDArray[Any]]) -> None:
        assert self._handle is not None
        rows = len(block[table.column_names[0]])
        template: list[str] = []
        varying: list[list[Any]] = []
        for column in table.columns:
            values = np.asarray(block[column.name])
            constant = bool((values == values[0]).all())
            cells = external_column(column, values[:1] if constant else values, self._text)
            conversion = _CONVERSIONS.get(column.dtype.kind, "%s")
            if constant:
                template.append((conversion % cells[0]).replace("%", "%%"))
            else:
                template.append(conversion)
                varying.append(cells)
        line = ",".join(template) + "\n"
        cells_by_row = zip(*varying) if varying else [()] * rows
        self._handle.write("".join(map(line.__mod__, cells_by_row)))

    def _backend_close(self, table: Table) -> list[str]:
        assert self._handle is not None
        self._handle.close()
        self._handle = None
        return [f"{table.name}.csv"]

    def _backend_abort(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

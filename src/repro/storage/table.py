"""In-memory column-store for materialised relations.

The client site of HYDRA holds a real (materialised) database; the vendor site
normally holds nothing but the summary.  This module provides the materialised
side: a simple NumPy-backed column store with just enough functionality for
the executor (filtered scans, semi-join style lookups) and for metadata
profiling.  All values are stored in their *internal* numeric encoding (see
``repro.catalog.types``), which keeps predicate evaluation vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Table

__all__ = ["TableData"]


@dataclass
class TableData:
    """Materialised contents of one relation, stored column-wise."""

    table: Table
    columns: dict[str, NDArray[Any]]

    def __post_init__(self) -> None:
        lengths = {name: len(values) for name, values in self.columns.items()}
        if lengths and len(set(lengths.values())) != 1:
            raise ValueError(f"ragged columns in table {self.table.name!r}: {lengths}")
        for column in self.table.columns:
            if column.name not in self.columns:
                raise ValueError(
                    f"column {column.name!r} of table {self.table.name!r} has no data"
                )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_rows(cls, table: Table, rows: Iterable[Sequence[Any]], encoded: bool = False) -> "TableData":
        """Build from row tuples ordered like ``table.columns``.

        With ``encoded=False`` (default) the values are external values and
        are encoded through each column's type.
        """
        materialised = [list(row) for row in rows]
        columns: dict[str, NDArray[Any]] = {}
        for index, column in enumerate(table.columns):
            raw = [row[index] for row in materialised]
            if encoded:
                columns[column.name] = np.asarray(raw, dtype=column.dtype.numpy_dtype)
            else:
                columns[column.name] = column.dtype.encode_many(raw)
        return cls(table=table, columns=columns)

    @classmethod
    def from_columns(
        cls, table: Table, columns: Mapping[str, NDArray[Any] | Sequence[float]]
    ) -> "TableData":
        """Build from already-encoded column arrays."""
        arrays = {
            column.name: np.asarray(columns[column.name], dtype=column.dtype.numpy_dtype)
            for column in table.columns
        }
        return cls(table=table, columns=arrays)

    @classmethod
    def empty(cls, table: Table) -> "TableData":
        arrays = {
            column.name: np.empty(0, dtype=column.dtype.numpy_dtype)
            for column in table.columns
        }
        return cls(table=table, columns=arrays)

    # -- basic accessors -------------------------------------------------

    @property
    def row_count(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> NDArray[Any]:
        if name not in self.columns:
            raise KeyError(f"table {self.table.name!r} has no column {name!r}")
        return self.columns[name]

    def row(self, index: int, decoded: bool = False) -> tuple[Any, ...]:
        """Return row ``index`` as a tuple ordered like the schema columns."""
        if not 0 <= index < self.row_count:
            raise IndexError(index)
        values = []
        for column in self.table.columns:
            raw = self.columns[column.name][index]
            values.append(column.dtype.decode(raw) if decoded else raw)
        return tuple(values)

    # -- bulk operations -------------------------------------------------

    def select(self, mask: NDArray[Any]) -> "TableData":
        """Return a new :class:`TableData` with only the rows where mask is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.row_count,):
            raise ValueError("mask shape does not match row count")
        return TableData(
            table=self.table,
            columns={name: values[mask] for name, values in self.columns.items()},
        )

    def take(self, indices: NDArray[Any]) -> "TableData":
        """Return a new :class:`TableData` with the rows at the given positions."""
        indices = np.asarray(indices, dtype=np.int64)
        return TableData(
            table=self.table,
            columns={name: values[indices] for name, values in self.columns.items()},
        )

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored columns."""
        return int(sum(values.nbytes for values in self.columns.values()))

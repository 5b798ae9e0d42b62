"""The database abstraction shared by the client and vendor sites.

A :class:`Database` couples a schema with *relation providers*: anything with
the small :class:`RelationProvider` protocol can be attached, counted and
read by the execution engine, which knows a relation only as a stream of
filtered blocks.  Two kinds exist: a :class:`MaterializedRelation` over a
:class:`~repro.storage.table.TableData` (client site, or a vendor-side
relation the user chose to materialise) and the dataless
:class:`~repro.executor.datagen.DataGenRelation`, which regenerates the
relation from its summary (the paper's ``datagen`` scan).  That is what lets
the same query plans run over real data and over regenerated data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from numpy.typing import NDArray

from ..catalog.schema import Schema, Table
from ..sql.predicates import BoxCondition, Predicate, columns_with_dependencies
from .table import TableData

__all__ = ["RelationProvider", "Database"]


@runtime_checkable
class RelationProvider(Protocol):
    """Anything that can enumerate the rows of a relation.

    ``row_count`` gives the total number of rows, ``row(i)`` returns the i-th
    row as a tuple of *encoded* values ordered like the schema columns, and
    ``column_names`` lists the column order.  ``iter_filtered_blocks`` is the
    one access path the execution engine reads: the relation as a stream of
    ``(start, generated, matched, block)`` yields, ``block`` holding the
    requested ``columns`` of the rows that satisfy ``predicate`` — ``box``
    is the same filter as an exactly equivalent box when one exists, and a
    column-free predicate always comes with one.  ``generated`` rows were
    read or produced for the yield, ``matched`` of them passed.  ``skip_box``
    marks rows the consumer does not need: a provider may replace a run of
    them by ``(start, 0, matched, {})``, and the consumer masks the rest.
    """

    @property
    def row_count(self) -> int:  # pragma: no cover - protocol signature
        ...

    @property
    def column_names(self) -> list[str]:  # pragma: no cover - protocol signature
        ...

    def row(self, index: int) -> tuple:  # pragma: no cover - protocol signature
        ...

    def iter_filtered_blocks(
        self,
        predicate: Predicate | None = None,
        box: BoxCondition | None = None,
        columns: Sequence[str] | None = None,
        batch_size: int | None = None,
        skip_box: BoxCondition | None = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:  # pragma: no cover
        ...


class MaterializedRelation:
    """Adapter presenting a :class:`TableData` through the provider protocol."""

    def __init__(self, data: TableData) -> None:
        self.data = data

    @property
    def row_count(self) -> int:
        return self.data.row_count

    @property
    def column_names(self) -> list[str]:
        return self.data.table.column_names

    def row(self, index: int) -> tuple:
        return self.data.row(index)

    def column(self, name: str) -> NDArray[Any]:
        return self.data.column(name)

    def iter_filtered_blocks(
        self,
        predicate: Predicate | None = None,
        box: BoxCondition | None = None,
        columns: Sequence[str] | None = None,
        batch_size: int | None = None,
        skip_box: BoxCondition | None = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """The stored relation as one masked block (nothing when ``box`` is empty).

        The whole relation is one batch, so ``batch_size`` has nothing to
        split; ``skip_box`` is left to the consumer.
        """
        del batch_size, skip_box
        requested = list(columns) if columns is not None else self.column_names
        count = self.row_count
        condition = predicate if predicate is not None and predicate.columns() else box
        if condition is not None and condition.columns():
            needed = columns_with_dependencies(requested, condition.columns())
            local = {name: self.column(name) for name in needed}
            mask = condition.evaluate(local)
            yield 0, count, int(mask.sum()), {name: local[name][mask] for name in requested}
        elif box is None or not box.is_empty:
            yield 0, count, count, {name: self.column(name) for name in requested}


@dataclass
class Database:
    """A schema plus one relation provider per table."""

    schema: Schema
    providers: dict[str, RelationProvider] = field(default_factory=dict)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_table_data(cls, schema: Schema, tables: Iterable[TableData]) -> "Database":
        providers: dict[str, RelationProvider] = {
            data.table.name: MaterializedRelation(data) for data in tables
        }
        return cls(schema=schema, providers=providers)

    def attach(self, name: str, provider: RelationProvider) -> None:
        """Attach (or replace) the provider for a relation.

        At the vendor site this is how a relation is switched between
        dynamic regeneration and a materialised copy.
        """
        if not self.schema.has_table(name):
            raise KeyError(f"schema has no table {name!r}")
        self.providers[name] = provider

    # -- accessors -------------------------------------------------------

    def provider(self, name: str) -> RelationProvider:
        if name not in self.providers:
            raise KeyError(f"no relation provider attached for table {name!r}")
        return self.providers[name]

    def table(self, name: str) -> Table:
        return self.schema.table(name)

    def table_data(self, name: str) -> TableData:
        """Return the materialised data of a relation (raising if dataless)."""
        provider = self.provider(name)
        if isinstance(provider, MaterializedRelation):
            return provider.data
        raise TypeError(
            f"table {name!r} is not materialised (dataless relation provider "
            f"{type(provider).__name__})"
        )

    def is_materialized(self, name: str) -> bool:
        return isinstance(self.providers.get(name), MaterializedRelation)

    def row_count(self, name: str) -> int:
        return self.provider(name).row_count

    def __iter__(self) -> Iterator[str]:
        return iter(self.providers)

    def total_rows(self) -> int:
        return sum(provider.row_count for provider in self.providers.values())

    def memory_bytes(self) -> int:
        """Total bytes of materialised storage (dataless relations count 0)."""
        total = 0
        for provider in self.providers.values():
            if isinstance(provider, MaterializedRelation):
                total += provider.data.memory_bytes()
        return total

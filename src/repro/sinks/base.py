"""The common streaming-sink interface of every materialization backend.

A :class:`Sink` consumes the regenerated block stream of one relation at a
time — ``open_relation`` / ``write_block`` / ``close_relation`` — and never
holds more than one block in memory, so exporting a relation costs
O(batch_size) peak memory no matter how many tuples the summary regenerates.
``finalize`` seals the export with a ``MANIFEST.json`` (see
:mod:`repro.sinks.manifest`) recording per-relation row counts, column types
and content checksums plus the fingerprint of the summary that produced the
export.

Backends subclass :class:`Sink` and implement the four ``_backend_*`` hooks;
the base class owns the open/close state machine and the streaming checksum
accounting, so every backend's manifest is computed identically (and
identically to the in-memory stream ``hydra verify --against`` recomputes).
"""

from __future__ import annotations

import abc
import datetime
from pathlib import Path
from typing import Any, Callable, ClassVar, Mapping

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Column, Table
from ..catalog.types import TypeKind
from ..core.errors import HydraError
from ..core.summary import DatabaseSummary
from .manifest import MANIFEST_NAME, ColumnHasher, Manifest, RelationManifest

__all__ = ["Sink", "external_columns"]


def external_columns(table: Table, block: Mapping[str, NDArray[Any]]) -> dict[str, list[Any]]:
    """Decode one encoded block into external (client-facing) values.

    A backend receives one Python list per schema column — ``int`` / ``float``
    / ``str`` cells, dates as ISO-8601 strings — the one representation CSV
    cells and SQLite ``TEXT`` store verbatim, so an export
    re-encodes losslessly during verification.
    """
    return {
        column.name: external_column(column, block[column.name])
        for column in table.columns
    }


def external_value(column: Column, value: float) -> Any:
    """Decode one encoded cell to its exported external value.

    Negative zero is exported as ``0.0`` so every backend writes the same
    external form (SQLite cannot round-trip the sign bit); the content
    checksums normalize identically (:class:`~repro.sinks.manifest.ColumnHasher`).
    """
    external = column.dtype.decode(value)
    if isinstance(external, datetime.date):
        return external.isoformat()
    if isinstance(external, (np.integer,)):
        return int(external)
    if isinstance(external, (float, np.floating)):
        return float(external) + 0.0
    return external


def external_column(
    column: Column, values: NDArray[Any], cell: Callable[[Column, float], Any] = external_value
) -> list[Any]:
    """Decode one encoded column without a Python call per cell.

    Numbers convert in numpy by the rules of :func:`external_value` (half-to-even,
    no ``-0.0``); ``DATE`` / ``STRING`` columns call ``cell`` — it, or a backend's
    rendering of it — once per *distinct* code, so it stays the one definition.
    """
    values = np.asarray(values)
    if column.dtype.kind is TypeKind.INTEGER:
        if values.dtype.kind == "f":
            values = np.rint(values)
        values = values.astype(np.int64, copy=False)
    elif column.dtype.kind is TypeKind.FLOAT:
        values = values + 0.0
    else:
        codes, inverse = np.unique(values, return_inverse=True)
        distinct = [cell(column, code) for code in codes]
        values = np.array(distinct, dtype=object)[inverse]
    decoded: list[Any] = values.tolist()
    return decoded


def encode_external(column: Column, value: Any) -> float:
    """Re-encode one exported external value (inverse of :func:`external_value`).

    Tolerates the ``value_<code>`` placeholder a
    :class:`~repro.catalog.types.StringType` emits for codes outside its
    dictionary, so verification round-trips every exportable value.
    """
    if column.dtype.kind is TypeKind.STRING and isinstance(value, str):
        try:
            return column.dtype.encode(value)
        except KeyError:
            if value.startswith("value_"):
                return float(int(value[len("value_"):]))
            raise
    return column.dtype.encode(value)


class Sink(abc.ABC):
    """Streaming materialization target for regenerated relations.

    Lifecycle: ``open_relation(table)`` → any number of ``write_block``
    calls with encoded column blocks → ``close_relation()``, repeated per
    relation, then one ``finalize(summary)`` that writes the manifest.  One
    relation is open at a time; the base class enforces the protocol and
    keeps the streaming checksum/row accounting, subclasses only write
    bytes.
    """

    #: Short format identifier recorded in the manifest (``csv`` ...).
    format_name: ClassVar[str] = ""

    def __init__(self, out_dir: str | Path) -> None:
        """Create the sink rooted at ``out_dir`` (created if missing).

        A previous export's manifest-listed files in the directory are
        removed: re-exporting must not leave stale relation files next to
        the fresh ``MANIFEST.json`` for directory-globbing consumers to read.
        """
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise HydraError(f"cannot create export directory {self.out_dir}: {exc}")
        self._remove_stale_export()
        self._relations: dict[str, RelationManifest] = {}
        self._current: Table | None = None
        self._hasher: ColumnHasher | None = None
        self._finalized = False

    def _remove_stale_export(self) -> None:
        """Delete the files a previous export's manifest vouched for."""
        try:
            previous = Manifest.load(self.out_dir)
        except (HydraError, ValueError):
            return
        for entry in previous.relations.values():
            for file_name in entry.files:
                # Plain file names only: never follow a path out of out_dir.
                if Path(file_name).name != file_name:
                    continue
                path = self.out_dir / file_name
                if path.is_file():
                    try:
                        path.unlink()
                    except OSError:
                        pass
        (self.out_dir / MANIFEST_NAME).unlink(missing_ok=True)

    # -- streaming protocol ------------------------------------------------

    def open_relation(self, table: Table) -> None:
        """Begin the export of one relation."""
        if self._finalized:
            raise HydraError("sink is finalized; no further relations can be opened")
        if self._current is not None:
            raise HydraError(
                f"relation {self._current.name!r} is still open; close it before "
                f"opening {table.name!r}"
            )
        if table.name in self._relations:
            raise HydraError(f"relation {table.name!r} was already exported")
        self._current = table
        self._hasher = ColumnHasher(table)
        self._backend_open(table)

    def write_block(self, block: Mapping[str, NDArray[Any]]) -> None:
        """Append one encoded column block to the open relation."""
        if self._current is None or self._hasher is None:
            raise HydraError("no relation is open; call open_relation first")
        table = self._current
        lengths = {name: len(block[name]) for name in table.column_names if name in block}
        if len(lengths) < len(table.columns) or len(set(lengths.values())) > 1:
            raise HydraError(
                f"relation {table.name!r}: a block needs every schema column "
                f"{table.column_names} at one length, got lengths {lengths}"
            )
        if self._hasher.update(block):
            self._backend_write(table, block)

    def close_relation(self) -> None:
        """Seal the open relation and record its manifest entry."""
        if self._current is None or self._hasher is None:
            raise HydraError("no relation is open; call open_relation first")
        table, hasher = self._current, self._hasher
        self._current = None
        self._hasher = None
        files = self._backend_close(table)
        self._relations[table.name] = RelationManifest.from_hasher(hasher, files)

    def finalize(self, summary: DatabaseSummary) -> Manifest:
        """Write ``MANIFEST.json`` pinned to ``summary`` and return it."""
        if self._current is not None:
            raise HydraError(
                f"relation {self._current.name!r} is still open; close it before "
                "finalizing the sink"
            )
        if self._finalized:
            raise HydraError("sink is already finalized")
        self._finalized = True
        self._backend_finalize()
        manifest = Manifest(
            format=self.format_name,
            summary_fingerprint=summary.fingerprint(),
            summary_version=summary.version,
            relations=dict(self._relations),
        )
        manifest.save(self.out_dir)
        return manifest

    def abort(self) -> None:
        """Release backend resources after a failed export (idempotent).

        No manifest is written — a directory without a valid ``MANIFEST.json``
        is not an export — but open handles/connections are closed so the
        caller can retry into the same directory.
        """
        if self._finalized:
            return
        self._finalized = True
        self._current = None
        self._hasher = None
        self._backend_abort()

    # -- backend hooks -----------------------------------------------------

    @abc.abstractmethod
    def _backend_open(self, table: Table) -> None:
        """Prepare the backend store for one relation (file, table, ...)."""

    @abc.abstractmethod
    def _backend_write(self, table: Table, block: Mapping[str, NDArray[Any]]) -> None:
        """Write one non-empty encoded block to the backend store."""

    @abc.abstractmethod
    def _backend_close(self, table: Table) -> list[str]:
        """Flush the relation; returns the relative file names it produced."""

    def _backend_finalize(self) -> None:
        """Flush backend-global state (default: nothing to do)."""

    def _backend_abort(self) -> None:
        """Best-effort resource release after a failure (default: nothing)."""

"""Streaming export driver and manifest-based export verification.

:func:`export_summary` drives the (optionally parallel, merged) regenerated
block stream of every relation through a :class:`~repro.sinks.base.Sink`
without ever materialising a relation, and seals the export with its
``MANIFEST.json``.

:func:`verify_export` is the inverse check used by ``hydra verify
--against``: given a summary and an export directory, it validates the
manifest's summary fingerprint and per-relation row counts, then re-reads
the backend files (CSV / SQLite), re-encodes the external values
through the schema types and recomputes the content checksums — proving the
export byte-stream matches what the summary regenerates, **without
regenerating a single tuple**.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sqlite3
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Schema, Table
from ..catalog.types import TypeKind
from ..core.errors import HydraError
from ..core.pipeline import summary_relation_providers
from ..core.summary import DatabaseSummary
from ..executor.rate import RateLimiter
from ..telemetry.session import add_counter, set_gauge, span
from .base import Sink, encode_external
from .csv_sink import CsvSink
from .manifest import ColumnHasher, Manifest, combine_checksums
from .sqlite_sink import SqliteSink

__all__ = [
    "EXPORT_FORMATS",
    "sink_for_format",
    "export_summary",
    "validate_export_against",
    "verify_export",
    "ExportValidation",
]

#: One encoded block: a numpy array per schema column.
_Block = dict[str, NDArray[Any]]

#: Formats ``sink_for_format`` (and the CLI) accepts, in documentation order.
EXPORT_FORMATS = ("csv", "sqlite")

_SINK_CLASSES = {
    "csv": CsvSink,
    "sqlite": SqliteSink,
}


def sink_for_format(format_name: str, out_dir: str | Path) -> Sink:
    """Instantiate the sink backend for ``format_name`` rooted at ``out_dir``.

    Unknown formats raise :class:`~repro.core.errors.HydraError` listing the
    supported ones.
    """
    sink_class = _SINK_CLASSES.get(format_name)
    if sink_class is None:
        raise HydraError(
            f"unknown export format {format_name!r}; choose from "
            + ", ".join(EXPORT_FORMATS)
        )
    return sink_class(out_dir)


def export_summary(
    summary: DatabaseSummary,
    sink: Sink,
    relations: Sequence[str] | None = None,
    rate_limiter: RateLimiter | None = None,
    batch_size: int = 8192,
    shared_rate_limiter: bool = False,
    workers: int = 1,
) -> Manifest:
    """Stream every (or the named) relation of ``summary`` into ``sink``.

    Blocks flow straight from the ``datagen`` providers (pooled when
    ``workers`` > 1 — identical streams) into the sink, so peak memory
    stays bounded by the batch size.  Rate limiting matches :meth:`~repro.core.pipeline.Hydra.
    regenerate`: each relation's stream is paced by its own clone of
    ``rate_limiter``, or every relation draws from the single caller-supplied
    limiter with ``shared_rate_limiter=True``.  Returns the sealed
    :class:`~repro.sinks.manifest.Manifest` after writing ``MANIFEST.json``.
    Unknown relation names raise :class:`~repro.core.errors.HydraError`
    listing every bad name; on any failure mid-export the sink's backend
    resources are released (:meth:`~repro.sinks.base.Sink.abort`) and no
    manifest is written.
    """
    if relations is not None:
        selected: list[str] | None = list(dict.fromkeys(relations))
        unknown = sorted(set(selected) - set(summary.relations))
        if unknown:
            raise HydraError(
                "cannot export unknown relation(s) "
                + ", ".join(repr(name) for name in unknown)
                + "; summary has: "
                + ", ".join(repr(name) for name in sorted(summary.relations))
            )
    else:
        selected = None
    sink_kind = type(sink).__name__
    try:
        with span("export.summary", sink=sink_kind):
            for table_name, relation in summary_relation_providers(
                summary,
                rate_limiter=rate_limiter,
                batch_size=batch_size,
                shared_rate_limiter=shared_rate_limiter,
                workers=workers,
                relations=selected,
            ):
                with span("export.relation", relation=table_name) as relation_span:
                    # Sanctioned wall-clock read (rows/s gauge): timings feed
                    # telemetry only, never the manifest or its checksums —
                    # see WallClockRule.paths in repro/lint/rules/determinism.py.
                    started = time.perf_counter()
                    rows = 0
                    sink.open_relation(summary.schema.table(table_name))
                    for _start, count, block in relation.iter_blocks():
                        sink.write_block(block)
                        rows += count
                    sink.close_relation()
                    elapsed = time.perf_counter() - started
                    add_counter("export.rows_written", float(rows))
                    if elapsed > 0.0:
                        set_gauge(
                            f"export.{table_name}.rows_per_second", rows / elapsed
                        )
                    relation_span.annotate(rows=rows)
            manifest = sink.finalize(summary)
        return manifest
    except BaseException:
        sink.abort()
        raise


# -- verification -----------------------------------------------------------


@dataclass
class ExportValidation:
    """Outcome of :func:`verify_export`: per-relation checks and problems."""

    export_dir: Path
    format: str
    relations_checked: list[str] = field(default_factory=list)
    rows_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every check passed."""
        return not self.problems

    def describe(self) -> str:
        """Human-readable multi-line report of the validation."""
        lines = [
            f"export {self.export_dir} (format {self.format}): "
            f"{len(self.relations_checked)} relation(s), "
            f"{self.rows_checked:,} rows checked"
        ]
        if self.ok:
            lines.append("OK: manifest fingerprint, row counts and content checksums match")
        else:
            lines.extend(f"FAIL: {problem}" for problem in self.problems)
        return "\n".join(lines)


def verify_export(
    summary: DatabaseSummary,
    export_dir: str | Path,
    batch_size: int = 8192,
) -> ExportValidation:
    """Validate an export directory against the summary that produced it.

    Three layers of checks, all without regenerating tuples:

    1. the manifest's ``summary_fingerprint`` must equal
       :meth:`~repro.core.summary.DatabaseSummary.fingerprint` of
       ``summary`` (the export belongs to exactly this summary);
    2. every exported relation must exist in the summary with the
       manifest's row count and column types;
    3. the backend files are re-read ``batch_size`` rows at a time into typed
       columns (:func:`_row_decoder`) and re-hashed — the checksums must equal
       the manifest's; a cell or row that does not parse is a ``cannot re-read
       export`` problem of its relation, never an exception and never ``ok``.
    """
    export_dir = Path(export_dir)
    manifest = Manifest.load(export_dir)
    validation = ExportValidation(export_dir=export_dir, format=manifest.format)
    reader = _READERS.get(manifest.format)
    if reader is None:
        validation.problems.append(
            f"manifest declares unknown format {manifest.format!r}"
        )
        return validation

    expected = summary.fingerprint()
    if manifest.summary_fingerprint != expected:
        validation.problems.append(
            "summary fingerprint mismatch: manifest has "
            f"{manifest.summary_fingerprint[:12]}..., summary is {expected[:12]}..."
        )

    for name, entry in manifest.relations.items():
        if name not in summary.relations:
            validation.problems.append(
                f"manifest lists relation {name!r} which the summary does not have"
            )
            continue
        table = summary.schema.table(name)
        validation.relations_checked.append(name)
        expected_rows = summary.relation(name).total_rows
        if entry.rows != expected_rows:
            validation.problems.append(
                f"{name}: manifest records {entry.rows} rows, summary "
                f"regenerates {expected_rows}"
            )
        expected_columns = {
            column.name: column.dtype.name() for column in table.columns
        }
        if entry.columns != expected_columns:
            validation.problems.append(
                f"{name}: manifest column types {entry.columns} do not match "
                f"schema {expected_columns}"
            )
            continue
        for file_name in entry.files:
            if not (export_dir / file_name).is_file():
                validation.problems.append(
                    f"{name}: exported file {file_name!r} is missing"
                )
        try:
            hasher = ColumnHasher(table)
            for block in reader(export_dir, table, batch_size):
                hasher.update(block)
        except (HydraError, OSError, sqlite3.Error, ValueError, KeyError, TypeError,
                OverflowError) as exc:  # whatever a malformed cell raises while parsing
            validation.problems.append(f"{name}: cannot re-read export: {exc}")
            continue
        validation.rows_checked += hasher.rows
        if hasher.rows != entry.rows:
            validation.problems.append(
                f"{name}: export holds {hasher.rows} rows, manifest records "
                f"{entry.rows}"
            )
        recomputed = hasher.column_checksums()
        for column_name, digest in entry.column_checksums.items():
            if recomputed.get(column_name) != digest:
                validation.problems.append(
                    f"{name}.{column_name}: content checksum mismatch "
                    "(export bytes differ from the regenerated stream)"
                )
        if combine_checksums(hasher.rows, recomputed) != entry.checksum:
            prefixes = (f"{name}:", f"{name}.")
            if not any(
                problem.startswith(prefixes) for problem in validation.problems
            ):
                validation.problems.append(f"{name}: relation checksum mismatch")
    return validation


def validate_export_against(
    summary: DatabaseSummary,
    export_dir: str | Path,
    client_schema: Schema,
    batch_size: int = 8192,
) -> ExportValidation:
    """Validate an export for a client: schema membership + :func:`verify_export`.

    This is the one shared implementation behind ``hydra verify --against``
    and the server's verify endpoint.  It first proves the client package
    and the summary describe the same database (identical relation-name
    sets — an export of a *different* client's summary must fail loudly,
    not with a confusing fingerprint mismatch), then runs the full manifest
    and content-checksum validation.  Raises
    :class:`~repro.core.errors.HydraError` on the membership mismatch.
    """
    client_tables = sorted(client_schema.table_names)
    summary_tables = sorted(summary.schema.table_names)
    if client_tables != summary_tables:
        raise HydraError(
            f"summary describes relations {', '.join(summary_tables)} but "
            f"the package describes {', '.join(client_tables)}; they do "
            "not belong to the same client database"
        )
    return verify_export(summary, export_dir, batch_size=batch_size)


def _row_decoder(table: Table) -> tuple[np.dtype[Any], Callable[[NDArray[Any]], _Block]]:
    """Structured dtype of a batch of external rows, and its split into encoded columns.

    ``DATE`` / ``STRING`` fields stay objects until ``encode`` maps them through
    :func:`~repro.sinks.base.encode_external`, memoised per distinct value.
    """
    encoders = {
        column.name: functools.cache(functools.partial(encode_external, column))
        for column in table.columns
        if column.dtype.kind in (TypeKind.DATE, TypeKind.STRING)
    }

    def encode(batch: NDArray[Any]) -> _Block:
        block = {name: batch[name] for name in table.column_names}
        for name, encoder in encoders.items():
            block[name] = np.fromiter(map(encoder, batch[name]), np.int64, len(batch))
        return block

    fields = [
        (column.name, object if column.name in encoders else column.dtype.numpy_dtype)
        for column in table.columns
    ]
    return np.dtype(fields), encode


def _read_csv(export_dir: Path, table: Table, batch_size: int) -> Iterator[_Block]:
    """Stream encoded blocks back out of a CSV export.

    ``np.loadtxt`` parses ``batch_size`` rows at a time: a cell that is not of its
    column's type, or a row of too few or too many cells, is a ``ValueError`` on every
    supported numpy (before 2.3 an ``INTEGER`` cell like ``2.5`` only warned and was
    truncated, so that warning is an error here).  A blank line holds no cell: skipped.
    """
    path = CsvSink.relation_path(export_dir, table.name)
    dtype, encode = _row_decoder(table)
    with path.open("r", newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle), None)
        if header != table.column_names:
            raise HydraError(
                f"{path} header {header} does not match schema columns {table.column_names}"
            )
        for line in handle:  # peek one line per batch: loadtxt warns when asked to parse nothing
            with warnings.catch_warnings():  # closed before the yield: filters must not leak
                warnings.simplefilter("error", DeprecationWarning)
                batch = np.loadtxt(
                    itertools.chain([line], handle), dtype=dtype, delimiter=",", quotechar='"',
                    comments=None, max_rows=batch_size, ndmin=1, encoding=None,
                )
            yield encode(batch)


def _read_sqlite(export_dir: Path, table: Table, batch_size: int) -> Iterator[_Block]:
    """Stream encoded blocks back out of a SQLite export."""
    path = SqliteSink.database_path(export_dir)
    if not path.is_file():
        raise HydraError(f"{path} does not exist")
    dtype, encode = _row_decoder(table)
    quoted = ", ".join('"' + name.replace('"', '""') + '"' for name in table.column_names)
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        cursor = connection.execute(
            f'SELECT {quoted} FROM "{table.name}" ORDER BY rowid'
        )
        for rows in iter(lambda: cursor.fetchmany(batch_size), []):
            yield encode(np.array(rows, dtype=dtype))
    finally:
        connection.close()


_READERS = {
    "csv": _read_csv,
    "sqlite": _read_sqlite,
}

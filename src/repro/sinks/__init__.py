"""Multi-backend streaming materialization sinks (``repro.sinks``).

The paper's end product is a *deployable* regenerated database: the summary
is only useful once its tuple streams land in a store a real client can
query.  This package turns the (optionally parallel, merged) regenerated
block stream into exactly that, without ever holding a relation in memory:

* :class:`~repro.sinks.base.Sink` — the common streaming interface
  (``open_relation`` / ``write_block`` / ``close_relation`` /
  ``finalize``) with shared manifest/checksum accounting;
* :class:`~repro.sinks.csv_sink.CsvSink` and
  :class:`~repro.sinks.sqlite_sink.SqliteSink` (both stdlib-only) — the
  shipped backends;
* :func:`~repro.sinks.export.export_summary` — the streaming export driver
  (``hydra vendor --format ... --out`` and the server's export endpoint; it
  builds its providers exactly like ``Hydra.regenerate``);
* :func:`~repro.sinks.export.verify_export` — ``hydra verify --against``:
  validate an export directory against its summary from the
  ``MANIFEST.json`` fingerprints, row counts and content checksums, without
  regenerating a tuple.
"""

from .base import Sink
from .csv_sink import CsvSink
from .export import (
    EXPORT_FORMATS,
    ExportValidation,
    export_summary,
    sink_for_format,
    validate_export_against,
    verify_export,
)
from .manifest import MANIFEST_NAME, ColumnHasher, Manifest, RelationManifest
from .sqlite_sink import SqliteSink

__all__ = [
    "Sink",
    "CsvSink",
    "SqliteSink",
    "Manifest",
    "RelationManifest",
    "ColumnHasher",
    "MANIFEST_NAME",
    "EXPORT_FORMATS",
    "ExportValidation",
    "export_summary",
    "sink_for_format",
    "validate_export_against",
    "verify_export",
]

"""The ``MANIFEST.json`` sidecar every export directory carries.

A manifest pins an export to the exact summary that produced it (the
summary's :meth:`~repro.core.summary.DatabaseSummary.fingerprint`) and
records, per exported relation, the row count, the logical column types and
*content checksums* of the regenerated tuple stream.  The checksums are
computed over the **encoded** numeric column streams (one sha256 per column,
fed block by block), which makes them

* independent of block boundaries — a parallel (``workers=N``) export
  hashes to the same digests as a serial one because the merged streams are
  row-identical, only chunked differently; and
* independent of the backend — CSV and SQLite exports of the same
  summary share the same checksums, and so does the in-memory stream, which
  is what lets ``hydra verify --against`` validate an export without
  regenerating a single tuple.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Table
from ..core.errors import HydraError
from ..serialization import write_atomic

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT_VERSION",
    "ColumnHasher",
    "RelationManifest",
    "Manifest",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT_VERSION = 1


class ColumnHasher:
    """Streaming content checksums for one relation's column streams.

    Feed encoded blocks in stream order with :meth:`update`; the per-column
    digests only depend on each column's concatenated byte stream, never on
    how the stream was cut into blocks.
    """

    def __init__(self, table: Table) -> None:
        """Prepare one sha256 stream per schema column of ``table``."""
        self.table = table
        self.rows = 0
        self._hashers = {
            column.name: hashlib.sha256() for column in table.columns
        }

    def update(self, block: Mapping[str, NDArray[Any]]) -> int:
        """Absorb one encoded block; returns the number of rows absorbed."""
        count = 0
        for column in self.table.columns:
            values = np.ascontiguousarray(
                np.asarray(block[column.name], dtype=column.dtype.numpy_dtype)
            )
            if values.dtype.kind == "f":
                # Normalize negative zeros: -0.0 == 0.0 numerically, but not
                # every backend can round-trip the sign bit (SQLite's record
                # format stores integer-valued REALs as integers), so the
                # checksum treats the two as the same value.
                values = values + 0.0
            count = len(values)
            self._hashers[column.name].update(values.tobytes())
        self.rows += count
        return count

    def column_checksums(self) -> dict[str, str]:
        """Hex digest per column, in schema column order."""
        return {name: hasher.hexdigest() for name, hasher in self._hashers.items()}

    def relation_checksum(self) -> str:
        """One digest combining the row count and every column digest."""
        return combine_checksums(self.rows, self.column_checksums())


def combine_checksums(rows: int, column_checksums: Mapping[str, str]) -> str:
    """Combine per-column digests into one relation-level digest."""
    parts = [f"rows={int(rows)}"]
    parts.extend(
        f"{name}={digest}" for name, digest in sorted(column_checksums.items())
    )
    return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()


@dataclass
class RelationManifest:
    """Manifest entry of one exported relation."""

    rows: int
    columns: dict[str, str]
    column_checksums: dict[str, str]
    checksum: str
    files: list[str] = field(default_factory=list)

    @classmethod
    def from_hasher(cls, hasher: ColumnHasher, files: Sequence[str]) -> "RelationManifest":
        """Seal a finished :class:`ColumnHasher` into a manifest entry."""
        return cls(
            rows=hasher.rows,
            columns={
                column.name: column.dtype.name() for column in hasher.table.columns
            },
            column_checksums=hasher.column_checksums(),
            checksum=hasher.relation_checksum(),
            files=list(files),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form of this entry."""
        return {
            "rows": int(self.rows),
            "columns": dict(self.columns),
            "column_checksums": dict(self.column_checksums),
            "checksum": self.checksum,
            "files": list(self.files),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RelationManifest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rows=int(payload["rows"]),
            columns={str(k): str(v) for k, v in payload.get("columns", {}).items()},
            column_checksums={
                str(k): str(v)
                for k, v in payload.get("column_checksums", {}).items()
            },
            checksum=str(payload["checksum"]),
            files=[str(item) for item in payload.get("files", [])],
        )


@dataclass
class Manifest:
    """The complete ``MANIFEST.json`` of one export directory."""

    format: str
    summary_fingerprint: str
    summary_version: int
    relations: dict[str, RelationManifest] = field(default_factory=dict)
    format_version: int = MANIFEST_FORMAT_VERSION

    def total_rows(self) -> int:
        """Total rows exported across all relations."""
        return sum(entry.rows for entry in self.relations.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form of the manifest."""
        return {
            "format_version": int(self.format_version),
            "format": self.format,
            "summary_fingerprint": self.summary_fingerprint,
            "summary_version": int(self.summary_version),
            "relations": {
                name: entry.to_dict() for name, entry in self.relations.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Manifest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            format=str(payload["format"]),
            summary_fingerprint=str(payload.get("summary_fingerprint", "")),
            summary_version=int(payload.get("summary_version", 1)),
            relations={
                str(name): RelationManifest.from_dict(entry)
                for name, entry in payload.get("relations", {}).items()
            },
            format_version=int(payload.get("format_version", MANIFEST_FORMAT_VERSION)),
        )

    def save(self, out_dir: str | Path) -> Path:
        """Write ``MANIFEST.json`` into ``out_dir`` and return its path."""
        path = Path(out_dir) / MANIFEST_NAME
        write_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, out_dir: str | Path) -> "Manifest":
        """Read the manifest of an export directory.

        Raises :class:`~repro.core.errors.HydraError` when the directory has
        no manifest or the manifest's format version is unknown.
        """
        path = Path(out_dir) / MANIFEST_NAME
        if not path.is_file():
            raise HydraError(
                f"{out_dir} is not an export directory: no {MANIFEST_NAME} found"
            )
        payload = json.loads(path.read_text())
        version = int(payload.get("format_version", -1))
        if version != MANIFEST_FORMAT_VERSION:
            raise HydraError(
                f"unsupported manifest format version {version!r} in {path}"
            )
        return cls.from_dict(payload)

"""The information package shipped from the client to the vendor.

Only three things cross the privacy boundary (paper Figure 2): the schema,
the CODD-style metadata (row counts and column statistics), and the query
workload with its AQPs.  No tuples ever leave the client.  The package is a
single JSON document so it can be inspected, archived, anonymised and
replayed.

Dynamic workloads ship *deltas*: once the vendor holds a base package, the
client only sends the newly collected AQPs as a :class:`DeltaPackage` tagged
with the base package's fingerprint.  The vendor applies the delta to its
archived base (:meth:`InformationPackage.apply_delta`) — or feeds it straight
into incremental summary maintenance (``hydra vendor --extend-from``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..catalog.metadata import DatabaseMetadata
from ..core.errors import HydraError
from ..plans.aqp import AnnotatedQueryPlan
from ..serialization import JsonDocument

__all__ = ["InformationPackage", "DeltaPackage", "load_package_file"]

_FORMAT_VERSION = 1


def _decoded(what: str, text: str) -> Any:
    """``text`` as JSON; :class:`HydraError` when it is not."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise HydraError(f"malformed {what} at <document>: {exc}") from exc


def _package_fields(what: str, payload: Any, *text_fields: str) -> dict[str, Any]:
    """The validated constructor fields of either package flavour.

    A package arrives from disk or the wire, so it is validated once, here:
    a missing key or a value of the wrong type raises :class:`HydraError`
    naming the offending field instead of leaking a raw exception from deep
    inside the parse.
    """
    where = "<document>"
    try:
        if not isinstance(payload, Mapping):
            raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
        where = "format_version"
        if payload.get(where, _FORMAT_VERSION) != _FORMAT_VERSION:
            raise ValueError(f"unsupported version {payload[where]!r}")
        where = "metadata"
        metadata = DatabaseMetadata.from_dict(payload[where])
        where = "aqps"
        items = payload.get(where, [])
        if not isinstance(items, list):
            raise TypeError(f"expected a list, got {type(items).__name__}")
        aqps = []
        for index, item in enumerate(items):
            where = f"aqps[{index}]"
            aqps.append(AnnotatedQueryPlan.from_dict(item))
        fields: dict[str, Any] = {"metadata": metadata, "aqps": aqps}
        for where in text_fields:
            if where in payload:
                if not isinstance(payload[where], str):
                    raise TypeError(f"expected a string, got {type(payload[where]).__name__}")
                fields[where] = payload[where]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise HydraError(f"malformed {what} at {where}: {exc!r}") from exc
    return fields


@dataclass
class InformationPackage(JsonDocument):
    """Schema + metadata + AQPs, as produced by the client site."""

    metadata: DatabaseMetadata
    aqps: list[AnnotatedQueryPlan] = field(default_factory=list)
    client_name: str = "client"
    notes: str = ""

    @property
    def query_count(self) -> int:
        return len(self.aqps)

    def constraint_count(self) -> int:
        return sum(len(aqp.edges()) for aqp in self.aqps)

    def aqp(self, name: str) -> AnnotatedQueryPlan:
        for aqp in self.aqps:
            if aqp.name == name:
                return aqp
        raise KeyError(f"package has no AQP named {name!r}")

    # -- delta workflow --------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the package (metadata + workload).

        Used to pair a :class:`DeltaPackage` with the base package it extends
        — the vendor refuses to splice a delta onto the wrong base.  Only the
        *content* (metadata and AQPs) is hashed: annotations such as
        ``client_name`` and ``notes`` do not change what a summary is built
        from, and excluding them lets the vendor re-derive the union
        package's fingerprint from the delta alone.
        """
        payload = {
            "metadata": self.metadata.to_dict(),
            "aqps": [aqp.to_dict() for aqp in self.aqps],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def make_delta(
        self, aqps: Iterable[AnnotatedQueryPlan], notes: str = ""
    ) -> "DeltaPackage":
        """Package newly collected AQPs as a delta against this base."""
        return DeltaPackage(
            metadata=self.metadata,
            aqps=list(aqps),
            base_fingerprint=self.fingerprint(),
            client_name=self.client_name,
            notes=notes,
        )

    def apply_delta(self, delta: "DeltaPackage") -> "InformationPackage":
        """The union package: this base extended by the delta's AQPs."""
        if delta.base_fingerprint and delta.base_fingerprint != self.fingerprint():
            raise ValueError(
                f"delta package was built against base {delta.base_fingerprint!r}, "
                f"not this package ({self.fingerprint()!r})"
            )
        return InformationPackage(
            metadata=self.metadata,
            aqps=list(self.aqps) + list(delta.aqps),
            client_name=self.client_name,
            notes=self.notes,
        )

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": _FORMAT_VERSION,
            "client_name": self.client_name,
            "notes": self.notes,
            "metadata": self.metadata.to_dict(),
            "aqps": [aqp.to_dict() for aqp in self.aqps],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InformationPackage":
        return cls(**_package_fields("information package", payload, "client_name", "notes"))

    @classmethod
    def from_json(cls, text: str) -> "InformationPackage":
        return cls.from_dict(_decoded("information package", text))

    def size_bytes(self) -> int:
        """Serialised size of the package (what actually gets transferred)."""
        return len(self.to_json().encode("utf-8"))

    def describe(self) -> str:
        tables = ", ".join(self.metadata.schema.table_names)
        return (
            f"information package from {self.client_name!r}: "
            f"{len(self.metadata.schema)} tables ({tables}), "
            f"{self.query_count} queries, {self.constraint_count()} annotated edges, "
            f"{self.size_bytes()} bytes"
        )


@dataclass
class DeltaPackage(JsonDocument):
    """Newly collected AQPs extending an already-shipped base package.

    Carries the (unchanged) metadata so the vendor can stand up a pipeline
    without re-reading the base package, plus the base's fingerprint so a
    delta cannot be spliced onto the wrong summary.
    """

    metadata: DatabaseMetadata
    aqps: list[AnnotatedQueryPlan] = field(default_factory=list)
    base_fingerprint: str = ""
    client_name: str = "client"
    notes: str = ""

    @property
    def query_count(self) -> int:
        return len(self.aqps)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "delta",
            "base_fingerprint": self.base_fingerprint,
            "client_name": self.client_name,
            "notes": self.notes,
            "metadata": self.metadata.to_dict(),
            "aqps": [aqp.to_dict() for aqp in self.aqps],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeltaPackage":
        if isinstance(payload, Mapping) and payload.get("kind") != "delta":
            raise HydraError("malformed delta package at kind: payload is not a delta package")
        return cls(
            **_package_fields("delta package", payload, "base_fingerprint", "client_name", "notes")
        )

    @classmethod
    def from_json(cls, text: str) -> "DeltaPackage":
        return cls.from_dict(_decoded("delta package", text))

    def describe(self) -> str:
        base = self.base_fingerprint or "<unpinned>"
        return (
            f"delta package from {self.client_name!r} against base {base}: "
            f"{self.query_count} new queries"
        )


def load_package_file(path: str | Path) -> "InformationPackage | DeltaPackage":
    """Load either package flavour from disk, dispatching on the JSON ``kind``."""
    payload = _decoded("information package", Path(path).read_text())
    if isinstance(payload, Mapping) and payload.get("kind") == "delta":
        return DeltaPackage.from_dict(payload)
    return InformationPackage.from_dict(payload)

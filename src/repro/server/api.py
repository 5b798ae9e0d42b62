"""The versioned request/response contract of the regeneration server.

Every body that crosses the HTTP boundary — in either direction — is one of
the dataclasses below.  They are the *single* public contract: the asyncio
HTTP layer (:mod:`repro.server.http`) validates inbound payloads through
``from_dict`` and serialises outbound ones through ``to_dict``; the blocking
:class:`repro.server.client.ServerClient` round-trips the very same classes;
and the ``hydra serve`` CLI never invents a shape of its own.

Versioning policy
-----------------

``SCHEMA_VERSION`` names the wire format.  Every response body carries it as
``schema_version``; requests may carry it and are rejected (HTTP 400) when it
does not match, so a client built against a different contract fails loudly
at the boundary instead of mis-parsing deep inside a handler.  Additive,
backward-compatible fields keep the version; renames/removals/semantic
changes bump it.  The URL prefix (:data:`API_PREFIX`) carries the major
version so two incompatible contracts can be served side by side.

Validation happens here and only here: ``from_dict`` rejects unknown keys,
missing required keys and wrongly-typed values with :class:`ApiError`, which
the HTTP layer maps to a 400 response.  Handlers therefore only ever see
well-formed typed values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

__all__ = [
    "API_PREFIX",
    "SCHEMA_VERSION",
    "ApiError",
    "ErrorBody",
    "EvictResponse",
    "ExportRequest",
    "ExportResponse",
    "LoadSummaryRequest",
    "ProgressEvent",
    "QueryRequest",
    "QueryResponse",
    "RegenerateRequest",
    "RouteEventBody",
    "ServerInfo",
    "SummaryInfo",
    "SummaryListResponse",
    "VerifyRequest",
    "VerifyResponse",
]

#: Wire-format version carried by every body (see the module docstring).
SCHEMA_VERSION = 2

#: URL prefix of the served API; the major version lives in the path.
API_PREFIX = "/api/v2"


class ApiError(ValueError):
    """A payload violates the contract (maps to HTTP 400 at the boundary)."""


def _check(payload: Mapping[str, Any], required: tuple[str, ...], optional: tuple[str, ...], what: str) -> None:
    """Reject unknown and missing keys of an inbound mapping."""
    if not isinstance(payload, Mapping):
        raise ApiError(f"{what}: body must be a JSON object, got {type(payload).__name__}")
    allowed = set(required) | set(optional) | {"schema_version"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ApiError(
            f"{what}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    missing = sorted(set(required) - set(payload))
    if missing:
        raise ApiError(f"{what}: missing required key(s) {', '.join(map(repr, missing))}")
    version = payload.get("schema_version")
    if version is not None and version != SCHEMA_VERSION:
        raise ApiError(
            f"{what}: schema_version {version!r} does not match the served "
            f"contract (schema_version {SCHEMA_VERSION})"
        )


def _typed(payload: Mapping[str, Any], key: str, kinds: type | tuple[type, ...], what: str, default: Any = None) -> Any:
    """Fetch ``key`` checking its type (``None`` passes through as default)."""
    value = payload.get(key, default)
    if value is None:
        return default
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ApiError(f"{what}: key {key!r} must be {kinds}, got bool")
    if not isinstance(value, kinds):
        kind_names = (
            ", ".join(k.__name__ for k in kinds)
            if isinstance(kinds, tuple)
            else kinds.__name__
        )
        raise ApiError(
            f"{what}: key {key!r} must be of type {kind_names}, "
            f"got {type(value).__name__}"
        )
    return value


def _check_workers(workers: int | None, what: str) -> None:
    """Reject a worker count no stream could run with (``None`` = server default)."""
    if workers is not None and workers < 1:
        raise ApiError(f"{what}: 'workers' must be >= 1, got {workers}")


def _versioned(payload: dict[str, Any]) -> dict[str, Any]:
    """Stamp the contract version onto an outbound body."""
    payload["schema_version"] = SCHEMA_VERSION
    return payload


@dataclass(frozen=True)
class ErrorBody:
    """Machine-readable failure envelope of every non-2xx response."""

    error: str
    detail: str
    status: int = 400
    retry_after: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire (``retry_after`` omitted when absent)."""
        payload: dict[str, Any] = {
            "error": self.error, "detail": self.detail, "status": self.status,
        }
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return _versioned(payload)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorBody":
        """Parse and validate an inbound error body."""
        _check(payload, ("error", "detail"), ("status", "retry_after"), "ErrorBody")
        return cls(
            error=_typed(payload, "error", str, "ErrorBody"),
            detail=_typed(payload, "detail", str, "ErrorBody"),
            status=int(_typed(payload, "status", int, "ErrorBody", 400)),
            retry_after=_typed(payload, "retry_after", (int, float), "ErrorBody"),
        )


@dataclass(frozen=True)
class ServerInfo:
    """``GET /api/v2/healthz`` — liveness plus the served contract."""

    server: str
    schema_version: int
    summaries_loaded: int
    requests_served: int

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(
            {
                "server": self.server,
                "summaries_loaded": self.summaries_loaded,
                "requests_served": self.requests_served,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServerInfo":
        """Parse and validate an inbound body."""
        _check(payload, ("server", "summaries_loaded", "requests_served"), (), "ServerInfo")
        return cls(
            server=_typed(payload, "server", str, "ServerInfo"),
            schema_version=int(payload.get("schema_version", SCHEMA_VERSION)),
            summaries_loaded=int(_typed(payload, "summaries_loaded", int, "ServerInfo", 0)),
            requests_served=int(_typed(payload, "requests_served", int, "ServerInfo", 0)),
        )


@dataclass(frozen=True)
class LoadSummaryRequest:
    """``POST /api/v2/summaries`` — load (or refresh) a summary into the cache.

    Exactly one of ``path`` (a summary JSON on the server's filesystem) or
    ``summary`` (the inline ``DatabaseSummary.to_dict`` payload) must be
    given.  Re-loading identical content is a cache hit; different content
    under an existing name atomically swaps the served version while
    in-flight queries finish against the old one.
    """

    name: str
    path: str | None = None
    summary: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        """Enforce the exactly-one-source invariant at construction."""
        if not self.name:
            raise ApiError("LoadSummaryRequest: 'name' must be a non-empty string")
        if (self.path is None) == (self.summary is None):
            raise ApiError(
                "LoadSummaryRequest: exactly one of 'path' or 'summary' must be given"
            )

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        payload: dict[str, Any] = {"name": self.name}
        if self.path is not None:
            payload["path"] = self.path
        if self.summary is not None:
            payload["summary"] = dict(self.summary)
        return _versioned(payload)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LoadSummaryRequest":
        """Parse and validate an inbound body."""
        _check(payload, ("name",), ("path", "summary"), "LoadSummaryRequest")
        return cls(
            name=_typed(payload, "name", str, "LoadSummaryRequest"),
            path=_typed(payload, "path", str, "LoadSummaryRequest"),
            summary=_typed(payload, "summary", Mapping, "LoadSummaryRequest"),
        )


@dataclass(frozen=True)
class SummaryInfo:
    """One cached summary as the server sees it.

    ``generation`` counts swaps under this *name* on this server (1 on first
    load); ``summary_version`` is the summary's own maintenance version
    (bumped by ``Hydra.extend_summary``); ``fingerprint`` pins content.
    """

    name: str
    fingerprint: str
    summary_version: int
    generation: int
    relations: dict[str, int]
    total_rows: int
    summary_bytes: int
    cache_hit: bool = False

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SummaryInfo":
        """Parse and validate an inbound body."""
        _check(
            payload,
            ("name", "fingerprint", "summary_version", "generation", "relations",
             "total_rows", "summary_bytes"),
            ("cache_hit",),
            "SummaryInfo",
        )
        relations = _typed(payload, "relations", Mapping, "SummaryInfo", {})
        return cls(
            name=_typed(payload, "name", str, "SummaryInfo"),
            fingerprint=_typed(payload, "fingerprint", str, "SummaryInfo"),
            summary_version=int(_typed(payload, "summary_version", int, "SummaryInfo", 1)),
            generation=int(_typed(payload, "generation", int, "SummaryInfo", 1)),
            relations={str(k): int(v) for k, v in relations.items()},
            total_rows=int(_typed(payload, "total_rows", int, "SummaryInfo", 0)),
            summary_bytes=int(_typed(payload, "summary_bytes", int, "SummaryInfo", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
        )


@dataclass(frozen=True)
class SummaryListResponse:
    """``GET /api/v2/summaries`` — every currently-served summary."""

    summaries: list[SummaryInfo] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned({"summaries": [info.to_dict() for info in self.summaries]})

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SummaryListResponse":
        """Parse and validate an inbound body."""
        _check(payload, ("summaries",), (), "SummaryListResponse")
        items = payload["summaries"]
        if not isinstance(items, list):
            raise ApiError("SummaryListResponse: 'summaries' must be a list")
        return cls(summaries=[SummaryInfo.from_dict(item) for item in items])


@dataclass(frozen=True)
class EvictResponse:
    """``DELETE /api/v2/summaries/{name}`` — outcome of an eviction."""

    name: str
    evicted: bool

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned({"name": self.name, "evicted": self.evicted})

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvictResponse":
        """Parse and validate an inbound body."""
        _check(payload, ("name", "evicted"), (), "EvictResponse")
        return cls(
            name=_typed(payload, "name", str, "EvictResponse"),
            evicted=bool(_typed(payload, "evicted", bool, "EvictResponse", False)),
        )


@dataclass(frozen=True)
class QueryRequest:
    """``POST /api/v2/summaries/{name}/query`` — run one engine query.

    The engine picks the route (summary, streaming, materialising) from the
    plan and the cached summary; the response's ``route_events`` report it.
    ``rows_per_second`` paces the regenerated streams feeding the query
    through a per-request :class:`repro.executor.rate.RateLimiter` clone.
    """

    sql: str
    rows_per_second: float | None = None

    def __post_init__(self) -> None:
        """Reject empty statements at construction."""
        if not self.sql or not self.sql.strip():
            raise ApiError("QueryRequest: 'sql' must be a non-empty statement")

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        """Parse and validate an inbound body."""
        _check(payload, ("sql",), ("rows_per_second",), "QueryRequest")
        rate = _typed(payload, "rows_per_second", (int, float), "QueryRequest")
        return cls(
            sql=_typed(payload, "sql", str, "QueryRequest"),
            rows_per_second=float(rate) if rate is not None else None,
        )


@dataclass(frozen=True)
class RouteEventBody:
    """One engine routing decision, mirrored from ``RouteEvent``."""

    kind: str
    route: str
    reason: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire (no version stamp: always nested)."""
        return {"kind": self.kind, "route": self.route, "reason": self.reason}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RouteEventBody":
        """Parse and validate a nested route event."""
        _check(payload, ("kind", "route"), ("reason",), "RouteEventBody")
        return cls(
            kind=_typed(payload, "kind", str, "RouteEventBody"),
            route=_typed(payload, "route", str, "RouteEventBody"),
            reason=_typed(payload, "reason", str, "RouteEventBody"),
        )


@dataclass(frozen=True)
class QueryResponse:
    """Result of one engine query against a cached summary.

    ``columns`` holds external (client-facing) values — dates as ISO
    strings, dictionary strings decoded — exactly the representation the
    export sinks write.  ``annotations`` is the executed plan's per-operator
    output cardinality (the AQP annotation the volumetric check compares);
    ``route_events`` records every fast-path/fallback decision the engine
    made while answering.
    """

    columns: dict[str, list[Any]]
    row_count: int
    scanned_rows: int
    aggregate_route: str | None
    route_events: list[RouteEventBody]
    annotations: list[dict[str, Any]]
    fingerprint: str
    summary_version: int
    generation: int
    elapsed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(
            {
                "columns": self.columns,
                "row_count": self.row_count,
                "scanned_rows": self.scanned_rows,
                "aggregate_route": self.aggregate_route,
                "route_events": [event.to_dict() for event in self.route_events],
                "annotations": self.annotations,
                "fingerprint": self.fingerprint,
                "summary_version": self.summary_version,
                "generation": self.generation,
                "elapsed_seconds": self.elapsed_seconds,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResponse":
        """Parse and validate an inbound body."""
        _check(
            payload,
            ("columns", "row_count", "scanned_rows", "fingerprint"),
            ("aggregate_route", "route_events", "annotations", "summary_version",
             "generation", "elapsed_seconds"),
            "QueryResponse",
        )
        columns = _typed(payload, "columns", Mapping, "QueryResponse", {})
        events = payload.get("route_events", [])
        if not isinstance(events, list):
            raise ApiError("QueryResponse: 'route_events' must be a list")
        annotations = payload.get("annotations", [])
        if not isinstance(annotations, list):
            raise ApiError("QueryResponse: 'annotations' must be a list")
        return cls(
            columns={str(k): list(v) for k, v in columns.items()},
            row_count=int(_typed(payload, "row_count", int, "QueryResponse", 0)),
            scanned_rows=int(_typed(payload, "scanned_rows", int, "QueryResponse", 0)),
            aggregate_route=_typed(payload, "aggregate_route", str, "QueryResponse"),
            route_events=[RouteEventBody.from_dict(item) for item in events],
            annotations=[dict(item) for item in annotations],
            fingerprint=_typed(payload, "fingerprint", str, "QueryResponse"),
            summary_version=int(_typed(payload, "summary_version", int, "QueryResponse", 1)),
            generation=int(_typed(payload, "generation", int, "QueryResponse", 1)),
            elapsed_seconds=float(
                _typed(payload, "elapsed_seconds", (int, float), "QueryResponse", 0.0)
            ),
        )


@dataclass(frozen=True)
class VerifyRequest:
    """``POST /api/v2/summaries/{name}/verify`` — submit a workload verification.

    Exactly one of ``package`` (inline ``InformationPackage.to_dict``) or
    ``package_path`` (a package JSON on the server's filesystem) names the
    workload.  Without ``against_dir`` the AQPs are re-executed over the
    regenerated database and compared volumetrically; with it, the export
    directory is validated against the cached summary through the same
    helper ``hydra verify --against`` uses — no tuple is regenerated.
    """

    package: Mapping[str, Any] | None = None
    package_path: str | None = None
    against_dir: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        """Enforce the exactly-one-package-source invariant."""
        if (self.package is None) == (self.package_path is None):
            raise ApiError(
                "VerifyRequest: exactly one of 'package' or 'package_path' must be given"
            )
        _check_workers(self.workers, "VerifyRequest")

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        payload: dict[str, Any] = {}
        if self.package is not None:
            payload["package"] = dict(self.package)
        if self.package_path is not None:
            payload["package_path"] = self.package_path
        if self.against_dir is not None:
            payload["against_dir"] = self.against_dir
        if self.workers is not None:
            payload["workers"] = self.workers
        return _versioned(payload)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VerifyRequest":
        """Parse and validate an inbound body."""
        _check(payload, (), ("package", "package_path", "against_dir", "workers"), "VerifyRequest")
        workers = _typed(payload, "workers", int, "VerifyRequest")
        return cls(
            package=_typed(payload, "package", Mapping, "VerifyRequest"),
            package_path=_typed(payload, "package_path", str, "VerifyRequest"),
            against_dir=_typed(payload, "against_dir", str, "VerifyRequest"),
            workers=int(workers) if workers is not None else None,
        )


@dataclass(frozen=True)
class VerifyResponse:
    """Outcome of a verification (volumetric or export validation)."""

    mode: str
    ok: bool
    total_edges: int = 0
    max_relative_error: float = 0.0
    mean_relative_error: float = 0.0
    error_cdf: list[list[float]] = field(default_factory=list)
    relations_checked: list[str] = field(default_factory=list)
    rows_checked: int = 0
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VerifyResponse":
        """Parse and validate an inbound body."""
        _check(
            payload,
            ("mode", "ok"),
            ("total_edges", "max_relative_error", "mean_relative_error", "error_cdf",
             "relations_checked", "rows_checked", "problems"),
            "VerifyResponse",
        )
        return cls(
            mode=_typed(payload, "mode", str, "VerifyResponse"),
            ok=bool(_typed(payload, "ok", bool, "VerifyResponse", False)),
            total_edges=int(_typed(payload, "total_edges", int, "VerifyResponse", 0)),
            max_relative_error=float(
                _typed(payload, "max_relative_error", (int, float), "VerifyResponse", 0.0)
            ),
            mean_relative_error=float(
                _typed(payload, "mean_relative_error", (int, float), "VerifyResponse", 0.0)
            ),
            error_cdf=[[float(a), float(b)] for a, b in payload.get("error_cdf", [])],
            relations_checked=[str(item) for item in payload.get("relations_checked", [])],
            rows_checked=int(_typed(payload, "rows_checked", int, "VerifyResponse", 0)),
            problems=[str(item) for item in payload.get("problems", [])],
        )


@dataclass(frozen=True)
class ExportRequest:
    """``POST /api/v2/summaries/{name}/export`` — materialise to a sink."""

    format: str
    out_dir: str
    relations: list[str] | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        """Reject structurally-empty requests at construction."""
        if not self.format:
            raise ApiError("ExportRequest: 'format' must be a non-empty string")
        if not self.out_dir:
            raise ApiError("ExportRequest: 'out_dir' must be a non-empty string")
        _check_workers(self.workers, "ExportRequest")

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExportRequest":
        """Parse and validate an inbound body."""
        _check(payload, ("format", "out_dir"), ("relations", "workers"), "ExportRequest")
        relations = payload.get("relations")
        if relations is not None and not isinstance(relations, list):
            raise ApiError("ExportRequest: 'relations' must be a list of names")
        workers = _typed(payload, "workers", int, "ExportRequest")
        return cls(
            format=_typed(payload, "format", str, "ExportRequest"),
            out_dir=_typed(payload, "out_dir", str, "ExportRequest"),
            relations=[str(item) for item in relations] if relations is not None else None,
            workers=int(workers) if workers is not None else None,
        )


@dataclass(frozen=True)
class ExportResponse:
    """Outcome of a server-side export."""

    format: str
    out_dir: str
    relations: list[str]
    total_rows: int
    elapsed_seconds: float
    manifest_path: str
    fingerprint: str

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExportResponse":
        """Parse and validate an inbound body."""
        _check(
            payload,
            ("format", "out_dir", "relations", "total_rows", "manifest_path", "fingerprint"),
            ("elapsed_seconds",),
            "ExportResponse",
        )
        return cls(
            format=_typed(payload, "format", str, "ExportResponse"),
            out_dir=_typed(payload, "out_dir", str, "ExportResponse"),
            relations=[str(item) for item in payload.get("relations", [])],
            total_rows=int(_typed(payload, "total_rows", int, "ExportResponse", 0)),
            elapsed_seconds=float(
                _typed(payload, "elapsed_seconds", (int, float), "ExportResponse", 0.0)
            ),
            manifest_path=_typed(payload, "manifest_path", str, "ExportResponse"),
            fingerprint=_typed(payload, "fingerprint", str, "ExportResponse"),
        )


@dataclass(frozen=True)
class RegenerateRequest:
    """``POST /api/v2/summaries/{name}/regenerate`` — stream regeneration.

    The response is NDJSON: one :class:`ProgressEvent` per line, emitted as
    regeneration proceeds (``workers`` > 1 shards each relation across that
    many processes via :mod:`repro.parallel`).
    """

    relations: list[str] | None = None
    workers: int | None = None
    batch_size: int = 8192

    def __post_init__(self) -> None:
        """Reject a batch size or worker count no stream could run with."""
        if self.batch_size < 1:
            raise ApiError(
                f"RegenerateRequest: 'batch_size' must be >= 1, got {self.batch_size}"
            )
        _check_workers(self.workers, "RegenerateRequest")

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire."""
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RegenerateRequest":
        """Parse and validate an inbound body."""
        _check(payload, (), ("relations", "workers", "batch_size"), "RegenerateRequest")
        relations = payload.get("relations")
        if relations is not None and not isinstance(relations, list):
            raise ApiError("RegenerateRequest: 'relations' must be a list of names")
        workers = _typed(payload, "workers", int, "RegenerateRequest")
        return cls(
            relations=[str(item) for item in relations] if relations is not None else None,
            workers=int(workers) if workers is not None else None,
            batch_size=int(_typed(payload, "batch_size", int, "RegenerateRequest", 8192)),
        )


@dataclass(frozen=True)
class ProgressEvent:
    """One line of the NDJSON regeneration stream.

    ``event`` is one of ``start`` / ``relation_start`` / ``progress`` /
    ``relation_done`` / ``done`` / ``error``.  ``rows`` counts rows streamed
    so far for the current relation (or in total for ``done``);
    ``total_rows`` is the target the stream converges to.
    """

    event: str
    relation: str | None = None
    rows: int | None = None
    total_rows: int | None = None
    seconds: float | None = None
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire (``None`` fields omitted)."""
        payload: dict[str, Any] = {"event": self.event}
        for key in ("relation", "rows", "total_rows", "seconds", "error"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return _versioned(payload)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProgressEvent":
        """Parse and validate one NDJSON line."""
        _check(
            payload,
            ("event",),
            ("relation", "rows", "total_rows", "seconds", "error"),
            "ProgressEvent",
        )
        rows = _typed(payload, "rows", int, "ProgressEvent")
        total = _typed(payload, "total_rows", int, "ProgressEvent")
        seconds = _typed(payload, "seconds", (int, float), "ProgressEvent")
        return cls(
            event=_typed(payload, "event", str, "ProgressEvent"),
            relation=_typed(payload, "relation", str, "ProgressEvent"),
            rows=int(rows) if rows is not None else None,
            total_rows=int(total) if total is not None else None,
            seconds=float(seconds) if seconds is not None else None,
            error=_typed(payload, "error", str, "ProgressEvent"),
        )

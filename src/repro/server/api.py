"""The versioned request/response contract of the regeneration server.

Every body crossing the HTTP boundary, in either direction, is one of the
dataclasses below, and the contract is *data*: a class declares its fields
(plus, where needed, a ``__post_init__`` invariant) and the one codec of
:class:`_Body` derives ``to_dict`` / ``from_dict`` from them, once per class.
:mod:`repro.server.http` and :class:`repro.server.client.ServerClient`
round-trip the same classes and walk the endpoint table at the bottom of this
module: a new field is one declaration, a new endpoint one row.

``from_dict`` is the only validation: a non-object body, unknown keys,
missing required keys (the fields without a default), wrongly-typed values
(``bool`` is not an ``int``; an ``int`` is a ``float``) and a mismatched
``schema_version`` raise :class:`ApiError` — HTTP 400 — so handlers only ever
see well-formed typed values.  There is one ``None`` rule: a ``None`` field
is omitted on write; an absent key or explicit ``null`` reads as the default.

``SCHEMA_VERSION`` names the wire format.  Every response carries it as
``schema_version``; requests may, and are rejected on a mismatch, so a client
built against another contract fails loudly at the boundary.  Additive,
backward-compatible changes keep the version; renames, removals and semantic
changes bump it; :data:`API_PREFIX` carries the major version.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, TypeVar
from typing import get_args, get_origin, get_type_hints

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
SCHEMA_VERSION = 3

#: URL prefix of the served API; the major version lives in the path.
API_PREFIX = "/api/v3"

_BodyT = TypeVar("_BodyT", bound="_Body")
_Convert = Callable[[Any], Any]  #: one compiled direction of a field's codec


class ApiError(ValueError):
    """A payload violates the contract (maps to HTTP 400 at the boundary)."""


def _each(convert: _Convert, value: Any) -> Any:
    """Apply ``convert`` to every item of a JSON array or object."""
    if isinstance(value, list):
        return [convert(item) for item in value]
    return {key: convert(item) for key, item in value.items()}


def _codec(hint: Any, label: str) -> tuple[_Convert | None, _Convert | None]:
    """``(decode, encode)`` of one type hint (``None`` = pass through); ``label`` is for errors."""
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:  # ``X | None``: a None value never reaches a codec
        return _codec(next(arg for arg in args if arg is not type(None)), label)
    if hint is Any:
        return None, None
    if origin is None and issubclass(hint, _Body):
        return hint.from_dict, _Body.to_dict
    kind: type = hint if origin is None else list if origin is list else Mapping
    accepted = (int, float) if kind is float else kind
    decode_item, encode_item = _codec(args[-1], label + " item") if args else (None, None)

    def decode(value: Any) -> Any:
        if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
            raise ApiError(f"{label} must be of type {kind.__name__}, got {type(value).__name__}")
        if kind is float:
            return float(value)
        return value if decode_item is None else _each(decode_item, value)

    return decode, None if encode_item is None else partial(_each, encode_item)


@cache
def _spec(cls: type[_Body]) -> dict[str, tuple[bool, _Convert | None, _Convert | None]]:
    """``field name -> (required, decode, encode)`` of a body class, derived once."""
    hints = get_type_hints(cls)
    return {
        item.name: (
            item.default is MISSING and item.default_factory is MISSING,
            *_codec(hints[item.name], f"{cls.__name__}: key {item.name!r}"),
        )
        for item in fields(cls)  # type: ignore[arg-type]  # every body is a dataclass
    }


class _Body:
    """Base of every wire body: the one field-derived codec of the contract."""

    _stamped: ClassVar[bool] = True  #: off for bodies that only ever travel nested

    def to_dict(self) -> dict[str, Any]:
        """Serialise for the wire: ``None`` fields omitted, version stamped last."""
        payload = {
            name: value if encode is None else encode(value)
            for name, (_required, _decode, encode) in _spec(type(self)).items()
            if (value := getattr(self, name)) is not None
        }
        if self._stamped:
            payload["schema_version"] = SCHEMA_VERSION
        return payload

    @classmethod
    def from_dict(cls: type[_BodyT], payload: Mapping[str, Any]) -> _BodyT:
        """Parse and validate an inbound body (absent or ``null`` = the default)."""
        what, spec = cls.__name__, _spec(cls)
        if not isinstance(payload, Mapping):
            raise ApiError(f"{what}: body must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(payload.keys() - spec.keys() - {"schema_version"})
        if unknown:
            raise ApiError(
                f"{what}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(sorted({*spec, 'schema_version'}))}"
            )
        missing = [repr(name) for name, row in spec.items() if row[0] and payload.get(name) is None]
        if missing:
            raise ApiError(f"{what}: missing required key(s) {', '.join(missing)}")
        if payload.get("schema_version") not in (None, SCHEMA_VERSION):
            raise ApiError(f"{what}: schema_version must be {SCHEMA_VERSION} (the served contract)")
        return cls(**{
            name: value if decode is None else decode(value)
            for name, (_required, decode, _encode) in spec.items()
            if (value := payload.get(name)) is not None
        })


@dataclass(frozen=True)
class ErrorBody(_Body):
    """Machine-readable failure envelope of every non-2xx response."""

    error: str
    detail: str
    status: int = 400
    retry_after: float | None = None


@dataclass(frozen=True)
class ServerInfo(_Body):
    """``GET /api/v3/healthz`` — liveness plus the served contract."""

    server: str
    summaries_loaded: int
    requests_served: int
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class LoadSummaryRequest(_Body):
    """``POST /api/v3/summaries`` — load (or refresh) a summary into the cache.

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
            raise ApiError("LoadSummaryRequest: exactly one of 'path' or 'summary' must be given")


@dataclass(frozen=True)
class SummaryInfo(_Body):
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


@dataclass(frozen=True)
class SummaryListResponse(_Body):
    """``GET /api/v3/summaries`` — every currently-served summary."""

    summaries: list[SummaryInfo] = field(default_factory=list)


@dataclass(frozen=True)
class EvictResponse(_Body):
    """``DELETE /api/v3/summaries/{name}`` — outcome of an eviction."""

    name: str
    evicted: bool


@dataclass(frozen=True)
class QueryRequest(_Body):
    """``POST /api/v3/summaries/{name}/query`` — run one engine query.

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


@dataclass(frozen=True)
class RouteEventBody(_Body):
    """One engine routing decision, mirrored from ``RouteEvent`` (always nested)."""

    _stamped: ClassVar[bool] = False
    kind: str
    route: str
    reason: str | None = None


@dataclass(frozen=True, kw_only=True)
class QueryResponse(_Body):
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
    aggregate_route: str | None = None
    route_events: list[RouteEventBody] = field(default_factory=list)
    annotations: list[dict[str, Any]] = field(default_factory=list)
    fingerprint: str
    summary_version: int = 1
    generation: int = 1
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class VerifyRequest(_Body):
    """``POST /api/v3/summaries/{name}/verify`` — submit a workload verification.

    Exactly one of ``package`` (inline ``InformationPackage.to_dict``) or
    ``package_path`` (a package JSON on the server's filesystem) names the
    workload.  Without ``against_dir`` the AQPs are counted over the
    regenerated database and compared volumetrically; with it, the export
    directory is validated against the cached summary through the same
    helper ``hydra verify --against`` uses — no tuple is regenerated.
    """

    package: Mapping[str, Any] | None = None
    package_path: str | None = None
    against_dir: str | None = None

    def __post_init__(self) -> None:
        """Enforce the exactly-one-package-source invariant."""
        if (self.package is None) == (self.package_path is None):
            raise ApiError(
                "VerifyRequest: exactly one of 'package' or 'package_path' must be given"
            )


@dataclass(frozen=True)
class VerifyResponse(_Body):
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


@dataclass(frozen=True)
class ExportRequest(_Body):
    """``POST /api/v3/summaries/{name}/export`` — materialise to a sink."""

    format: str
    out_dir: str
    relations: list[str] | None = None

    def __post_init__(self) -> None:
        """Reject structurally-empty requests at construction."""
        for key in ("format", "out_dir"):
            if not getattr(self, key):
                raise ApiError(f"ExportRequest: {key!r} must be a non-empty string")


@dataclass(frozen=True, kw_only=True)
class ExportResponse(_Body):
    """Outcome of a server-side export."""

    format: str
    out_dir: str
    relations: list[str]
    total_rows: int
    elapsed_seconds: float = 0.0
    manifest_path: str
    fingerprint: str


@dataclass(frozen=True)
class RegenerateRequest(_Body):
    """``POST /api/v3/summaries/{name}/regenerate`` — stream regeneration.

    The response is NDJSON: one :class:`ProgressEvent` per line, emitted as
    regeneration proceeds in the server process.
    """

    relations: list[str] | None = None
    batch_size: int = 8192

    def __post_init__(self) -> None:
        """Reject a batch size no stream could run with."""
        if self.batch_size < 1:
            raise ApiError(f"RegenerateRequest: 'batch_size' must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class ProgressEvent(_Body):
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


class _Endpoint(NamedTuple):
    """One served endpoint: all that routing, the client and the docs need."""

    name: str  #: telemetry label (``server.requests.<name>``) and client key
    method: str
    path: str  #: under :data:`API_PREFIX`; ``{name}`` is the serving name
    handler: str  #: the ``SummaryService`` method, called ``([name], [request])``
    request: type[_Body] | None
    response: type[_Body]
    streamed: bool = False  #: NDJSON: one ``response`` body per line


#: The served API: ``HydraServer`` routes by it, ``ServerClient`` calls through it.
_ENDPOINTS = (
    _Endpoint("healthz", "GET", "/healthz", "server_info", None, ServerInfo),
    _Endpoint("summaries.list", "GET", "/summaries", "list_summaries", None, SummaryListResponse),
    _Endpoint("summaries.load", "POST", "/summaries", "load", LoadSummaryRequest, SummaryInfo),
    _Endpoint("summaries.evict", "DELETE", "/summaries/{name}", "evict", None, EvictResponse),
    _Endpoint("query", "POST", "/summaries/{name}/query", "query", QueryRequest, QueryResponse),
    _Endpoint("verify", "POST", "/summaries/{name}/verify", "verify", VerifyRequest, VerifyResponse),
    _Endpoint("export", "POST", "/summaries/{name}/export", "export", ExportRequest, ExportResponse),
    _Endpoint(
        "regenerate", "POST", "/summaries/{name}/regenerate", "iter_regenerate",
        RegenerateRequest, ProgressEvent, streamed=True,
    ),
)

"""Regeneration-as-a-service: the concurrent HYDRA summary server.

A long-lived process that loads :class:`~repro.core.summary.DatabaseSummary`
files **once** into a versioned, refcounted in-memory cache and serves many
concurrent clients over HTTP/JSON — queries, workload verifications,
exports and NDJSON-streamed regeneration all run against the same cached
summary, amortising its load across requests (the ROADMAP's "one tiny
summary, heavy traffic" north star).

Layers, bottom to top:

* :mod:`repro.server.api` — the versioned typed request/response contract
  (``schema_version``-stamped dataclasses with one field-derived codec,
  validated at the boundary) and the one endpoint table;
* :mod:`repro.server.cache` — fingerprint-keyed refcounted cache with
  lease semantics (in-flight queries finish on the old version while a
  swapped-in version serves new requests);
* :mod:`repro.server.service` — the transport-independent handlers;
* :mod:`repro.server.http` — stdlib HTTP/1.1 front-end (a blocking
  thread per connection, chunked NDJSON streaming);
* :mod:`repro.server.client` — the blocking client speaking the same
  typed contract;
* :mod:`repro.server.cli` — ``hydra serve``.

Nothing below this package imports it (enforced by the hydra-lint layering
table): ``server`` sits at the very top of the dependency stack.
"""

from .api import (
    API_PREFIX,
    SCHEMA_VERSION,
    ApiError,
    ErrorBody,
    EvictResponse,
    ExportRequest,
    ExportResponse,
    LoadSummaryRequest,
    ProgressEvent,
    QueryRequest,
    QueryResponse,
    RegenerateRequest,
    RouteEventBody,
    ServerInfo,
    SummaryInfo,
    SummaryListResponse,
    VerifyRequest,
    VerifyResponse,
)
from .cache import CachedSummary, SummaryCache, SummaryNotLoaded
from .client import ServerClient, ServerClientError
from .http import BackgroundServer, HydraServer
from .service import ServiceError, SummaryService, external_result_columns

__all__ = [
    "API_PREFIX",
    "SCHEMA_VERSION",
    "ApiError",
    "BackgroundServer",
    "CachedSummary",
    "ErrorBody",
    "EvictResponse",
    "ExportRequest",
    "ExportResponse",
    "HydraServer",
    "LoadSummaryRequest",
    "ProgressEvent",
    "QueryRequest",
    "QueryResponse",
    "RegenerateRequest",
    "RouteEventBody",
    "ServerClient",
    "ServerClientError",
    "ServerInfo",
    "ServiceError",
    "SummaryCache",
    "SummaryInfo",
    "SummaryListResponse",
    "SummaryNotLoaded",
    "SummaryService",
    "VerifyRequest",
    "VerifyResponse",
    "external_result_columns",
]

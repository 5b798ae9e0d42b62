"""Blocking HTTP client for the summary server.

:class:`ServerClient` speaks the exact typed contract of
:mod:`repro.server.api` over stdlib :mod:`http.client` — every call sends a
request dataclass's ``to_dict()`` and parses the response back through the
matching ``from_dict()``, so client and server can never drift apart
silently: an incompatible payload fails validation at the boundary on
either side.

Each call opens its own connection, which makes one client instance safe to
share across threads (the concurrency tests drive one instance from many
workers).  Failures raise :class:`ServerClientError` carrying the HTTP
status and the parsed :class:`~repro.server.api.ErrorBody`.
"""

from __future__ import annotations

import http.client
import json
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core.summary import DatabaseSummary
from .api import (
    API_PREFIX,
    ErrorBody,
    EvictResponse,
    ExportRequest,
    ExportResponse,
    LoadSummaryRequest,
    ProgressEvent,
    QueryRequest,
    QueryResponse,
    RegenerateRequest,
    ServerInfo,
    SummaryInfo,
    SummaryListResponse,
    VerifyRequest,
    VerifyResponse,
)

__all__ = ["ServerClient", "ServerClientError"]


class ServerClientError(Exception):
    """A request was answered with a non-2xx status."""

    def __init__(self, status: int, body: ErrorBody | None, detail: str) -> None:
        """Record the HTTP status and (when parseable) the error envelope."""
        super().__init__(detail)
        self.status = status
        self.body = body

    @property
    def retry_after(self) -> float | None:
        """Seconds to wait before retrying (429 responses), when given."""
        return self.body.retry_after if self.body is not None else None


class ServerClient:
    """Blocking client for one summary server (thread-safe to share)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        tenant: str | None = None,
        timeout: float = 300.0,
    ) -> None:
        """Point the client at ``host:port`` (``tenant`` sets the rate bucket)."""
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout

    # -- endpoint wrappers ------------------------------------------------

    def server_info(self) -> ServerInfo:
        """``GET /healthz``."""
        return ServerInfo.from_dict(self._request("GET", "/healthz"))

    def load_summary(
        self,
        name: str,
        path: str | Path | None = None,
        summary: "DatabaseSummary | Mapping[str, Any] | None" = None,
    ) -> SummaryInfo:
        """Load a summary (server-side ``path`` or inline ``summary``)."""
        inline: Mapping[str, Any] | None
        if isinstance(summary, DatabaseSummary):
            inline = summary.to_dict()
        else:
            inline = summary
        request = LoadSummaryRequest(
            name=name,
            path=str(path) if path is not None else None,
            summary=inline,
        )
        return SummaryInfo.from_dict(
            self._request("POST", "/summaries", request.to_dict())
        )

    def list_summaries(self) -> list[SummaryInfo]:
        """``GET /summaries``."""
        return SummaryListResponse.from_dict(
            self._request("GET", "/summaries")
        ).summaries

    def evict(self, name: str) -> EvictResponse:
        """``DELETE /summaries/{name}``."""
        return EvictResponse.from_dict(self._request("DELETE", f"/summaries/{name}"))

    def query(
        self, name: str, sql: str, rows_per_second: float | None = None
    ) -> QueryResponse:
        """Run one engine query against the cached summary ``name``."""
        request = QueryRequest(sql=sql, rows_per_second=rows_per_second)
        return QueryResponse.from_dict(
            self._request("POST", f"/summaries/{name}/query", request.to_dict())
        )

    def verify(
        self,
        name: str,
        package: Mapping[str, Any] | None = None,
        package_path: str | Path | None = None,
        against_dir: str | Path | None = None,
        workers: int | None = None,
    ) -> VerifyResponse:
        """Submit a workload verification (volumetric, or export validation)."""
        request = VerifyRequest(
            package=package,
            package_path=str(package_path) if package_path is not None else None,
            against_dir=str(against_dir) if against_dir is not None else None,
            workers=workers,
        )
        return VerifyResponse.from_dict(
            self._request("POST", f"/summaries/{name}/verify", request.to_dict())
        )

    def export(
        self,
        name: str,
        format: str,
        out_dir: str | Path,
        relations: list[str] | None = None,
        workers: int | None = None,
    ) -> ExportResponse:
        """Kick off a server-side export of the cached summary ``name``."""
        request = ExportRequest(
            format=format,
            out_dir=str(out_dir),
            relations=relations,
            workers=workers,
        )
        return ExportResponse.from_dict(
            self._request("POST", f"/summaries/{name}/export", request.to_dict())
        )

    def regenerate(
        self,
        name: str,
        relations: list[str] | None = None,
        workers: int | None = None,
        batch_size: int = 8192,
    ) -> Iterator[ProgressEvent]:
        """Stream regeneration progress events as they are produced."""
        request = RegenerateRequest(
            relations=relations, workers=workers, batch_size=batch_size
        )
        connection = self._connect()
        try:
            connection.request(
                "POST",
                API_PREFIX + f"/summaries/{name}/regenerate",
                body=json.dumps(request.to_dict()),
                headers=self._headers(),
            )
            response = connection.getresponse()
            if response.status >= 400:
                raise self._error(response)
            while True:
                line = response.readline()
                if not line:
                    break
                yield ProgressEvent.from_dict(json.loads(line))
        finally:
            connection.close()

    # -- plumbing ---------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        """A fresh connection (per-call connections make sharing safe)."""
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _headers(self) -> dict[str, str]:
        """Common request headers (JSON content type plus the tenant)."""
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Hydra-Tenant"] = self.tenant
        return headers

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """One request/response cycle returning the parsed JSON body."""
        connection = self._connect()
        try:
            connection.request(
                method,
                API_PREFIX + path,
                body=json.dumps(body) if body is not None else None,
                headers=self._headers(),
            )
            response = connection.getresponse()
            if response.status >= 400:
                raise self._error(response)
            payload = json.loads(response.read() or b"{}")
            if not isinstance(payload, dict):
                raise ServerClientError(
                    response.status, None, "server returned a non-object JSON body"
                )
            return payload
        finally:
            connection.close()

    @staticmethod
    def _error(response: http.client.HTTPResponse) -> ServerClientError:
        """Build the typed error for a non-2xx response."""
        raw = response.read()
        body: ErrorBody | None = None
        try:
            body = ErrorBody.from_dict(json.loads(raw))
        except (ValueError, KeyError, TypeError):
            body = None
        detail = body.detail if body is not None else raw.decode("utf-8", "replace")
        return ServerClientError(
            response.status, body, f"HTTP {response.status}: {detail}"
        )

"""Blocking HTTP client for the summary server.

:class:`ServerClient` speaks the exact typed contract of
:mod:`repro.server.api` over stdlib :mod:`http.client` — every public method
builds its request dataclass and hands it to the one ``_call`` helper, which
looks the endpoint up in the very table the server routes by (method, path,
response type, streamed or not), sends ``to_dict()`` and parses the answer
back through the row's ``from_dict()``.  Client and server can therefore
never drift apart silently: an incompatible payload fails validation at the
boundary on either side.

Connections are reused.  A call owns an idle (or new) connection until its
response is read, so one instance is safe to share across threads; it goes
back idle only if the response was read to the end without ``Connection:
close`` (a 4xx keeps it; a 500 or a stream, finished or abandoned, does
not).  A connection the server closed while it was idle is noticed before
the send when its end has already arrived (the idle socket is readable) and
replaced by a fresh one; a *reused* connection that fails before a status
line (the close arrived after the send) is retried once on a fresh one.
Either way a stale connection costs exactly one new connection and at most
one retry.  Any other failure raises, non-2xx answers as
:class:`ServerClientError` with the HTTP status and the parsed
:class:`~repro.server.api.ErrorBody`.  :meth:`~ServerClient.close` (or
``with ServerClient(...)``) closes the idle connections.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, cast

from ..core.summary import DatabaseSummary
from .api import (
    _ENDPOINTS,
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
    _Body,
    _Endpoint,
)

__all__ = ["ServerClient", "ServerClientError"]

_ROWS = {row.name: row for row in _ENDPOINTS}


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
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the idle connections (a call in flight closes or returns its own)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServerClient":
        """The client itself; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the idle connections."""
        self.close()

    # -- endpoint wrappers ------------------------------------------------

    def server_info(self) -> ServerInfo:
        """``GET /healthz``."""
        return cast(ServerInfo, self._call("healthz"))

    def load_summary(
        self,
        name: str,
        path: str | Path | None = None,
        summary: "DatabaseSummary | Mapping[str, Any] | None" = None,
    ) -> SummaryInfo:
        """Load a summary (server-side ``path`` or inline ``summary``)."""
        request = LoadSummaryRequest(
            name=name,
            path=str(path) if path is not None else None,
            summary=summary.to_dict() if isinstance(summary, DatabaseSummary) else summary,
        )
        return cast(SummaryInfo, self._call("summaries.load", request=request))

    def list_summaries(self) -> list[SummaryInfo]:
        """``GET /summaries``."""
        return cast(SummaryListResponse, self._call("summaries.list")).summaries

    def evict(self, name: str) -> EvictResponse:
        """``DELETE /summaries/{name}``."""
        return cast(EvictResponse, self._call("summaries.evict", name))

    def query(
        self, name: str, sql: str, rows_per_second: float | None = None
    ) -> QueryResponse:
        """Run one engine query against the cached summary ``name``."""
        request = QueryRequest(sql=sql, rows_per_second=rows_per_second)
        return cast(QueryResponse, self._call("query", name, request))

    def verify(
        self,
        name: str,
        package: Mapping[str, Any] | None = None,
        package_path: str | Path | None = None,
        against_dir: str | Path | None = None,
    ) -> VerifyResponse:
        """Submit a workload verification (volumetric, or export validation)."""
        request = VerifyRequest(
            package=package,
            package_path=str(package_path) if package_path is not None else None,
            against_dir=str(against_dir) if against_dir is not None else None,
        )
        return cast(VerifyResponse, self._call("verify", name, request))

    def export(
        self,
        name: str,
        format: str,
        out_dir: str | Path,
        relations: list[str] | None = None,
    ) -> ExportResponse:
        """Kick off a server-side export of the cached summary ``name``."""
        request = ExportRequest(format=format, out_dir=str(out_dir), relations=relations)
        return cast(ExportResponse, self._call("export", name, request))

    def regenerate(
        self,
        name: str,
        relations: list[str] | None = None,
        batch_size: int = 8192,
    ) -> Iterator[ProgressEvent]:
        """Stream regeneration progress events as they are produced."""
        request = RegenerateRequest(relations=relations, batch_size=batch_size)
        return cast("Iterator[ProgressEvent]", self._call("regenerate", name, request))

    # -- plumbing ---------------------------------------------------------

    def _call(self, endpoint: str, name: str | None = None, request: _Body | None = None) -> Any:
        """One typed exchange through the endpoint-table row ``endpoint``.

        Returns the row's response body — or, for a streamed row, a lazy
        iterator of them (nothing is sent before the first ``next()``).
        """
        row = _ROWS[endpoint]
        path = row.path.format(name=name)
        body = request.to_dict() if request is not None else None
        if row.streamed:
            return self._stream(row, path, body)
        return row.response.from_dict(self._request(row.method, path, body))

    def _headers(self) -> dict[str, str]:
        """Common request headers (JSON content type plus the tenant)."""
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Hydra-Tenant"] = self.tenant
        return headers

    @contextmanager
    def _exchange(
        self, method: str, path: str, body: Mapping[str, Any] | None
    ) -> Iterator[http.client.HTTPResponse]:
        """One request on a connection this call owns until it is done.

        Yields the response once its status is known to be below 400;
        raises :class:`ServerClientError` otherwise.  Afterwards the
        connection goes back to the idle list or is closed (module
        docstring).
        """
        payload = json.dumps(body) if body is not None else None
        with self._lock:
            reused = bool(self._idle)
            connection = self._idle.pop() if reused else self._connection()
        if reused and _closed_while_idle(connection):
            connection.close()  # noticed before the send: nothing to retry
            connection, reused = self._connection(), False
        try:
            try:
                response = self._send(connection, method, path, payload)
            except (ConnectionResetError, BrokenPipeError):  # incl. RemoteDisconnected
                if not reused:
                    raise
                connection.close()  # the server closed it while it was idle
                connection = self._connection()
                response = self._send(connection, method, path, payload)
            error = self._error(response) if response.status >= 400 else None
            if error is None:
                yield response
        except BaseException:
            connection.close()
            raise
        if response.isclosed() and not response.will_close:
            with self._lock:
                self._idle.append(connection)
        else:
            connection.close()
        if error is not None:
            raise error

    def _connection(self) -> http.client.HTTPConnection:
        """A new (not yet connected) connection to the server."""
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _send(
        self, connection: http.client.HTTPConnection, method: str, path: str, payload: str | None
    ) -> http.client.HTTPResponse:
        """Send one request on ``connection`` and read its status line and headers."""
        connection.request(method, API_PREFIX + path, body=payload, headers=self._headers())
        return connection.getresponse()

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """One request/response cycle returning the parsed JSON body."""
        with self._exchange(method, path, body) as response:
            payload = json.loads(response.read() or b"{}")
        if not isinstance(payload, dict):
            raise ServerClientError(
                response.status, None, "server returned a non-object JSON body"
            )
        return payload

    def _stream(
        self, row: _Endpoint, path: str, body: Mapping[str, Any] | None
    ) -> Iterator[Any]:
        """The NDJSON response of a streamed row, one decoded body per line."""
        with self._exchange(row.method, path, body) as response:
            while line := response.readline():
                yield row.response.from_dict(json.loads(line))

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


def _closed_while_idle(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection has something to read: the server's close (or a reset).

    An idle HTTP/1.1 connection has no response due, so any readable byte —
    an end of stream above all — means it must not carry a request.
    """
    sock = connection.sock
    if sock is None:
        return True
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        return True
    finally:
        sock.settimeout(timeout)
    return True

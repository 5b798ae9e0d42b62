"""The stdlib HTTP/1.1 transport of the summary server.

One concurrency model: a blocking thread per connection
(:class:`socketserver.ThreadingTCPServer`).  The connection's thread frames
the request, runs the handler and writes the answer itself, so a slow engine
query stalls nobody else and many clients are served concurrently; at most
``MAX_IN_FLIGHT`` handlers run at once.  JSON framing and error mapping live
here; *which* endpoints exist does not — ``_route`` walks the endpoint table
of :mod:`repro.server.api` (method, path shape, request type, handler,
streamed or not) and decides 404 / 405 from it — and all request/response
*content* is that module's typed contract, produced and consumed by the
shared :class:`~repro.server.service.SummaryService`.

Protocol notes
--------------

* HTTP/1.1 with keep-alive: one connection, on one thread while it is
  open, serves many requests; :meth:`HydraServer.stop` ends it too.
* Regeneration progress streams as NDJSON with chunked transfer encoding —
  one :class:`~repro.server.api.ProgressEvent` JSON object per line,
  flushed as regeneration proceeds.
* Every error is a JSON :class:`~repro.server.api.ErrorBody`; 429 responses
  additionally carry a ``Retry-After`` header.
* Per-request telemetry: a ``server.request`` span (``server.http.decode``
  / ``.encode`` under it), the ``server.request.seconds`` histogram and one
  ``server.requests.<endpoint>`` counter per request; ``server.connections``
  counts accepted connections.

:class:`BackgroundServer` runs the accept loop on a daemon thread with an
ephemeral port — the harness used by tests, benchmarks and examples.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time
from typing import Any, Generator

from ..telemetry.session import add_counter, observe, span
from .api import _ENDPOINTS, API_PREFIX, ApiError, ErrorBody, ProgressEvent, _Endpoint
from .service import ServiceError, SummaryService

__all__ = ["BackgroundServer", "HydraServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Largest accepted request body (inline summaries are a few hundred KB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Largest accepted request line + header section.
MAX_HEADER_BYTES = 64 * 1024

#: Handlers running at once, across all connections; further requests wait.
MAX_IN_FLIGHT = 8

#: The endpoint table keyed for routing: ``(path segments, row)`` per endpoint.
_ROUTES = tuple(
    ([part for part in (API_PREFIX + row.path).split("/") if part], row) for row in _ENDPOINTS
)


class _Request:
    """One parsed HTTP request (start line, lowered headers, raw body)."""

    def __init__(self, method: str, path: str, headers: dict[str, str], body: bytes) -> None:
        """Store the parsed pieces."""
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def tenant(self) -> str:
        """The rate-limiting tenant (``X-Hydra-Tenant``, or ``default``)."""
        return self.headers.get("x-hydra-tenant", "default")

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict[str, Any]:
        """The request body parsed as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ApiError("request body must be a JSON object")
        return payload


def _route(request: _Request) -> tuple[_Endpoint, list[Any]]:
    """Resolve the endpoint-table row and the path arguments of ``request``.

    The arguments are the path's serving name (when the row's path has
    one); the caller decodes the body the row declares.  Raises
    :class:`ServiceError` 404 when no row has the path and 405 when rows
    have it but none with the method.
    """
    parts = [part for part in request.path.split("/") if part]
    allowed = []
    for shape, row in _ROUTES:
        if len(shape) != len(parts) or any(
            want != got and want != "{name}" for want, got in zip(shape, parts)
        ):
            continue
        if row.method != request.method:
            allowed.append(row.method)
            continue
        return row, [got for want, got in zip(shape, parts) if want == "{name}"]
    if allowed:
        raise ServiceError(
            405, "method-not-allowed", f"{request.path!r} is {'/'.join(allowed)}-only"
        )
    raise ServiceError(404, "not-found", f"no route for {request.path!r}")


class _Listener(socketserver.ThreadingTCPServer):
    """The listening socket: one daemon thread per accepted connection."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128  # the stdlib's 5 drops SYNs when 16 clients connect at once

    def __init__(self, address: tuple[str, int], service: SummaryService) -> None:
        """Bind and listen on ``address``; connections are served from ``service``."""
        self.service = service
        self.slots = threading.BoundedSemaphore(MAX_IN_FLIGHT)
        self.lock = threading.Lock()
        self.connections: set[socket.socket] = set()
        #: Set by :meth:`end_connections`: a request read from now on is not answered.
        self.ending = False
        super().__init__(address, _Connection)

    def process_request(self, request: Any, client_address: Any) -> None:
        """Record the connection (on the accept thread, so no stop misses it), then serve it."""
        add_counter("server.connections")
        with self.lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        """Forget the connection, then close it."""
        with self.lock:
            self.connections.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Shut each open connection's read side: idle ones read EOF, in-flight ones answer.

        A request a connection reads after this — one that reached a
        connection thread late — is not answered either: the connection
        closes, and a client reusing it retries on a fresh one, never on a
        server that has stopped.
        """
        with self.lock:
            self.ending = True
            for connection in self.connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already reset it

    def handle_error(self, request: Any, client_address: Any) -> None:
        """Log what ended a connection thread, unless its peer just went away."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class _Connection(socketserver.StreamRequestHandler):
    """One client connection, served to its end on its own thread."""

    server: _Listener
    wbufsize = -1  # buffered: every response / NDJSON chunk is one flush
    disable_nagle_algorithm = True

    def handle(self) -> None:
        """Serve the connection (keep-alive loop).

        A ``ConnectionError`` — the client went away mid-request or mid-response —
        ends the thread through :meth:`_Listener.handle_error`.
        """
        while True:
            try:
                request = self._read_request()
            except ServiceError as exc:
                # Unframeable request: where its body ends is unknown (or
                # too far), so answer and close rather than read on.
                self._write_json(exc.status, exc.body().to_dict(), False)
                break
            if request is None or self.server.ending or not self._dispatch(request):
                break

    def _read_request(self) -> _Request | None:
        """Parse one request off the stream (``None`` on a clean EOF).

        Raises :class:`ServiceError` for a request that cannot be framed:
        400 for a request line that is not three parts, a header section
        above ``MAX_HEADER_BYTES`` or a ``Content-Length`` that is not a
        non-negative integer, 413 for a body above ``MAX_BODY_BYTES``.
        """
        line = self.rfile.readline(MAX_HEADER_BYTES + 1)
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ServiceError(400, "bad-request", "malformed request line") from None
        headers: dict[str, str] = {}
        size = len(line)
        while size <= MAX_HEADER_BYTES:
            raw = self.rfile.readline(MAX_HEADER_BYTES + 1 - size)
            if raw in (b"\r\n", b"\n", b""):
                break
            size += len(raw)
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ServiceError(
                400, "bad-request", f"request headers exceed {MAX_HEADER_BYTES} bytes"
            )
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise ServiceError(
                400, "bad-request", f"invalid Content-Length {headers['content-length']!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413,
                "payload-too-large",
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
            )
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            raise ConnectionError("client closed the connection mid-body")
        return _Request(method=method.upper(), path=path, headers=headers, body=body)

    def _dispatch(self, request: _Request) -> bool:
        """Answer one request; returns whether to keep the connection open."""
        started = time.perf_counter()
        endpoint = "unrouted"
        try:
            row, args = _route(request)
            endpoint = row.name
            service = self.server.service
            with span("server.request", endpoint=endpoint, tenant=request.tenant):
                if row.request is not None:
                    with span("server.http.decode"):
                        args.append(row.request.from_dict(request.json()))
                service.admit(request.tenant)
                handler = getattr(service, row.handler)
                with self.server.slots:  # held for the whole of a stream
                    if row.streamed:
                        self._stream_ndjson(handler(*args))
                        return False  # streamed responses close the connection
                    response = handler(*args)
                with span("server.http.encode"):
                    self._write_json(200, response.to_dict(), request.keep_alive)
                return request.keep_alive
        except ApiError as exc:
            body = ErrorBody(error="bad-request", detail=str(exc), status=400)
            self._write_json(400, body.to_dict(), request.keep_alive)
            return request.keep_alive
        except ServiceError as exc:
            extra = (
                [("Retry-After", f"{max(0.0, exc.retry_after):.3f}")]
                if exc.retry_after is not None
                else []
            )
            self._write_json(exc.status, exc.body().to_dict(), request.keep_alive, extra)
            return request.keep_alive
        except ConnectionError:
            return False  # peer vanished mid-response
        except Exception as exc:  # noqa: BLE001 - boundary: every failure must answer
            body = ErrorBody(
                error="internal-error",
                detail=f"{type(exc).__name__}: {exc}",
                status=500,
            )
            self._write_json(500, body.to_dict(), False)
            return False
        finally:
            observe("server.request.seconds", time.perf_counter() - started)
            add_counter(f"server.requests.{endpoint}")

    def _write_json(
        self,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
        extra_headers: list[tuple[str, str]] | None = None,
    ) -> None:
        """Write one complete JSON response."""
        data = json.dumps(payload).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra_headers or []:
            headers.append(f"{name}: {value}")
        self.wfile.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + data)
        self.wfile.flush()

    def _stream_ndjson(self, stream: Generator[ProgressEvent, None, None]) -> None:
        """Stream a generator of progress events as chunked NDJSON.

        The first event is produced *before* the status line goes out, so
        validation failures (unknown summary, bad relation list) still map
        to proper 4xx responses; later failures — headers already sent —
        become a final ``error`` event on the stream instead.  Each event is
        written as it is produced: the blocking socket write is the
        backpressure on a slow client, and a client that went away fails
        the write, which closes the generator (and with it its cache lease).
        """
        try:
            event: ProgressEvent | None = next(stream)
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n"
            )
            while event is not None:
                self._write_chunk(event)
                try:
                    event = next(stream, None)
                except Exception as exc:  # noqa: BLE001 - headers are out: report on the stream
                    self._write_chunk(
                        ProgressEvent(event="error", error=f"{type(exc).__name__}: {exc}")
                    )
                    break
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        finally:
            stream.close()

    def _write_chunk(self, event: ProgressEvent) -> None:
        """Write one NDJSON line as an HTTP chunk."""
        line = json.dumps(event.to_dict()).encode("utf-8") + b"\n"
        self.wfile.write(f"{len(line):X}\r\n".encode("latin-1") + line + b"\r\n")
        self.wfile.flush()


class HydraServer:
    """Blocking thread-per-connection HTTP server over one :class:`SummaryService`."""

    def __init__(self, service: SummaryService, host: str = "127.0.0.1", port: int = 0) -> None:
        """Configure the listener (``port=0`` binds an ephemeral port)."""
        self.service = service
        self.host = host
        self._requested_port = port
        self._listener: _Listener | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral ``port=0`` after :meth:`start`)."""
        if self._listener is None:
            return self._requested_port
        return int(self._listener.server_address[1])

    def start(self) -> None:
        """Bind the listening socket; connections queue until :meth:`serve_forever`."""
        self._listener = _Listener((self.host, self._requested_port), self.service)

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` or an interrupt, then close the socket."""
        assert self._listener is not None, "call start() before serve_forever()"
        with self._listener:
            self._listener.serve_forever()

    def stop(self) -> None:
        """End a :meth:`serve_forever` on another thread, wait for it, then end open connections."""
        if self._listener is not None:
            self._listener.shutdown()
            self._listener.end_connections()


class BackgroundServer:
    """Run a :class:`HydraServer` on a daemon thread (tests, benchmarks).

    Usage::

        with BackgroundServer(service) as server:
            client = ServerClient("127.0.0.1", server.port)
            ...

    ``start`` returns once the socket is bound, so ``.port`` is always the
    resolved (possibly ephemeral) port.
    """

    def __init__(self, service: SummaryService, host: str = "127.0.0.1", port: int = 0) -> None:
        """Configure (but do not yet start) the background server."""
        self._server = HydraServer(service, host=host, port=port)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """The configured listen host."""
        return self._server.host

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        return self._server.port

    @property
    def service(self) -> SummaryService:
        """The service this server fronts."""
        return self._server.service

    def start(self) -> "BackgroundServer":
        """Bind the socket and start the accept thread."""
        self._server.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="hydra-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join the accept thread."""
        if self._thread is not None:
            self._server.stop()
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        """Start on context entry."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Stop on context exit."""
        self.stop()

"""The stdlib-asyncio HTTP/1.1 transport of the summary server.

One event loop accepts connections and frames requests; everything that
touches a summary (loads, queries, verifications, exports, regeneration)
runs on a thread-pool executor via ``loop.run_in_executor``, so a slow
engine query never stalls the accept loop and many clients are served
concurrently.  JSON framing and error mapping live here; *which* endpoints
exist does not — ``_route`` walks the endpoint table of
:mod:`repro.server.api` (method, path shape, request type, handler, streamed
or not) and decides 404 / 405 from it — and all request/response *content*
is that module's typed contract, produced and consumed by the shared
:class:`~repro.server.service.SummaryService`.

Protocol notes
--------------

* HTTP/1.1 with keep-alive: one connection serves many requests.
* Regeneration progress streams as NDJSON with chunked transfer encoding —
  one :class:`~repro.server.api.ProgressEvent` JSON object per line,
  flushed as regeneration proceeds.
* Every error is a JSON :class:`~repro.server.api.ErrorBody`; 429 responses
  additionally carry a ``Retry-After`` header.
* Per-request telemetry: a ``server.request`` span, the
  ``server.request.seconds`` histogram and one
  ``server.requests.<endpoint>`` counter per request.

:class:`BackgroundServer` runs the whole loop on a daemon thread with an
ephemeral port — the harness used by tests, benchmarks and examples.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Iterator

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

#: Sentinel marking the end of a streamed NDJSON response.
_STREAM_END = object()

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


class HydraServer:
    """Asyncio HTTP server over one :class:`SummaryService`."""

    def __init__(
        self,
        service: SummaryService,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_threads: int = 8,
    ) -> None:
        """Configure the listener (``port=0`` binds an ephemeral port)."""
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, executor_threads), thread_name_prefix="hydra-server"
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port, limit=1 << 20
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (call :meth:`start` first)."""
        assert self._server is not None, "call start() before serve_forever()"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (keep-alive loop)."""
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as exc:
                    # Unframeable request: the body length is unknown, so
                    # answer and close rather than guess where it ends.
                    body = ErrorBody(error="bad-request", detail=str(exc), status=400)
                    await self._write_json(writer, 400, body.to_dict(), False)
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # loop shutdown with the connection open: close quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # already torn down by the peer

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one request off the stream (``None`` on a clean EOF).

        Raises :class:`ApiError` for a ``Content-Length`` that is not a
        non-negative integer.
        """
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ConnectionError("malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise ApiError(f"invalid Content-Length {headers['content-length']!r}")
        if length > MAX_BODY_BYTES:
            raise ConnectionError(f"request body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        return _Request(method=method.upper(), path=path, headers=headers, body=body)

    # -- routing ---------------------------------------------------------

    def _route(self, request: _Request) -> tuple[_Endpoint, list[Any]]:
        """Resolve the endpoint-table row and the handler arguments of ``request``.

        The arguments are the path's serving name (when the row's path has
        one) and the validated request body (when the row declares one).
        Raises :class:`ServiceError` 404 when no row has the path and 405
        when rows have it but none with the method.
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
            args: list[Any] = [got for want, got in zip(shape, parts) if want == "{name}"]
            if row.request is not None:
                args.append(row.request.from_dict(request.json()))
            return row, args
        if allowed:
            raise ServiceError(
                405, "method-not-allowed", f"{request.path!r} is {'/'.join(allowed)}-only"
            )
        raise ServiceError(404, "not-found", f"no route for {request.path!r}")

    # -- dispatch ---------------------------------------------------------

    async def _dispatch(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        """Answer one request; returns whether to keep the connection open."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        endpoint = "unrouted"
        try:
            row, args = self._route(request)
            endpoint = row.name
            self.service.admit(request.tenant)
            handler = getattr(self.service, row.handler)
            with span("server.request", endpoint=endpoint, tenant=request.tenant):
                if row.streamed:
                    await self._stream_ndjson(writer, handler(*args), loop)
                    return False  # streamed responses close the connection
                payload = await loop.run_in_executor(
                    self._executor, lambda: handler(*args).to_dict()
                )
                await self._write_json(writer, 200, payload, request.keep_alive)
                return request.keep_alive
        except ApiError as exc:
            body = ErrorBody(error="bad-request", detail=str(exc), status=400)
            await self._write_json(writer, 400, body.to_dict(), request.keep_alive)
            return request.keep_alive
        except ServiceError as exc:
            extra = (
                [("Retry-After", f"{max(0.0, exc.retry_after):.3f}")]
                if exc.retry_after is not None
                else []
            )
            await self._write_json(
                writer, exc.status, exc.body().to_dict(), request.keep_alive, extra
            )
            return request.keep_alive
        except (ConnectionError, asyncio.IncompleteReadError):
            return False  # peer vanished mid-response
        except Exception as exc:  # noqa: BLE001 - boundary: every failure must answer
            body = ErrorBody(
                error="internal-error",
                detail=f"{type(exc).__name__}: {exc}",
                status=500,
            )
            await self._write_json(writer, 500, body.to_dict(), False)
            return False
        finally:
            observe("server.request.seconds", loop.time() - started)
            add_counter(f"server.requests.{endpoint}")

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
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
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + data)
        await writer.drain()

    async def _stream_ndjson(
        self,
        writer: asyncio.StreamWriter,
        stream: Iterator[ProgressEvent],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Stream an iterator of progress events as chunked NDJSON.

        The first event is produced *before* the status line goes out, so
        validation failures (unknown summary, bad relation list) still map
        to proper 4xx responses; later failures — headers already sent —
        become a final ``error`` event on the stream instead.  The iterator
        runs on the executor and hands events to the loop through a bounded
        queue, so a slow client backpressures regeneration instead of
        buffering it.
        """
        queue: asyncio.Queue[object] = asyncio.Queue(maxsize=64)
        first = await loop.run_in_executor(self._executor, _guarded_next, stream)
        if isinstance(first, BaseException):
            raise first
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        aborted = threading.Event()
        if first is not _STREAM_END:
            assert isinstance(first, ProgressEvent)
            await self._write_chunk(writer, first)
            self._executor.submit(_pump_stream, stream, queue, loop, aborted)
            try:
                while True:
                    item = await queue.get()
                    if item is _STREAM_END:
                        break
                    if isinstance(item, BaseException):
                        await self._write_chunk(
                            writer,
                            ProgressEvent(event="error", error=f"{type(item).__name__}: {item}"),
                        )
                        break
                    assert isinstance(item, ProgressEvent)
                    await self._write_chunk(writer, item)
            except (ConnectionError, asyncio.IncompleteReadError):
                # The client went away mid-stream: tell the pump to stop at
                # the next event, then keep draining so a put blocked on the
                # bounded queue can finish and the pump thread exits.
                aborted.set()
                while True:
                    item = await queue.get()
                    if item is _STREAM_END or isinstance(item, BaseException):
                        break
                raise
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _write_chunk(self, writer: asyncio.StreamWriter, event: ProgressEvent) -> None:
        """Write one NDJSON line as an HTTP chunk."""
        line = json.dumps(event.to_dict()).encode("utf-8") + b"\n"
        writer.write(f"{len(line):X}\r\n".encode("latin-1") + line + b"\r\n")
        await writer.drain()


def _pump_stream(
    stream: Iterator[ProgressEvent],
    queue: "asyncio.Queue[object]",
    loop: asyncio.AbstractEventLoop,
    aborted: threading.Event,
) -> None:
    """Drain the event iterator into the loop's queue (runs on the executor).

    Stops early when ``aborted`` is set (client disconnect); exceptions are
    forwarded onto the queue for the loop side to render as a final
    ``error`` event.  The generator is closed before the end sentinel goes
    out so its cache lease is released deterministically.
    """
    try:
        for event in stream:
            if aborted.is_set():
                break
            asyncio.run_coroutine_threadsafe(queue.put(event), loop).result()
    except BaseException as exc:  # noqa: BLE001 - forwarded to the stream
        asyncio.run_coroutine_threadsafe(queue.put(exc), loop).result()
        return
    closer = getattr(stream, "close", None)
    if callable(closer):
        closer()  # release the cache lease deterministically
    asyncio.run_coroutine_threadsafe(queue.put(_STREAM_END), loop).result()


def _guarded_next(stream: Iterator[ProgressEvent]) -> ProgressEvent | BaseException | object:
    """``next()`` that never leaks ``StopIteration`` across an executor."""
    try:
        return next(stream)
    except StopIteration:
        return _STREAM_END
    except BaseException as exc:  # noqa: BLE001 - re-raised on the loop side
        return exc


class BackgroundServer:
    """Run a :class:`HydraServer` on a daemon thread (tests, benchmarks).

    Usage::

        with BackgroundServer(service) as server:
            client = ServerClient("127.0.0.1", server.port)
            ...

    ``start`` blocks until the socket is bound, so ``.port`` is always the
    resolved (possibly ephemeral) port.
    """

    def __init__(
        self,
        service: SummaryService,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_threads: int = 8,
    ) -> None:
        """Configure (but do not yet start) the background server."""
        self._server = HydraServer(
            service, host=host, port=port, executor_threads=executor_threads
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started: Future[int] = Future()
        self._stop_event: asyncio.Event | None = None

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

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        """Start the loop thread and wait until the socket is bound."""
        self._thread = threading.Thread(
            target=self._run, name="hydra-server-loop", daemon=True
        )
        self._thread.start()
        self._started.result(timeout=timeout)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join the loop thread."""
        loop = self._loop
        stop_event = self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        """Start on context entry."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Stop on context exit."""
        self.stop()

    def _run(self) -> None:
        """Thread target: own the event loop for the server's lifetime."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if not self._started.done():
                self._started.set_exception(exc)

    async def _main(self) -> None:
        """Bind, publish readiness, and serve until told to stop."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self._server.start()
        self._started.set_result(self._server.port)
        try:
            await self._stop_event.wait()
        finally:
            await self._server.stop()

"""Transport-independent request handling of the summary server.

:class:`SummaryService` is the synchronous core every transport shares: the
HTTP layer (:mod:`repro.server.http`) calls it from its connection
threads, and tests drive it directly without any networking.  Each
method takes and returns the typed bodies of :mod:`repro.server.api`, so
the HTTP layer is nothing but routing + JSON framing.

Handlers never share mutable engine state: every query builds a fresh
:class:`~repro.storage.database.Database` of per-request
:class:`~repro.executor.datagen.DataGenRelation` wrappers over stateless
:class:`~repro.core.tuplegen.TupleGenerator` views of the cached summary,
and a fresh :class:`~repro.executor.engine.ExecutionEngine` — so
any number of requests run concurrently against one cached summary version
and results are bit-identical to a direct serial engine run.

Failures surface as :class:`ServiceError`, which carries the HTTP status
the transport should map it to; per-tenant admission reuses the
:class:`~repro.executor.rate.RateLimiter` token accounting with a no-op
sleep, turning "how long would this request have to wait" into a 429 with
``Retry-After`` instead of blocking a connection thread.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from ..client.package import InformationPackage
from ..core.errors import HydraError
from ..core.pipeline import summary_relation_providers
from ..core.summary import DatabaseSummary
from ..executor.engine import ExecutionEngine, ExecutorError
from ..executor.rate import RateLimiter
from ..plans.logical import PlanNode
from ..plans.planner import build_plan
from ..sinks.base import external_column
from ..sinks.export import export_summary, sink_for_format, validate_export_against
from ..sinks.manifest import MANIFEST_NAME
from ..sql.parser import parse_query
from ..storage.database import Database
from ..telemetry.session import add_counter, span
from ..verify.comparator import VolumetricComparator
from .api import (
    SCHEMA_VERSION,
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

__all__ = ["ServiceError", "SummaryService", "external_result_columns"]

#: Relative-error bound under which a volumetric verification reports ``ok``.
VOLUMETRIC_OK_THRESHOLD = 0.1


class ServiceError(Exception):
    """A request failed; carries the HTTP status the transport should use."""

    def __init__(
        self,
        status: int,
        error: str,
        detail: str,
        retry_after: float | None = None,
    ) -> None:
        """Record status code, machine-readable error slug and detail text."""
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail
        self.retry_after = retry_after

    def body(self) -> ErrorBody:
        """The wire-facing error envelope of this failure."""
        return ErrorBody(
            error=self.error,
            detail=self.detail,
            status=self.status,
            retry_after=self.retry_after,
        )


def external_result_columns(
    database: Database, columns: dict[str, Any]
) -> dict[str, list[Any]]:
    """Decode engine result columns into external (JSON-safe) values.

    Qualified ``table.column`` names decode through the export sinks' own
    column decoder (:func:`repro.sinks.base.external_column`), so a served
    result cell equals the corresponding exported cell; aggregate
    outputs (``count`` / ``sum`` / ``avg``) are plain numbers already and
    only need their numpy scalars unboxed.
    """
    decoded: dict[str, list[Any]] = {}
    for name, values in columns.items():
        column = None
        if "." in name:
            try:
                _table, column = database.schema.resolve_column(name)
            except ValueError:
                column = None
        if column is not None:
            decoded[name] = external_column(column, values)
        else:
            decoded[name] = [
                value.item() if hasattr(value, "item") else value for value in values
            ]
    return decoded


def _plan_annotations(plan: PlanNode) -> list[dict[str, Any]]:
    """The executed plan's AQP annotations as wire-ready dicts."""
    return [
        {
            "node_id": int(node.node_id),
            "operator": node.operator,
            "description": node.describe(),
            "cardinality": int(node.cardinality),
        }
        for node in plan.iter_nodes()
        if node.cardinality is not None
    ]


class SummaryService:
    """The shared synchronous core behind every server transport."""

    def __init__(
        self,
        cache: SummaryCache | None = None,
        server_name: str = "hydra-server",
        requests_per_second: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Create a service over ``cache`` (a fresh one when ``None``).

        ``requests_per_second`` enables per-tenant admission control: each
        tenant (the ``X-Hydra-Tenant`` header; ``"default"`` when absent)
        gets its own token budget at that rate, with a burst allowance of
        one request interval.  ``clock`` is injectable for deterministic
        tests (:class:`~repro.executor.rate.VirtualClock`).
        """
        self.cache = cache if cache is not None else SummaryCache()
        self.server_name = server_name
        self.requests_per_second = requests_per_second
        self._clock = clock
        self._tenants: dict[str, RateLimiter] = {}
        self._lock = threading.Lock()
        self._requests_served = 0

    # -- admission and accounting ---------------------------------------

    @property
    def requests_served(self) -> int:
        """Total requests admitted so far (all endpoints, all tenants)."""
        with self._lock:
            return self._requests_served

    def admit(self, tenant: str) -> None:
        """Charge one request to ``tenant``; raise 429 when over budget.

        Reuses :class:`~repro.executor.rate.RateLimiter` accounting with a
        no-op sleep: the returned would-be delay, beyond the one-interval
        burst allowance, becomes the 429's ``Retry-After``.  A rejected
        request still consumed budget — with per-tenant limiters a client
        hammering past its rate only starves itself.
        """
        if self.requests_per_second is not None and self.requests_per_second > 0:
            interval = 1.0 / float(self.requests_per_second)
            with self._lock:
                limiter = self._tenants.get(tenant)
                if limiter is None:
                    limiter = RateLimiter(
                        rows_per_second=self.requests_per_second,
                        clock=self._clock,
                        sleep=lambda _seconds: None,
                    )
                    self._tenants[tenant] = limiter
                delay = limiter.throttle(1)
            if delay > interval:
                add_counter("server.requests.rejected")
                raise ServiceError(
                    status=429,
                    error="rate-limited",
                    detail=(
                        f"tenant {tenant!r} exceeded {self.requests_per_second:g} "
                        "requests/s"
                    ),
                    retry_after=delay - interval,
                )
        with self._lock:
            self._requests_served += 1

    # -- endpoints -------------------------------------------------------

    def server_info(self) -> ServerInfo:
        """The health/liveness body."""
        return ServerInfo(
            server=self.server_name,
            schema_version=SCHEMA_VERSION,
            summaries_loaded=len(self.cache),
            requests_served=self.requests_served,
        )

    def load(self, request: LoadSummaryRequest) -> SummaryInfo:
        """Load a summary into the cache (hit / first load / version swap)."""
        if request.path is not None:
            path = Path(request.path)
            if not path.is_file():
                raise ServiceError(
                    404, "summary-file-not-found", f"no summary file at {path}"
                )
            try:
                summary = DatabaseSummary.load(path)
            except (HydraError, OSError) as exc:
                raise ServiceError(
                    400, "bad-summary", f"cannot load summary from {path}: {exc}"
                ) from exc
        else:
            assert request.summary is not None  # __post_init__ invariant
            try:
                summary = DatabaseSummary.from_dict(request.summary)
            except HydraError as exc:
                raise ServiceError(
                    400, "bad-summary", f"cannot parse inline summary: {exc}"
                ) from exc
        with span("server.load", summary=request.name):
            return self.cache.load(request.name, summary)

    def list_summaries(self) -> SummaryListResponse:
        """Describe every currently served summary."""
        return SummaryListResponse(summaries=self.cache.list_entries())

    def evict(self, name: str) -> EvictResponse:
        """Stop serving ``name`` (in-flight leases finish undisturbed)."""
        return EvictResponse(name=name, evicted=self.cache.evict(name))

    def query(self, name: str, request: QueryRequest) -> QueryResponse:
        """Run one engine query against the cached summary ``name``."""
        started = time.perf_counter()
        with self._leased(name) as entry:
            database = self._database_for(entry, request.rows_per_second)
            engine = ExecutionEngine(database=database)
            try:
                with span("server.query", summary=name):
                    query = parse_query(request.sql, entry.summary.schema)
                    plan = build_plan(query, entry.summary.schema)
                    result = engine.execute(plan)
            except (HydraError, ExecutorError, ValueError) as exc:
                raise ServiceError(400, "query-failed", str(exc)) from exc
            return QueryResponse(
                columns=external_result_columns(database, result.columns),
                row_count=result.row_count,
                scanned_rows=result.scanned_rows,
                aggregate_route=result.aggregate_route,
                route_events=[
                    RouteEventBody(kind=event.kind, route=event.route, reason=event.reason)
                    for event in result.route_events
                ],
                annotations=_plan_annotations(plan),
                fingerprint=entry.fingerprint,
                summary_version=entry.summary.version,
                generation=entry.generation,
                elapsed_seconds=time.perf_counter() - started,
            )

    def verify(self, name: str, request: VerifyRequest) -> VerifyResponse:
        """Verify the cached summary volumetrically or against an export."""
        package = self._load_package(request)
        with self._leased(name) as entry:
            if request.against_dir is not None:
                try:
                    with span("server.verify", summary=name, mode="export"):
                        validation = validate_export_against(
                            entry.summary, request.against_dir, package.metadata.schema
                        )
                except HydraError as exc:
                    raise ServiceError(400, "verify-failed", str(exc)) from exc
                return VerifyResponse(
                    mode="export",
                    ok=validation.ok,
                    relations_checked=list(validation.relations_checked),
                    rows_checked=validation.rows_checked,
                    problems=list(validation.problems),
                )
            database = self._database_for(entry, None)
            try:
                with span("server.verify", summary=name, mode="volumetric"):
                    result = VolumetricComparator(database=database).verify(
                        package.aqps
                    )
            except (HydraError, ExecutorError, ValueError) as exc:
                raise ServiceError(400, "verify-failed", str(exc)) from exc
            return VerifyResponse(
                mode="volumetric",
                ok=result.max_relative_error() <= VOLUMETRIC_OK_THRESHOLD,
                total_edges=result.total_edges,
                max_relative_error=result.max_relative_error(),
                mean_relative_error=result.mean_relative_error(),
                error_cdf=[
                    [float(threshold), float(fraction)]
                    for threshold, fraction in result.error_cdf()
                ],
            )

    def export(self, name: str, request: ExportRequest) -> ExportResponse:
        """Materialise the cached summary into a sink directory."""
        started = time.perf_counter()
        with self._leased(name) as entry:
            try:
                sink = sink_for_format(request.format, request.out_dir)
            except HydraError as exc:
                raise ServiceError(400, "bad-export", str(exc)) from exc
            try:
                with span("server.export", summary=name, format=request.format):
                    manifest = export_summary(
                        entry.summary, sink, relations=request.relations
                    )
            except HydraError as exc:
                raise ServiceError(400, "export-failed", str(exc)) from exc
            except OSError as exc:
                raise ServiceError(500, "export-failed", str(exc)) from exc
            return ExportResponse(
                format=request.format,
                out_dir=request.out_dir,
                relations=sorted(manifest.relations),
                total_rows=sum(entry.rows for entry in manifest.relations.values()),
                elapsed_seconds=time.perf_counter() - started,
                manifest_path=str(Path(request.out_dir) / MANIFEST_NAME),
                fingerprint=entry.fingerprint,
            )

    def iter_regenerate(
        self, name: str, request: RegenerateRequest
    ) -> Iterator[ProgressEvent]:
        """Stream regeneration progress for the cached summary ``name``.

        Yields one :class:`~repro.server.api.ProgressEvent` per lifecycle
        step and one ``progress`` event per regenerated block; the lease is
        held for the whole stream, so a concurrent swap cannot pull the
        version out from under a running regeneration.
        """
        with self._leased(name) as entry:
            selected = request.relations
            if selected is not None:
                unknown = sorted(set(selected) - set(entry.summary.relations))
                if unknown:
                    raise ServiceError(
                        400,
                        "unknown-relations",
                        "summary has no relation(s) " + ", ".join(map(repr, unknown)),
                    )
            started = time.perf_counter()
            grand_total = sum(
                entry.summary.row_count(table)
                for table in (selected or entry.summary.relations)
            )
            yield ProgressEvent(event="start", total_rows=grand_total)
            total = 0
            for table_name, relation in summary_relation_providers(
                entry.summary,
                batch_size=request.batch_size,
                relations=selected,
            ):
                target = entry.summary.row_count(table_name)
                relation_started = time.perf_counter()
                yield ProgressEvent(
                    event="relation_start", relation=table_name, total_rows=target
                )
                rows = 0
                for _start, count, _block in relation.iter_blocks():
                    rows += count
                    total += count
                    yield ProgressEvent(
                        event="progress",
                        relation=table_name,
                        rows=rows,
                        total_rows=target,
                    )
                yield ProgressEvent(
                    event="relation_done",
                    relation=table_name,
                    rows=rows,
                    total_rows=target,
                    seconds=time.perf_counter() - relation_started,
                )
            yield ProgressEvent(
                event="done",
                rows=total,
                total_rows=grand_total,
                seconds=time.perf_counter() - started,
            )

    # -- internals -------------------------------------------------------

    @contextmanager
    def _leased(self, name: str) -> Iterator[CachedSummary]:
        """A lease on ``name`` raising the canonical 404 when absent."""
        try:
            with self.cache.lease(name) as entry:
                yield entry
        except SummaryNotLoaded as exc:
            raise ServiceError(404, "summary-not-loaded", str(exc)) from exc

    @staticmethod
    def _database_for(entry: CachedSummary, rows_per_second: float | None) -> Database:
        """A per-request database over the entry's cached summary.

        The summary (rows and offsets) is shared across requests; the
        :class:`~repro.executor.datagen.DataGenRelation` wrappers (which
        hold per-stream rate state) are fresh per request.  The streams stay
        in-process: server concurrency comes from serving many requests at
        once, not from forking processes inside one.
        """
        limiter = RateLimiter(rows_per_second=rows_per_second) if rows_per_second else None
        database = Database(schema=entry.summary.schema, providers={})
        for table_name, relation in summary_relation_providers(
            entry.summary, rate_limiter=limiter
        ):
            database.attach(table_name, relation)
        return database

    @staticmethod
    def _load_package(request: VerifyRequest) -> InformationPackage:
        """Resolve the verification workload package from path or inline body."""
        if request.package_path is not None:
            path = Path(request.package_path)
            if not path.is_file():
                raise ServiceError(
                    404, "package-file-not-found", f"no package file at {path}"
                )
            try:
                return InformationPackage.load(path)
            except (HydraError, OSError) as exc:
                raise ServiceError(
                    400, "bad-package", f"cannot load package from {path}: {exc}"
                ) from exc
        assert request.package is not None  # __post_init__ invariant
        try:
            return InformationPackage.from_dict(request.package)
        except HydraError as exc:
            raise ServiceError(
                400, "bad-package", f"cannot parse inline package: {exc}"
            ) from exc


"""Integration tests for the regeneration server (repro.server).

Covers the ISSUE's acceptance behaviours end to end over real sockets:

* 16 simultaneous clients receive results bit-identical to a direct
  serial engine run over the same summary;
* a version swap under load completes every in-flight request on the old
  version with zero failures;
* the NDJSON regeneration stream accounts for every regenerable row;
* per-tenant admission control surfaces as 429 + Retry-After;
* verification and export endpoints share the CLI's validation helper.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.client.package import InformationPackage
from repro.core.pipeline import Hydra
from repro.core.scenario import scale_metadata
from repro.executor.engine import ExecutionEngine
from repro.executor.rate import VirtualClock
from repro.plans.planner import build_plan
from repro.server import (
    BackgroundServer,
    LoadSummaryRequest,
    QueryRequest,
    ServerClient,
    ServerClientError,
    ServiceError,
    SummaryService,
)
from repro.server import client as client_module
from repro.server.service import external_result_columns
from repro.sql.parser import parse_query
from repro.telemetry import telemetry_session
from repro.workload.toy import ToyConfig, generate_toy_database

QUERIES = [
    "select count(*) from S",
    "select * from S where S.A >= 10 and S.A < 30",
    "select count(*) from R, S where R.S_fk = S.S_pk and S.B < 25",
    "select sum(S.B) from S where S.A >= 20 and S.A < 60",
]


@pytest.fixture(scope="module")
def toy_summary(toy_metadata, toy_aqps):
    """The toy workload's summary, built once for the whole module."""
    return Hydra(metadata=toy_metadata).build_summary(toy_aqps).summary


@pytest.fixture(scope="module")
def other_summary(toy_aqps):
    """A second, different-content summary over the same schema (for swaps)."""
    database = generate_toy_database(
        ToyConfig(r_rows=2_000, s_rows=200, t_rows=20, seed=9)
    )
    from repro.catalog.metadata import collect_metadata
    from repro.client.extractor import AQPExtractor

    metadata = collect_metadata(database)
    extractor = AQPExtractor(database=database)
    aqps = extractor.extract_workload(
        [aqp.query for aqp in toy_aqps if aqp.query is not None]
    )
    return Hydra(metadata=metadata).build_summary(aqps).summary


@pytest.fixture(scope="module")
def server(toy_summary):
    """One background server with the toy summary pre-loaded as 'toy'."""
    service = SummaryService()
    service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
    with BackgroundServer(service) as background:
        yield background


def _direct_responses(metadata, summary):
    """Serial direct-engine execution of QUERIES: the bit-identity baseline."""
    database = Hydra(metadata=metadata).regenerate(summary)
    engine = ExecutionEngine(database=database)
    expected = {}
    for sql in QUERIES:
        plan = build_plan(parse_query(sql, database.schema), database.schema)
        result = engine.execute(plan)
        expected[sql] = (
            external_result_columns(database, result.columns),
            result.row_count,
        )
    return expected


class TestConcurrentClients:
    def test_sixteen_clients_bit_identical_to_direct_run(
        self, server, toy_metadata, toy_summary
    ):
        expected = _direct_responses(toy_metadata, toy_summary)
        fingerprint = toy_summary.fingerprint()

        def worker(index: int) -> None:
            client = ServerClient("127.0.0.1", server.port, tenant=f"t{index}")
            for _round in range(3):
                for sql in QUERIES:
                    response = client.query("toy", sql)
                    columns, row_count = expected[sql]
                    assert response.columns == columns, sql
                    assert response.row_count == row_count, sql
                    assert response.fingerprint == fingerprint

        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(worker, index) for index in range(16)]
            for future in futures:
                future.result()

    def test_routes_and_annotations_surface(self, server):
        client = ServerClient("127.0.0.1", server.port)
        response = client.query("toy", "select count(*) from S")
        assert response.aggregate_route == "summary"
        assert response.scanned_rows == 0
        assert any(event.route == "summary" for event in response.route_events)
        assert response.annotations, "plan annotations must ride the response"
        assert all(
            annotation["cardinality"] >= 0 for annotation in response.annotations
        )


class TestVersionSwap:
    def test_inflight_lease_survives_swap(self, toy_summary, other_summary):
        """A held lease keeps serving the old version through load+evict."""
        service = SummaryService()
        first = service.load(
            LoadSummaryRequest(name="swap", summary=toy_summary.to_dict())
        )
        assert first.generation == 1
        with service.cache.lease("swap") as old_entry:
            swapped = service.load(
                LoadSummaryRequest(name="swap", summary=other_summary.to_dict())
            )
            assert swapped.generation == 2
            assert swapped.fingerprint != first.fingerprint
            # The leased entry still answers with the *old* content.
            assert old_entry.retired
            assert old_entry.fingerprint == first.fingerprint
            assert old_entry.summary.total_rows() == toy_summary.total_rows()
            assert service.cache.retired_count == 1
        assert service.cache.retired_count == 0

    def test_swap_under_load_zero_failed_requests(
        self, toy_summary, other_summary, toy_metadata
    ):
        """8 clients hammer queries while the server swaps versions: no failures."""
        service = SummaryService()
        service.load(LoadSummaryRequest(name="swap", summary=toy_summary.to_dict()))
        sql = "select count(*) from S"
        expected_by_fingerprint = {
            toy_summary.fingerprint(): toy_summary.row_count("S"),
            other_summary.fingerprint(): other_summary.row_count("S"),
        }
        failures: list[BaseException] = []
        results: list[tuple[str, int]] = []
        stop = threading.Event()

        with BackgroundServer(service) as background:

            def worker(index: int) -> None:
                client = ServerClient("127.0.0.1", background.port, tenant=f"w{index}")
                while not stop.is_set():
                    try:
                        response = client.query("swap", sql)
                    except BaseException as exc:  # noqa: BLE001 - recorded and failed below
                        failures.append(exc)
                        return
                    results.append(
                        (response.fingerprint, response.columns["count"][0])
                    )

            threads = [
                threading.Thread(target=worker, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            swaps = [other_summary, toy_summary, other_summary]
            loader = ServerClient("127.0.0.1", background.port, tenant="loader")
            generations = []
            for summary in swaps:
                generations.append(
                    loader.load_summary("swap", summary=summary.to_dict()).generation
                )
            stop.set()
            for thread in threads:
                thread.join(timeout=60)

        assert not failures, failures
        assert generations == [2, 3, 4]
        assert results, "workers must have completed requests"
        for fingerprint, count in results:
            assert count == expected_by_fingerprint[fingerprint]
        assert service.cache.retired_count == 0


class TestStreamingRegeneration:
    def test_stream_accounts_for_every_row(self, server, toy_summary):
        client = ServerClient("127.0.0.1", server.port)
        events = list(client.regenerate("toy", batch_size=256))
        assert events[0].event == "start"
        assert events[0].total_rows == toy_summary.total_rows()
        assert events[-1].event == "done"
        assert events[-1].rows == toy_summary.total_rows()
        per_relation = [e for e in events if e.event == "relation_done"]
        assert {e.relation for e in per_relation} == set(toy_summary.relations)
        for event in per_relation:
            assert event.rows == toy_summary.row_count(event.relation)

    def test_unknown_relation_is_a_clean_400(self, server):
        client = ServerClient("127.0.0.1", server.port)
        with pytest.raises(ServerClientError) as excinfo:
            list(client.regenerate("toy", relations=["nope"]))
        assert excinfo.value.status == 400
        assert "nope" in str(excinfo.value)


class TestErrorsAndAdmission:
    def test_unknown_summary_is_404(self, server):
        client = ServerClient("127.0.0.1", server.port)
        with pytest.raises(ServerClientError) as excinfo:
            client.query("ghost", "select count(*) from S")
        assert excinfo.value.status == 404

    def test_bad_sql_is_400(self, server):
        client = ServerClient("127.0.0.1", server.port)
        with pytest.raises(ServerClientError) as excinfo:
            client.query("toy", "select count(*) from NOPE")
        assert excinfo.value.status == 400

    def test_admission_control_deterministic(self):
        """Token accounting over a virtual clock: burst of one, then 429."""
        clock = VirtualClock()
        service = SummaryService(requests_per_second=2.0, clock=clock.now)
        service.admit("tenant-a")  # burst allowance
        with pytest.raises(ServiceError) as excinfo:
            service.admit("tenant-a")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0
        # Other tenants have their own budget.
        service.admit("tenant-b")
        # After the interval has elapsed the tenant is admitted again.
        clock.advance(10.0)
        service.admit("tenant-a")

    def test_rate_limit_surfaces_as_429_over_http(self, toy_summary):
        service = SummaryService(requests_per_second=0.001)
        service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
        with BackgroundServer(service) as background:
            client = ServerClient("127.0.0.1", background.port, tenant="greedy")
            client.server_info()  # burst allowance
            with pytest.raises(ServerClientError) as excinfo:
                client.server_info()
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None


class TestVerifyAndExport:
    def test_volumetric_verify_and_export_validation(
        self, server, toy_metadata, toy_aqps, tmp_path
    ):
        client = ServerClient("127.0.0.1", server.port)
        package = InformationPackage(metadata=toy_metadata, aqps=list(toy_aqps))
        package_path = tmp_path / "package.json"
        package.save(package_path)

        volumetric = client.verify("toy", package_path=str(package_path))
        assert volumetric.mode == "volumetric"
        assert volumetric.ok
        assert volumetric.total_edges > 0
        assert volumetric.error_cdf

        out_dir = tmp_path / "export"
        export = client.export("toy", format="csv", out_dir=str(out_dir))
        assert export.total_rows > 0
        assert sorted(export.relations) == sorted(toy_metadata.schema.table_names)
        assert (out_dir / "MANIFEST.json").exists()

        against = client.verify(
            "toy", package_path=str(package_path), against_dir=str(out_dir)
        )
        assert against.mode == "export"
        assert against.ok
        assert against.rows_checked == export.total_rows
        assert not against.problems


    def test_parquet_export_is_400_bad_export(self, server, tmp_path):
        client = ServerClient("127.0.0.1", server.port)
        out_dir = tmp_path / "export"
        with pytest.raises(ServerClientError) as excinfo:
            client.export("toy", format="parquet", out_dir=str(out_dir))
        assert excinfo.value.status == 400
        assert excinfo.value.body.error == "bad-export"
        assert "unknown export format 'parquet'; choose from csv, sqlite" in str(excinfo.value)
        assert not out_dir.exists()
        with server.service.cache.lease("toy") as entry:
            assert entry.leases == 1

    @pytest.mark.parametrize(
        "package", [{"aqps": []}, {"metadata": 5}, {"metadata": {"schema": []}, "aqps": 3}]
    )
    def test_malformed_package_is_400_bad_package(self, server, package, tmp_path):
        client = ServerClient("127.0.0.1", server.port)
        path = tmp_path / "package.json"
        path.write_text(json.dumps(package))
        for body in ({"package": package}, {"package_path": str(path)}):
            with pytest.raises(ServerClientError) as excinfo:
                client._request("POST", "/summaries/toy/verify", body)
            assert excinfo.value.status == 400
            assert excinfo.value.body.error == "bad-package"
            assert "malformed information package at " in str(excinfo.value)
        with server.service.cache.lease("toy") as entry:
            assert entry.leases == 1


class TestRequestValidation:
    def test_query_request_defaults_round_trip(self):
        request = QueryRequest.from_dict({"sql": "select count(*) from S"})
        assert request == QueryRequest(sql="select count(*) from S", rows_per_second=None)

    @pytest.mark.parametrize("key", ["pushdown", "summary_fastpath", "streaming_join"])
    def test_removed_route_keys_are_400_on_the_wire(self, server, key):
        client = ServerClient("127.0.0.1", server.port)
        with pytest.raises(ServerClientError) as excinfo:
            client._request(
                "POST", "/summaries/toy/query", {"sql": "select count(*) from S", key: True}
            )
        assert excinfo.value.status == 400
        assert f"unknown key(s) '{key}'" in str(excinfo.value)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_400_before_any_event(self, toy_summary, batch_size):
        service = SummaryService()
        service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
        with BackgroundServer(service) as background:
            client = ServerClient("127.0.0.1", background.port)
            # A raw body: the client's own RegenerateRequest would refuse it locally.
            with pytest.raises(ServerClientError) as excinfo:
                client._request(
                    "POST", "/summaries/toy/regenerate", {"batch_size": batch_size}
                )
            assert excinfo.value.status == 400
            assert "'batch_size' must be >= 1" in str(excinfo.value)
            # No lease is left behind and the next request is served.
            with service.cache.lease("toy") as entry:
                assert entry.leases == 1
            events = list(client.regenerate("toy", relations=["T"], batch_size=16))
            assert events[-1].event == "done"

    @pytest.mark.parametrize("endpoint", ["regenerate", "export", "verify"])
    def test_workers_key_is_400_before_any_lease_or_write(self, server, endpoint, tmp_path):
        """Version 3 has no ``workers`` key: the request is refused, not pooled."""
        client = ServerClient("127.0.0.1", server.port)
        out_dir = tmp_path / "out"
        body = {
            "regenerate": {"workers": 2},
            "export": {"format": "csv", "out_dir": str(out_dir), "workers": 2},
            "verify": {"package_path": str(tmp_path / "package.json"), "workers": 2},
        }[endpoint]
        # A raw body: the client has no ``workers`` keyword left to send it.
        with pytest.raises(ServerClientError) as excinfo:
            client._request("POST", f"/summaries/toy/{endpoint}", body)
        assert excinfo.value.status == 400
        assert excinfo.value.body.error == "bad-request"
        assert "unknown key(s) 'workers'" in str(excinfo.value)
        assert not out_dir.exists()
        with server.service.cache.lease("toy") as entry:
            assert entry.leases == 1

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "12 12"])
    def test_invalid_content_length_is_400_and_the_server_lives_on(self, server, length, recwarn):
        request = (
            f"POST /api/v3/summaries/toy/query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n" + '{"sql": "select count(*) from S"}'
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
            raw.sendall(request.encode("latin-1"))
            received = b""
            while chunk := raw.recv(65536):  # the server answers, then closes
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), received
        assert b"Connection: close" in head
        answer = json.loads(body)
        assert answer["error"] == "bad-request" and answer["status"] == 400
        assert "invalid Content-Length" in answer["detail"]
        # The connection task ended cleanly and the next connection is served.
        client = ServerClient("127.0.0.1", server.port)
        assert client.query("toy", "select count(*) from S").row_count == 1
        assert not [w for w in recwarn if "never retrieved" in str(w.message)]

    @pytest.mark.parametrize(
        "head, status, error, detail",
        [
            (
                "POST /api/v3/summaries/toy/query HTTP/1.1\r\n"
                f"Content-Length: {64 * 1024 * 1024 + 1}",
                413, "payload-too-large", "exceeds",
            ),
            ("NOT-A-REQUEST-LINE", 400, "bad-request", "malformed request line"),
            (
                "GET /api/v3/healthz HTTP/1.1\r\n" + "X-Filler: 0123456789abcdef\r\n" * 2340,
                400, "bad-request", "request headers exceed",
            ),
        ],
        ids=["body-over-the-limit", "request-line", "header-section-over-the-cap"],
    )
    def test_unframeable_request_is_answered_and_the_server_lives_on(
        self, server, head, status, error, detail
    ):
        """A typed answer, then a closed socket: no silent close, no read of the body."""
        received = _raw_exchange(server.port, (head + "\r\n\r\n").encode("latin-1") + b"{}")
        head_bytes, _, body = received.partition(b"\r\n\r\n")
        assert head_bytes.startswith(f"HTTP/1.1 {status} ".encode()), received
        assert b"Connection: close" in head_bytes
        answer = json.loads(body)
        assert (answer["error"], answer["status"]) == (error, status)
        assert detail in answer["detail"]
        client = ServerClient("127.0.0.1", server.port)
        assert client.query("toy", "select count(*) from S").row_count == 1


def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload`` on a fresh socket and read until the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
        raw.sendall(payload)
        received = b""
        try:
            while chunk := raw.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # the server closed with bytes of ours unread: the answer came first
    return received


def _wait_until(condition, seconds: float = 5.0) -> bool:
    """Poll ``condition`` until it holds or ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return bool(condition())


class TestConnections:
    def test_client_abandoning_a_stream_releases_its_lease(self, toy_metadata, toy_aqps):
        """Closing the socket mid-stream stops regeneration and frees the entry."""
        # Large enough that the stream cannot simply finish into the socket buffers.
        hydra = Hydra(metadata=scale_metadata(toy_metadata, 1000))
        summary = hydra.build_summary(toy_aqps).summary
        service = SummaryService()
        service.load(LoadSummaryRequest(name="big", summary=summary.to_dict()))
        with service.cache.lease("big") as entry:
            pass
        body = b'{"batch_size": 1}'
        request = (
            f"POST /api/v3/summaries/big/regenerate HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        with BackgroundServer(service) as background:
            with socket.create_connection(("127.0.0.1", background.port), timeout=10) as raw:
                raw.sendall(request)
                received = b""
                while b'"event": "progress"' not in received:
                    chunk = raw.recv(4096)
                    assert chunk, received
                    received += chunk
                assert entry.leases == 1  # held by the running stream
                raw.shutdown(socket.SHUT_RDWR)
            assert _wait_until(lambda: entry.leases == 0), "the abandoned stream kept its lease"
            client = ServerClient("127.0.0.1", background.port)
            assert client.evict("big").evicted
            assert service.cache.retired_count == 0
            with pytest.raises(ServerClientError) as excinfo:
                client.query("big", "select count(*) from S")
            assert excinfo.value.status == 404

    def test_one_connection_serves_request_after_request(self, server):
        """Keep-alive: a 400 for a body that is not JSON does not cost the connection."""
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            path = "/api/v3/summaries/toy/query"
            statuses = []
            for body in (
                '{"sql": "select count(*) from S"}',
                "{not json",
                '{"sql": "select count(*) from T"}',
            ):
                connection.request("POST", path, body=body)
                socket_in_use = connection.sock
                response = connection.getresponse()
                answer = json.loads(response.read())
                statuses.append((response.status, answer.get("error"), answer.get("row_count")))
                assert connection.sock is socket_in_use is not None  # not closed, not reopened
            assert statuses == [(200, None, 1), (400, "bad-request", None), (200, None, 1)]
        finally:
            connection.close()

    def test_stop_ends_every_thread_and_frees_the_port(self, toy_summary):
        before = set(threading.enumerate())
        service = SummaryService()
        service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
        background = BackgroundServer(service).start()
        port = background.port
        client = ServerClient("127.0.0.1", port)
        assert client.query("toy", "select count(*) from S").row_count == 1

        def ours() -> list[str]:  # other servers (the module fixture's) may be running
            return [t.name for t in set(threading.enumerate()) - before]

        assert any(name.startswith("hydra-server") for name in ours())
        background.stop()
        assert not [name for name in ours() if name.startswith("hydra-server")]
        # Connection threads end with their (closed) connections.
        assert _wait_until(lambda: not ours()), ours()
        with BackgroundServer(service, port=port) as again:  # no TIME_WAIT stall
            assert again.port == port
            assert ServerClient("127.0.0.1", port).server_info().summaries_loaded == 1

    def test_stop_ends_idle_connections(self, toy_summary):
        """A keep-alive connection opened before ``stop()`` ends with it."""
        before = set(threading.enumerate())
        service = SummaryService()
        service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
        background = BackgroundServer(service).start()
        connection = http.client.HTTPConnection("127.0.0.1", background.port, timeout=10)
        try:
            connection.request("GET", "/api/v3/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            background.stop()
            assert _wait_until(lambda: not set(threading.enumerate()) - before), (
                set(threading.enumerate()) - before
            )
            with pytest.raises(ConnectionError):
                connection.request("GET", "/api/v3/healthz")
                connection.getresponse()
        finally:
            connection.close()


SQL = "select count(*) from S"


@contextmanager
def _served(summary, **options):
    """A fresh server with ``summary`` loaded as 'toy', under its own telemetry session."""
    service = SummaryService(**options)
    service.load(LoadSummaryRequest(name="toy", summary=summary.to_dict()))
    with telemetry_session() as session, BackgroundServer(service) as background:
        yield background, session


def _connections(session) -> float:
    return session.metrics.counter_value("server.connections")


def _queries(session) -> float:
    """Served queries (counted just after each answer is written)."""
    return session.metrics.counter_value("server.requests.query")


def _connection_threads(before) -> list[threading.Thread]:
    """Server connection threads started since ``before`` was taken."""
    return [
        thread for thread in set(threading.enumerate()) - before
        if thread.name.endswith("(process_request_thread)")
    ]


class TestConnectionReuse:
    def test_sequential_queries_use_one_connection(self, toy_summary):
        with _served(toy_summary) as (background, session):
            with ServerClient("127.0.0.1", background.port) as client:
                for _ in range(50):
                    assert client.query("toy", SQL).row_count == 1
            assert _connections(session) == 1
            assert _wait_until(lambda: _queries(session) == 50), _queries(session)
            spans = session.tracer.finished_spans()
            requests = {s.span_id for s in spans if s.name == "server.request"}
            for name in ("server.http.decode", "server.http.encode"):
                assert {s.parent_id for s in spans if s.name == name} <= requests
                assert sum(s.name == name for s in spans) == 50

    @pytest.mark.parametrize("threads, each", [(2, 25), (8, 10)])
    def test_threads_sharing_a_client_use_at_most_one_connection_each(
        self, toy_summary, threads, each
    ):
        """More threads than cores and a short switch interval: no connection is shared."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _served(toy_summary) as (background, session):
                with ServerClient("127.0.0.1", background.port) as client:
                    expected = {sql: client.query("toy", sql).columns for sql in QUERIES}

                    def worker(index: int) -> None:
                        sql = QUERIES[index % len(QUERIES)]
                        for _ in range(each):
                            assert client.query("toy", sql).columns == expected[sql]

                    with ThreadPoolExecutor(max_workers=threads) as pool:
                        list(pool.map(worker, range(threads), timeout=60))
                assert 1 <= _connections(session) <= threads
                total = len(QUERIES) + threads * each
                assert _wait_until(lambda: _queries(session) == total), _queries(session)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("status", [404, 400, 429])
    def test_a_4xx_answer_keeps_the_connection(self, toy_summary, status):
        clock = VirtualClock()
        failing = {
            404: ("ghost", SQL), 400: ("toy", "select count(*) from NOPE"), 429: ("toy", SQL)
        }
        with _served(toy_summary, requests_per_second=1.0, clock=clock.now) as (
            background, session
        ):
            with ServerClient("127.0.0.1", background.port) as client:
                assert client.query("toy", SQL).row_count == 1
                if status != 429:
                    clock.advance(100.0)  # the budget is spent only for the 429 case
                with pytest.raises(ServerClientError) as excinfo:
                    client.query(*failing[status])
                assert excinfo.value.status == status
                clock.advance(100.0)
                assert client.query("toy", SQL).row_count == 1
            assert _connections(session) == 1

    @pytest.mark.parametrize("answer", ["500", "stream"])
    def test_a_500_or_a_stream_is_not_reused(self, toy_summary, answer, monkeypatch):
        with _served(toy_summary) as (background, session):
            with ServerClient("127.0.0.1", background.port) as client:
                assert client.query("toy", SQL).row_count == 1
                if answer == "500":
                    with monkeypatch.context() as patch:
                        patch.setattr(background.service, "query", lambda *_: 1 / 0)
                        with pytest.raises(ServerClientError) as excinfo:
                            client.query("toy", SQL)
                    assert excinfo.value.status == 500
                else:
                    assert list(client.regenerate("toy"))[-1].event == "done"
                assert client.query("toy", SQL).row_count == 1
            assert _connections(session) == 2

    def test_an_abandoned_stream_closes_its_socket_and_frees_its_lease(
        self, toy_metadata, toy_aqps
    ):
        hydra = Hydra(metadata=scale_metadata(toy_metadata, 1000))
        big = hydra.build_summary(toy_aqps).summary
        with _served(big) as (background, session):
            with background.service.cache.lease("toy") as entry:
                pass
            with ServerClient("127.0.0.1", background.port) as client:
                events = client.regenerate("toy", batch_size=1)
                assert next(events).event == "start"
                assert entry.leases == 1
                events.close()
                assert _wait_until(lambda: entry.leases == 0), "the abandoned stream kept its lease"
                assert not client._idle
                assert client.query("toy", SQL).row_count == 1
            assert _connections(session) == 2

    @staticmethod
    def _restarted(toy_summary, monkeypatch):
        """A client whose one idle connection went to a server that has since stopped.

        Returns the client, the service and port to restart the server on,
        and the list each request send is recorded in from then on.
        """
        service = SummaryService()
        service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
        with BackgroundServer(service) as first:
            port = first.port
            client = ServerClient("127.0.0.1", port)
            assert client.server_info().summaries_loaded == 1
        sends: list[tuple] = []
        send = ServerClient._send
        monkeypatch.setattr(
            ServerClient, "_send", lambda self, *args: (sends.append(args), send(self, *args))[1]
        )
        return client, service, port, sends

    def test_a_restarted_server_costs_exactly_one_retry(self, toy_summary, monkeypatch):
        """The stale connection is noticed after the send: one retry, one new connection.

        The check before the send is made to miss the close, as it does
        when the close arrives between the check and the send.
        """
        client, service, port, sends = self._restarted(toy_summary, monkeypatch)
        monkeypatch.setattr(client_module, "_closed_while_idle", lambda connection: False)
        with telemetry_session() as session, BackgroundServer(service, port=port):
            with client:
                assert client.server_info().summaries_loaded == 1
            assert len(sends) == 2  # the stale connection, then one fresh one
            assert _connections(session) == 1

    def test_a_close_noticed_before_the_send_costs_no_retry(self, toy_summary, monkeypatch):
        client, service, port, sends = self._restarted(toy_summary, monkeypatch)
        (idle,) = client._idle
        assert select.select([idle.sock], [], [], 10)[0], "the stopped server never closed"
        with telemetry_session() as session, BackgroundServer(service, port=port):
            with client:
                assert client.server_info().summaries_loaded == 1
            assert len(sends) == 1  # only on the one fresh connection
            assert _connections(session) == 1

    def test_a_stopped_server_answers_no_request_read_after_the_stop(self, toy_summary):
        """A request reaching a connection thread after ``stop`` is dropped, not answered."""
        service = SummaryService()
        service.load(LoadSummaryRequest(name="toy", summary=toy_summary.to_dict()))
        with BackgroundServer(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
                request = b"GET /api/v3/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                raw.sendall(request)
                assert raw.recv(65536).startswith(b"HTTP/1.1 200")
                server._server._listener.ending = True  # what stop() sets before shutting reads
                raw.sendall(request)
                assert raw.recv(65536) == b""  # closed without an answer

    @pytest.mark.parametrize(
        "replies, failure",
        [
            (
                [
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
                    b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"cut',
                ],
                http.client.IncompleteRead,
            ),
            ([b""], http.client.RemoteDisconnected),
        ],
        ids=["reused-reply-cut-off-mid-body", "fresh-connection-dropped"],
    )
    def test_a_failure_other_than_a_stale_connection_is_not_retried(self, replies, failure):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def serve() -> None:
                connection, _ = listener.accept()
                with connection, connection.makefile("rb") as reader:
                    for reply in replies:
                        while reader.readline() not in (b"\r\n", b""):
                            pass  # a GET: the head is the whole request
                        connection.sendall(reply)

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            client = ServerClient("127.0.0.1", listener.getsockname()[1], timeout=10)
            for _answered in replies[:-1]:
                assert client._request("GET", "/healthz") == {}
            with pytest.raises(failure):
                client._request("GET", "/healthz")
            thread.join(timeout=10)
            assert not client._idle
            listener.settimeout(0.2)
            with pytest.raises(TimeoutError):
                listener.accept()  # no second connection was attempted

    def test_close_and_with_end_the_server_threads(self, server):
        before = set(threading.enumerate())
        client = ServerClient("127.0.0.1", server.port)
        assert client.query("toy", SQL).row_count == 1
        assert len(_connection_threads(before)) == 1
        client.close()
        assert _wait_until(lambda: not _connection_threads(before)), _connection_threads(before)
        with ServerClient("127.0.0.1", server.port) as client:
            assert client.query("toy", SQL).row_count == 1
            assert len(_connection_threads(before)) == 1
        assert _wait_until(lambda: not _connection_threads(before)), _connection_threads(before)

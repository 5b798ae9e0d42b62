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
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.client.package import InformationPackage
from repro.core.pipeline import Hydra, scale_row_counts
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
from repro.server.service import external_result_columns
from repro.sql.parser import parse_query
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
    engine = ExecutionEngine(database=database, annotate=True)
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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_is_400_on_every_endpoint(self, server, workers, tmp_path):
        client = ServerClient("127.0.0.1", server.port)
        out_dir = tmp_path / "out"
        bodies = {
            "regenerate": {"workers": workers},
            "export": {"format": "csv", "out_dir": str(out_dir), "workers": workers},
            "verify": {"package_path": str(tmp_path / "package.json"), "workers": workers},
        }
        for endpoint, body in bodies.items():
            # Raw bodies: the client's own request types would refuse them locally.
            with pytest.raises(ServerClientError) as excinfo:
                client._request("POST", f"/summaries/toy/{endpoint}", body)
            assert excinfo.value.status == 400, endpoint
            assert "'workers' must be >= 1" in str(excinfo.value)
        # Refused before any lease, fork or write.
        assert not out_dir.exists()
        with server.service.cache.lease("toy") as entry:
            assert entry.leases == 1

    def test_huge_worker_count_is_clamped_to_the_cores(
        self, server, toy_summary, toy_metadata, toy_aqps, tmp_path, monkeypatch
    ):
        """``workers=100000`` is served — by at most ``os.cpu_count()`` lanes."""
        import multiprocessing

        from repro.server import service as service_module

        monkeypatch.setattr(service_module.os, "cpu_count", lambda: 2)
        assert service_module._effective_workers(100_000) == 2
        assert service_module._effective_workers(None) is None
        forked = []
        start = multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess,
            "start",
            lambda process: (forked.append(process.name), start(process))[1],
        )
        client = ServerClient("127.0.0.1", server.port)
        events = list(client.regenerate("toy", relations=["S"], workers=100_000, batch_size=1))
        assert events[-1].event == "done" and events[-1].rows == toy_summary.row_count("S")
        assert 0 < len(set(forked)) <= 2

        package_path = tmp_path / "package.json"
        InformationPackage(metadata=toy_metadata, aqps=list(toy_aqps)).save(package_path)
        assert client.verify("toy", package_path=str(package_path), workers=100_000).ok
        export = client.export(
            "toy", format="csv", out_dir=str(tmp_path / "out"), workers=100_000
        )
        assert export.total_rows == toy_summary.total_rows()
        assert len(set(forked)) <= 2 * len(toy_summary.relations)
        with server.service.cache.lease("toy") as entry:
            assert entry.leases == 1

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "12 12"])
    def test_invalid_content_length_is_400_and_the_server_lives_on(self, server, length, recwarn):
        request = (
            f"POST /api/v2/summaries/toy/query HTTP/1.1\r\nHost: x\r\n"
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
                "POST /api/v2/summaries/toy/query HTTP/1.1\r\n"
                f"Content-Length: {64 * 1024 * 1024 + 1}",
                413, "payload-too-large", "exceeds",
            ),
            ("NOT-A-REQUEST-LINE", 400, "bad-request", "malformed request line"),
            (
                "GET /api/v2/healthz HTTP/1.1\r\n" + "X-Filler: 0123456789abcdef\r\n" * 2340,
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
        hydra = Hydra(
            metadata=toy_metadata, row_count_overrides=scale_row_counts(toy_metadata, 1000)
        )
        summary = hydra.build_summary(toy_aqps).summary
        service = SummaryService()
        service.load(LoadSummaryRequest(name="big", summary=summary.to_dict()))
        with service.cache.lease("big") as entry:
            pass
        body = b'{"batch_size": 1}'
        request = (
            f"POST /api/v2/summaries/big/regenerate HTTP/1.1\r\nHost: x\r\n"
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
                # Under REPRO_WORKERS the in-process server forks pool workers that
                # inherit this very descriptor: only shutdown() ends the connection.
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
            path = "/api/v2/summaries/toy/query"
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

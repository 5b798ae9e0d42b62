"""E16 — Concurrent summary-server throughput and latency (``repro.server``).

The server's value proposition is amortisation: the summary is loaded and
grounded once, then any number of concurrent clients query, verify and
regenerate against the same cached version.  This benchmark measures
queries/second and p99 request latency at 1, 4 and 16 concurrent clients
over real sockets (stdlib asyncio server + blocking HTTP clients), then
exercises a live version swap under full load.

Correctness is asserted alongside the timing:

* every response at every concurrency level is bit-identical to a direct
  serial engine run over the same summary (same external column values,
  same row counts);
* during a version swap with 16 clients in flight, zero requests fail and
  every response matches the content of the version that answered it
  (old or new, pinned by the response fingerprint).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from reporting import record

from repro.client.extractor import AQPExtractor
from repro.core.pipeline import Hydra
from repro.executor.engine import ExecutionEngine
from repro.plans.planner import build_plan
from repro.server import (
    BackgroundServer,
    LoadSummaryRequest,
    ServerClient,
    SummaryService,
)
from repro.server.service import external_result_columns
from repro.sql.parser import parse_query
from repro.workload.toy import ToyConfig, generate_toy_database

#: The request mix: summary-route aggregates plus a generating scan.
QUERIES = (
    "select count(*) from S",
    "select sum(S.B) from S where S.A >= 20 and S.A < 60",
    "select * from S where S.A >= 10 and S.A < 30",
    "select count(*) from R, S where R.S_fk = S.S_pk and S.B < 25",
)

CONCURRENCY_LEVELS = (1, 4, 16)


def _direct_baseline(metadata, summary):
    """Serial direct-engine execution of the mix: the bit-identity oracle."""
    database = Hydra(metadata=metadata).regenerate(summary)
    engine = ExecutionEngine(database=database, annotate=True)
    baseline = {}
    for sql in QUERIES:
        plan = build_plan(parse_query(sql, database.schema), database.schema)
        result = engine.execute(plan)
        baseline[sql] = (
            external_result_columns(database, result.columns),
            result.row_count,
        )
    return baseline


def _client_loop(port, requests, latencies, mismatches, baseline, fingerprint, index):
    """One client: run the mix round-robin, recording per-request latency."""
    client = ServerClient("127.0.0.1", port, tenant=f"bench-{index}")
    for request_index in range(requests):
        sql = QUERIES[request_index % len(QUERIES)]
        started = time.perf_counter()
        response = client.query("bench", sql)
        latencies.append(time.perf_counter() - started)
        columns, row_count = baseline[sql]
        if (
            response.columns != columns
            or response.row_count != row_count
            or response.fingerprint != fingerprint
        ):
            mismatches.append(sql)


def _p99(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1) + 0.999))]


def test_e16_server_throughput(benchmark, toy_client, bench_tiny):
    _database, metadata, _queries, aqps = toy_client
    summary = Hydra(metadata=metadata).build_summary(aqps).summary
    baseline = _direct_baseline(metadata, summary)
    fingerprint = summary.fingerprint()
    requests_per_client = 8 if bench_tiny else 40

    service = SummaryService()
    service.load(LoadSummaryRequest(name="bench", summary=summary.to_dict()))

    print()
    print(
        f"E16: {len(QUERIES)}-query mix over {summary.total_rows():,} regenerable "
        f"rows, {requests_per_client} requests/client"
    )
    throughput = {}
    with BackgroundServer(service) as background:
        for clients in CONCURRENCY_LEVELS:
            latencies: list[float] = []
            mismatches: list[str] = []
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                futures = [
                    pool.submit(
                        _client_loop,
                        background.port,
                        requests_per_client,
                        latencies,
                        mismatches,
                        baseline,
                        fingerprint,
                        index,
                    )
                    for index in range(clients)
                ]
                for future in futures:
                    future.result()
            elapsed = time.perf_counter() - started
            assert not mismatches, (
                f"{clients}-client responses diverged from the serial direct "
                f"engine run: {sorted(set(mismatches))}"
            )
            total = clients * requests_per_client
            queries_per_second = total / elapsed if elapsed > 0 else float("inf")
            p99 = _p99(latencies)
            throughput[clients] = queries_per_second
            print(
                f"  {clients:>2} client(s): {queries_per_second:8.1f} queries/s, "
                f"p99 {p99 * 1000:7.1f} ms ({total} requests, all bit-identical)"
            )
            record("E16", f"queries_per_second_{clients}_clients", queries_per_second)
            record("E16", f"p99_latency_seconds_{clients}_clients", p99)

        # -- version swap under full load: zero failed requests ----------
        other_database = generate_toy_database(
            ToyConfig(r_rows=2_000, s_rows=200, t_rows=20, seed=9)
        )
        other_extractor = AQPExtractor(database=other_database)
        other_metadata = other_extractor.profile_metadata()
        other_aqps = other_extractor.extract_workload(
            [parse_query(sql, other_database.schema) for sql in QUERIES[:1]]
        )
        other_summary = Hydra(metadata=other_metadata).build_summary(other_aqps).summary
        expected_counts = {
            fingerprint: summary.row_count("S"),
            other_summary.fingerprint(): other_summary.row_count("S"),
        }

        failures: list[BaseException] = []
        completed = [0]
        stop = threading.Event()
        lock = threading.Lock()

        def swap_worker(index: int) -> None:
            client = ServerClient("127.0.0.1", background.port, tenant=f"swap-{index}")
            while not stop.is_set():
                try:
                    response = client.query("bench", "select count(*) from S")
                except BaseException as exc:  # noqa: BLE001 - counted as failure
                    failures.append(exc)
                    return
                assert (
                    response.columns["count"][0]
                    == expected_counts[response.fingerprint]
                )
                with lock:
                    completed[0] += 1

        threads = [
            threading.Thread(target=swap_worker, args=(index,)) for index in range(16)
        ]
        for thread in threads:
            thread.start()
        loader = ServerClient("127.0.0.1", background.port, tenant="loader")
        generation = 1
        for swapped in (other_summary, summary, other_summary):
            generation = loader.load_summary(
                "bench", summary=swapped.to_dict()
            ).generation
        stop.set()
        for thread in threads:
            thread.join(timeout=120)

    assert not failures, f"requests failed during the version swap: {failures[:3]}"
    assert generation == 4
    assert service.cache.retired_count == 0, "swap left a version leaked"
    print(
        f"  version swap under 16-client load: {completed[0]} requests, "
        "0 failures, old versions fully retired"
    )
    record("E16", "swap_requests_completed", float(completed[0]))
    record("E16", "swap_failed_requests", 0.0)

    benchmark.extra_info["queries_per_second"] = {
        clients: round(rate, 1) for clients, rate in throughput.items()
    }

"""serve-mix: clients query a summary server started through the public CLI."""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro import (
    ExecutionEngine,
    LoadSummaryRequest,
    QueryRequest,
    QueryResponse,
    ServerClient,
    SummaryService,
    build_plan,
    parse_query,
)
from repro.telemetry import TelemetrySession, span

from .base import Slice, Workload, loop_until, synth_client
from .recorder import Recorder, median
from .spec import SRC_DIR

SUMMARY_NAME = "bench"
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def _default_sigint() -> None:
    # A parent that ignores SIGINT would hand that on, and the server's only
    # clean shutdown (the one that writes its metrics file) is SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``python -m repro.server`` as a child process on an ephemeral port."""

    def __init__(self, summary_path: Path, work_dir: Path, flags: list[str]) -> None:
        environment = dict(os.environ)
        inherited = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
        self._stderr = (work_dir / "server.stderr").open("w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--load", f"{SUMMARY_NAME}={summary_path}", *flags],
            stdout=subprocess.PIPE, stderr=self._stderr, bufsize=0,
            env=environment, cwd=work_dir, preexec_fn=_default_sigint,
        )
        try:
            self.port = self._await_port(started + START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.start_seconds = time.perf_counter() - started

    def _await_port(self, deadline: float) -> int:
        """Read the server's output until it announces the port it bound."""
        assert self.process.stdout is not None
        announced = b""
        while b"\n" not in announced.partition(b"listening on")[2]:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([self.process.stdout], [], [], remaining)[0]:
                raise RuntimeError("the summary server did not start listening in time")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("the summary server exited before listening")
            announced += chunk
        address = announced.partition(b"listening on")[2].split(b"\n", 1)[0]
        return int(address.rsplit(b":", 1)[1].split(b"/", 1)[0])

    def stop(self) -> None:
        """Interrupt the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()


class ServeMix(Workload):
    """One operation is one ``ServerClient.query`` round trip.

    Callers wait for replies, hence a closed loop, one thread per core.
    Engine time is small next to HTTP framing and per-request service work,
    so ``server.*`` dominates; ``SELECT *`` replies exercise JSON encoding.
    ``--seed`` draws each client's request order.
    """

    name = "serve-mix"

    def __init__(self, size: dict[str, Any], seed: int, work_dir: Path) -> None:
        super().__init__(size, seed, work_dir)
        self.concurrency = size["clients"]
        self.server: Server | None = None
        self.traced_server: Server | None = None
        self.metrics_path = work_dir / "server-metrics.json"
        self.extra_traces = [work_dir / "serve-mix.server.trace.json"]

    def setup(self, rec: Recorder) -> None:
        self.close()
        queries, self.hydra, result, _ = synth_client(self.size)
        self.summary = result.summary
        self.summary_bytes = self.summary.size_bytes()
        self.fingerprint = self.summary.fingerprint()
        self.summary_path = self.work_dir / "summary.json"
        self.summary.save(self.summary_path)
        self.sqls = [query.sql for query in queries]
        self.service = SummaryService()
        self.service.load(LoadSummaryRequest(name=SUMMARY_NAME, path=str(self.summary_path)))
        # What a client should see: the in-process answer after the same JSON trip.
        self.expected = [
            QueryResponse.from_dict(json.loads(json.dumps(self._direct(sql).to_dict())))
            for sql in self.sqls
        ]
        self.server = Server(self.summary_path, self.work_dir, [])
        rec.set("server.load_s", self.server.start_seconds)

    def _direct(self, sql: str) -> QueryResponse:
        return self.service.query(SUMMARY_NAME, QueryRequest(sql=sql))

    def measure(self, rec: Recorder, seconds: float, traced: bool = False) -> list[Slice]:
        if traced and self.traced_server is None:
            # The server traces itself through the CLI's own flags; the plain
            # one stays up so traced and untraced slices can alternate.
            self.traced_server = Server(
                self.summary_path, self.work_dir,
                ["--metrics", str(self.metrics_path), "--trace", str(self.extra_traces[0])],
            )
        server = self.traced_server if traced else self.server
        assert server is not None
        parts: list[tuple[Recorder, list[Slice]]] = [(Recorder(), []) for _ in range(self.concurrency)]
        threads = [
            threading.Thread(target=self._client, args=(index, server.port, seconds, *parts[index]))
            for index in range(self.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        slices = []
        for part, client_slices in parts:
            rec.samples["server.http.query"].extend(part.samples["server.http.query"])
            rec.absorb(part)
            slices.extend(client_slices)
        return slices

    def _client(
        self, index: int, port: int, seconds: float, rec: Recorder, slices: list[Slice]
    ) -> None:
        client = ServerClient("127.0.0.1", port, tenant=f"bench-{index}")
        order = np.random.default_rng([self.seed, index]).permutation(len(self.sqls))
        latencies = rec.samples["server.http.query"]
        with span("bench.workload.client", client=index):
            for _ in loop_until(seconds):
                current = Slice()
                started = time.perf_counter()
                for position in order:
                    try:
                        with rec.section("server.http.query"):
                            response = client.query(SUMMARY_NAME, self.sqls[position])
                    except Exception as exc:  # noqa: BLE001 - refused or failed requests are counted
                        latencies.pop()
                        rec.operation(False, f"request failed: {exc!r}")
                        current.complete = False
                        continue
                    current.ops.append(latencies[-1])
                    expected = self.expected[position]
                    rec.operation(
                        response.columns == expected.columns
                        and response.row_count == expected.row_count
                        and response.fingerprint == self.fingerprint,
                        f"reply to {self.sqls[position]!r} differs from SummaryService.query",
                    )
                current.wall = time.perf_counter() - started
                current.work = len(current.ops)
                slices.append(current)

    def check(self, rec: Recorder) -> None:
        rec.operation(bool(rec.samples["server.http.query"]), "no request completed")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server processes, read once they have ended."""
        self.close()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        for server in (self.server, self.traced_server):
            if server is not None:
                server.stop()
        self.server = self.traced_server = None

    def layers(self, rec: Recorder, seconds: float, session: TelemetrySession) -> None:
        del session
        database = self.hydra.regenerate(self.summary)
        engine = ExecutionEngine(database=database)
        for _ in loop_until(seconds / 2.0):
            for sql in self.sqls:
                with rec.section("executor.engine.direct"):
                    engine.execute(build_plan(parse_query(sql, database.schema), database.schema))
                with rec.section("server.service.query"):
                    self._direct(sql)
        direct = median(rec.samples["executor.engine.direct"]) * 1e3
        service = median(rec.samples["server.service.query"]) * 1e3
        http = median(rec.samples["server.http.query"]) * 1e3
        rec.set("core.summary.rows", self.summary.total_summary_rows())
        rec.set("server.engine_direct_ms_p50", direct)
        rec.set("server.service.query_ms_p50", service)
        rec.set("server.service.overhead_ms_p50", service - direct)
        rec.set("server.http.overhead_ms_p50", http - service)
        self.close()
        if self.metrics_path.is_file():
            counters = json.loads(self.metrics_path.read_text(encoding="utf-8"))["counters"]
            for name in ("server.cache.hits", "server.cache.misses", "server.requests.rejected"):
                rec.set(name, counters.get(name, 0.0))

"""query-summary and query-stream: parse, plan and execute SQL over a dataless database."""

from __future__ import annotations

import time
import zlib
from typing import Any

import numpy as np

from repro import ExecutionEngine, VolumetricComparator, build_plan, parse_query
from repro.telemetry import TelemetrySession

from .base import Slice, Workload, loop_until, synth_client
from .recorder import Recorder, counter, median


SEGMENT_COUNTERS = ("segments_scanned", "segments_skipped", "segments_semijoin_skipped")


def result_digest(result: Any) -> tuple[Any, ...]:
    """Row count plus a checksum of every result column."""
    digest = [result.row_count]
    for name, values in result.columns.items():
        array = np.ascontiguousarray(values)
        payload = repr(array.tolist()).encode() if array.dtype == object else array.tobytes()
        digest.append((name, zlib.crc32(payload)))
    return tuple(digest)


class QueryWorkload(Workload):
    """One operation is one query: ``parse_query`` -> ``build_plan`` -> ``execute``.

    Closed loop, one caller.  ``--seed`` draws the order in which the
    queries of a pass are issued.
    """

    def setup(self, rec: Recorder) -> None:
        queries, self.hydra, result, self.aqps = synth_client(self.size)
        self.summary = result.summary
        self.summary_bytes = self.summary.size_bytes()
        order = np.random.default_rng(self.seed).permutation(len(queries))
        self.queries = [queries[index] for index in order]
        self.database = self.hydra.regenerate(self.summary)
        self.engine = ExecutionEngine(database=self.database)
        # One untimed pass lets caches fill and gives the reference results.
        self.reference = [result_digest(self._run(Recorder(), query.sql)) for query in self.queries]
        self.pass_scanned: list[int] = []
        self.pass_returned: list[int] = []

    def _run(self, rec: Recorder, sql: str) -> Any:
        schema = self.database.schema
        with rec.section("sql.parser.parse_query"):
            query = parse_query(sql, schema)
        with rec.section("plans.planner.build_plan"):
            plan = build_plan(query, schema)
        with rec.section("executor.engine.execute"):
            return self.engine.execute(plan)

    def measure(self, rec: Recorder, seconds: float, traced: bool = False) -> list[Slice]:
        slices = []
        for _ in loop_until(seconds):
            current = Slice()
            scanned = returned = 0
            started = time.perf_counter()
            for index, query in enumerate(self.queries):
                op_started = time.perf_counter()
                try:
                    result = self._run(rec, query.sql)
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                    rec.operation(False, f"{query.name} failed: {exc!r}")
                    current.complete = False
                    continue
                current.ops.append(time.perf_counter() - op_started)
                scanned += result.scanned_rows
                returned += result.row_count
                rec.operation(
                    result.row_count == self.reference[index][0],
                    f"{query.name}: row count changed between passes",
                )
                if traced:
                    self._routes(rec, result)
            current.wall = time.perf_counter() - started
            current.work = len(current.ops)
            slices.append(current)
            self.pass_scanned.append(scanned)
            self.pass_returned.append(returned)
        if traced:
            # The program's counters only grow: the last reading covers every traced pass.
            rec.samples["passes"].append(len(slices))
            for name in SEGMENT_COUNTERS:
                rec.set(f"core.tuplegen.{name}", counter(f"tuplegen.{name}") / rec.total("passes"))
        return slices

    @staticmethod
    def _routes(rec: Recorder, result: Any) -> None:
        aggregate = result.aggregate_route
        if aggregate is not None:
            rec.samples["aggregate"].append(1.0 if aggregate == "summary" else 0.0)
        route = "summary" if aggregate == "summary" else "streaming"
        rec.samples[f"route.{route}"].append(rec.samples["executor.engine.execute"][-1])
        rec.samples["fallbacks"].append(len(result.fallback_reasons))

    def check(self, rec: Recorder) -> None:
        again = [result_digest(self._run(Recorder(), query.sql)) for query in self.queries]
        for query, before, after in zip(self.queries, self.reference, again):
            rec.operation(before == after, f"{query.name}: result differs between passes")
        rec.operation(len(set(self.pass_scanned)) <= 1, "scanned rows differ between passes")
        with rec.section("verify.volumetric"):
            fidelity = VolumetricComparator(self.database).verify(self.aqps)
        rec.set("verify.edges", fidelity.total_edges)
        rec.set("verify.fidelity_share", fidelity.fraction_within(0.01))
        rec.operation(
            fidelity.fraction_within(0.10) == 1.0,
            f"an AQP edge is off by {fidelity.max_relative_error():.1%} (limit 10 %)",
        )

    def layers(self, rec: Recorder, seconds: float, session: TelemetrySession) -> None:
        del seconds, session
        passes = max(rec.total("passes"), 1)
        rec.set("core.summary.rows", self.summary.total_summary_rows())
        rec.set("sql.parser.parse_us_p50", median(rec.samples["sql.parser.parse_query"]) * 1e6)
        rec.set("plans.planner.plan_us_p50", median(rec.samples["plans.planner.build_plan"]) * 1e6)
        if rec.samples["route.summary"]:
            rec.set("executor.engine.summary_route_ms_p50", median(rec.samples["route.summary"]) * 1e3)
        if rec.samples["route.streaming"]:
            rec.set(
                "executor.engine.streaming_route_ms_p50", median(rec.samples["route.streaming"]) * 1e3
            )
        if rec.samples["aggregate"]:
            rec.set(
                "executor.engine.summary_route_share",
                sum(rec.samples["aggregate"]) / len(rec.samples["aggregate"]),
            )
        rec.set("executor.engine.fallbacks", sum(rec.samples["fallbacks"]) / passes)
        rec.set("executor.engine.scanned_rows", self.pass_scanned[-1] if self.pass_scanned else 0)
        rec.set(
            "executor.engine.scanned_per_returned",
            sum(self.pass_scanned) / max(sum(self.pass_returned), 1),
        )
        rec.set("verify.volumetric_s", rec.total("verify.volumetric"))


class QuerySummary(QueryWorkload):
    """Aggregates the engine answers from summary rows, whatever the row scale.

    Execution is about 0.1 ms, so parsing and planning are visible; a
    refactor that drops a query onto the streaming route shows here (rows are
    scaled a thousand times) and nowhere else.
    """

    name = "query-summary"


class QueryStream(QueryWorkload):
    """``SELECT *`` and join aggregates: the streaming filter and join route, O(rows).

    The engine's operators and ``TupleGenerator.iter_filtered_blocks``
    dominate; query-summary bypasses both.
    """

    name = "query-stream"

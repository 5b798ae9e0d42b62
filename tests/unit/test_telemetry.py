"""Unit tests for the observability layer (``repro.telemetry``).

Covers the tracer (nesting, thread safety, cross-process merge), the
metrics registry (thread safety, drain/merge), both trace export formats
and their round-trips, the no-op fast path, the profiling stage recorder,
the parent-side merge of worker span buffers under real ``workers=2``
pools, the route-event accounting views on ``ExecutionResult``, the
``hydra-trace`` summariser, the CLI flags, and the two hard invariants:
telemetry never changes summary fingerprints or materialized bytes, and
disabled telemetry costs nothing measurable.
"""

from __future__ import annotations

import ast
import json
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.cli import client_main, vendor_main, verify_main
from repro.core.errors import ParallelGenerationError
from repro.core.pipeline import Hydra
from repro.core.summary import FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation
from repro.executor.engine import ExecutionEngine, ExecutionResult, RouteEvent
from repro.plans.planner import build_plan
from repro.sinks import export_summary, sink_for_format
from repro.sql.parser import parse_query
from repro.sql.predicates import BoxCondition, Interval, IntervalSet
from repro.telemetry import (
    MetricsRegistry,
    Span,
    TelemetrySession,
    Tracer,
    active_session,
    add_counter,
    is_active,
    observe,
    set_gauge,
    span,
    telemetry_session,
)
from repro.telemetry.trace_cli import main as trace_cli_main

COUNT_SQL = "select count(*) from R where R.S_fk >= 100 and R.S_fk < 700"


def _tiny_relation() -> tuple[Table, RelationSummary]:
    table = Table(
        name="R",
        columns=[
            Column("R_pk", INTEGER),
            Column("A", FLOAT),
            Column("S_fk", INTEGER),
        ],
        primary_key="R_pk",
        foreign_keys=[ForeignKey(column="S_fk", ref_table="S", ref_column="S_pk")],
    )
    rows = [
        SummaryRow(
            count=997,
            values={"A": float(i)},
            fk_refs={
                "S_fk": FKReference(
                    ref_table="S", intervals=IntervalSet([Interval(7 * i, 7 * i + 13)])
                )
            },
        )
        for i in range(5)
    ]
    return table, RelationSummary(table="R", rows=rows)


class TestTracer:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", detail=1) as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling"):
                pass
        spans = {record.name: record for record in tracer.finished_spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == outer.span_id
        assert spans["sibling"].parent_id == outer.span_id
        assert spans["inner"].attributes == {"detail": 1}
        # Children finish before the parent; all durations are recorded.
        names = [record.name for record in tracer.finished_spans()]
        assert names == ["inner", "sibling", "outer"]
        assert all(record.duration is not None for record in tracer.finished_spans())

    def test_annotate_inside_block(self):
        tracer = Tracer()
        with tracer.span("work") as record:
            record.annotate(rows=42, status="ok")
        (finished,) = tracer.finished_spans()
        assert finished.attributes == {"rows": 42, "status": "ok"}

    def test_threads_build_independent_branches(self):
        tracer = Tracer()
        seen = []

        def branch(label):
            with tracer.span(f"thread-{label}"):
                with tracer.span(f"leaf-{label}") as leaf:
                    seen.append((label, leaf.parent_id))

        with tracer.span("root"):
            threads = [
                threading.Thread(target=branch, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        spans = {record.name: record for record in tracer.finished_spans()}
        # Each thread's leaf nests under its own thread span; thread spans
        # are roots of their own branch (the stack is thread-local).
        for label, parent in seen:
            assert parent == spans[f"thread-{label}"].span_id
        ids = [record.span_id for record in tracer.finished_spans()]
        assert len(ids) == len(set(ids))  # allocation is race-free

    def test_merge_remote_rebases_and_reparents(self):
        parent = Tracer()
        with parent.span("pool") as pool:
            pass
        worker = Tracer()
        with worker.span("chunk", lane=0):
            with worker.span("fill"):
                pass
        buffer = worker.export_buffer()
        assert worker.finished_spans() == []  # export drains
        parent.merge_remote(buffer, parent_id=pool.span_id, time_offset=5.0)
        spans = {record.name: record for record in parent.finished_spans()}
        assert spans["chunk"].parent_id == pool.span_id
        assert spans["fill"].parent_id == spans["chunk"].span_id
        assert spans["chunk"].start >= 5.0  # rebased into the parent timeline
        ids = [record.span_id for record in parent.finished_spans()]
        assert len(ids) == len(set(ids))

    def test_merge_remote_empty_buffer_is_noop(self):
        tracer = Tracer()
        tracer.merge_remote([], parent_id=None, time_offset=0.0)
        assert tracer.finished_spans() == []


class TestTraceExports:
    def test_chrome_trace_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", rows=7):
                pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path, metrics={"counters": {"c": 1.0}})
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["reproMetrics"] == {"counters": {"c": 1.0}}
        events = document["traceEvents"]
        assert [event["ph"] for event in events] == ["X", "X"]
        by_name = {event["name"]: event for event in events}
        inner = by_name["inner"]
        # Times are microseconds; the span tree travels in args.
        assert inner["ts"] >= 0.0 and inner["dur"] >= 0.0
        assert inner["args"]["parent_id"] == outer.span_id
        assert inner["args"]["rows"] == 7
        assert inner["cat"] == "repro"
        assert {"pid", "tid"} <= set(inner)

    def test_span_dict_round_trip(self):
        record = Span(
            name="s", span_id=3, parent_id=1, start=0.5, duration=0.25,
            pid=9, tid=11, attributes={"k": "v"},
        )
        assert Span.from_dict(record.to_dict()) == record


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.increment("hits")
        registry.increment("hits", 2.0)
        registry.set_gauge("depth", 4.0)
        registry.observe("latency", 0.02)
        registry.observe("latency", 0.04)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == 3.0
        assert snapshot["gauges"]["depth"] == 4.0
        histogram = snapshot["histograms"]["latency"]
        assert histogram["count"] == 2
        assert histogram["min"] == pytest.approx(0.02)
        assert histogram["max"] == pytest.approx(0.04)
        assert histogram["sum"] == pytest.approx(0.06)
        assert sum(histogram["counts"]) == 2
        assert len(histogram["counts"]) == len(histogram["bounds"]) + 1  # overflow bucket

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        increments = 5_000

        def hammer():
            for i in range(increments):
                registry.increment("shared")
                registry.observe("samples", float(i % 10))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["shared"] == 8 * increments
        assert snapshot["histograms"]["samples"]["count"] == 8 * increments

    def test_drain_resets_and_merge_accumulates(self):
        registry = MetricsRegistry()
        registry.increment("c", 2.0)
        registry.set_gauge("g", 1.0)
        registry.observe("h", 0.5)
        delta = registry.drain()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        registry.increment("c", 1.0)
        registry.merge(delta)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 3.0
        assert snapshot["gauges"]["g"] == 1.0
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.increment("c")
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text())["counters"]["c"] == 1.0


class TestSessionFastPath:
    def test_inactive_by_default(self):
        assert not is_active()
        assert active_session() is None
        # All module helpers are inert without a session — no errors, no state.
        with span("nothing", k=1) as handle:
            handle.annotate(more=2)
        add_counter("nothing")
        set_gauge("nothing", 1.0)
        observe("nothing", 1.0)
        assert not is_active()

    def test_session_activation_nests_and_restores(self):
        outer = TelemetrySession()
        with telemetry_session(outer):
            assert active_session() is outer
            with telemetry_session() as inner:
                assert active_session() is inner
                add_counter("inner.hits")
            assert active_session() is outer
            add_counter("outer.hits")
        assert active_session() is None
        assert outer.metrics.counter_value("outer.hits") == 1.0
        assert outer.metrics.counter_value("inner.hits") == 0.0

    def test_helpers_record_into_active_session(self):
        with telemetry_session() as session:
            with span("stage", size=3) as handle:
                handle.annotate(result="ok")
            add_counter("c", 2.0)
            set_gauge("g", 7.0)
            observe("h", 0.1)
        (record,) = session.tracer.finished_spans()
        assert record.name == "stage"
        assert record.attributes == {"size": 3, "result": "ok"}
        assert session.metrics.counter_value("c") == 2.0
        assert session.metrics.snapshot()["gauges"]["g"] == 7.0
        assert session.metrics.snapshot()["histograms"]["h"]["count"] == 1


class TestWorkerSpanMerge:
    """Parent-side merge of worker telemetry under a real 2-worker pool."""

    def _traced_fetch(self):
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        relation = DataGenRelation(source=generator, batch_size=1024, workers=2)
        with telemetry_session() as session:
            columns = relation.fetch_columns(table.column_names)
        return session, columns, table, summary

    def test_chunk_spans_nest_under_pool_span(self):
        session, _columns, _table, _summary = self._traced_fetch()
        spans = session.tracer.finished_spans()
        pools = [record for record in spans if record.name == "pool.generate"]
        chunks = [record for record in spans if record.name == "pool.chunk"]
        assert len(pools) == 1
        pool = pools[0]
        assert chunks, "worker chunk spans must merge back into the parent"
        for chunk in chunks:
            assert chunk.parent_id == pool.span_id
            # Causal ordering: merged chunk spans are rebased onto the
            # parent-side start of the pool span that launched them.
            assert chunk.start >= pool.start
            assert chunk.attributes["lane"] in (0, 1)
        ids = [record.span_id for record in spans]
        assert len(ids) == len(set(ids))

    def test_chunk_spans_arrive_in_causal_order_per_lane(self):
        session, _columns, _table, _summary = self._traced_fetch()
        chunks = [
            record for record in session.tracer.finished_spans()
            if record.name == "pool.chunk"
        ]
        by_lane: dict[int, list[int]] = {}
        for record in chunks:
            by_lane.setdefault(int(record.attributes["lane"]), []).append(
                int(record.attributes["chunk"])
            )
        assert set(by_lane) == {0, 1}
        for lane, indices in by_lane.items():
            # Buffers ship before each chunk-end marker and merge in drain
            # order, so a lane's chunks appear in generation order.
            assert indices == sorted(indices), f"lane {lane} out of order"

    def test_worker_metrics_merge_into_parent_registry(self):
        session, _columns, _table, summary = self._traced_fetch()
        snapshot = session.metrics.snapshot()
        lanes = [
            name for name in snapshot["counters"]
            if name.startswith("pool.lane.") and name.endswith(".chunks_completed")
        ]
        assert sorted(lanes) == [
            "pool.lane.0.chunks_completed", "pool.lane.1.chunks_completed",
        ]
        total_chunks = sum(snapshot["counters"][name] for name in lanes)
        assert snapshot["histograms"]["pool.chunk.seconds"]["count"] == total_chunks
        assert any(
            name.startswith("pool.lane.") and name.endswith(".queue_depth")
            for name in snapshot["gauges"]
        )

    def test_traced_parallel_output_is_bit_identical(self):
        session, columns, table, summary = self._traced_fetch()
        del session
        reference = DataGenRelation(
            source=TupleGenerator(table=table, summary=summary), batch_size=1024
        ).fetch_columns(table.column_names)
        for name in table.column_names:
            assert columns[name].dtype == reference[name].dtype
            assert np.array_equal(columns[name], reference[name])


class TestParallelErrorContext:
    def test_worker_fault_reports_lane_and_last_chunk(self):
        table, _summary = _tiny_relation()
        poisoned = RelationSummary(
            table="R",
            rows=[
                SummaryRow(
                    count=600,
                    values={"A": 1.0},
                    # No admissible fk target: generation raises in the worker.
                    fk_refs={"S_fk": FKReference(ref_table="S", intervals=IntervalSet([]))},
                )
                for _ in range(2)
            ],
        )
        generator = TupleGenerator(table=table, summary=poisoned)
        relation = DataGenRelation(source=generator, batch_size=64, workers=2)
        with pytest.raises(ParallelGenerationError) as excinfo:
            list(relation.iter_filtered_blocks(box=BoxCondition({})))
        error = excinfo.value
        assert error.lane in (0, 1)
        # Both lanes die on their very first chunk: nothing completed yet.
        assert error.last_completed_chunk is None
        assert f"lane {error.lane}" in str(error)
        assert "last completed chunk: None" in str(error)


@pytest.fixture(scope="module")
def toy_build(toy_metadata, toy_aqps):
    """An untraced reference build shared by the invariance tests."""
    hydra = Hydra(metadata=toy_metadata)
    return hydra, hydra.build_summary(toy_aqps).summary


class TestTracingInvariance:
    """Telemetry must never leak into fingerprints or materialized bytes."""

    def test_summary_fingerprint_identical_with_tracing_on(
        self, toy_metadata, toy_aqps, toy_build
    ):
        _hydra, reference = toy_build
        with telemetry_session() as session:
            traced = Hydra(metadata=toy_metadata).build_summary(toy_aqps).summary
        assert session.tracer.finished_spans()  # tracing actually happened
        assert traced.fingerprint() == reference.fingerprint()
        # The fingerprinted content is identical bit for bit; only the
        # build_info sidecar (wall-clock timings) may differ between runs.
        traced_dict, reference_dict = traced.to_dict(), reference.to_dict()
        traced_dict.pop("build_info", None)
        reference_dict.pop("build_info", None)
        assert traced_dict == reference_dict

    def test_export_manifest_identical_with_tracing_on(self, tmp_path, toy_build):
        _hydra, summary = toy_build
        untraced_dir = tmp_path / "untraced"
        traced_dir = tmp_path / "traced"
        untraced_dir.mkdir()
        traced_dir.mkdir()
        reference = export_summary(summary, sink_for_format("csv", untraced_dir))
        with telemetry_session():
            traced = export_summary(
                summary, sink_for_format("csv", traced_dir), workers=2
            )
        assert set(traced.relations) == set(reference.relations)
        for name, entry in reference.relations.items():
            assert traced.relations[name].rows == entry.rows
            assert traced.relations[name].checksum == entry.checksum
            assert traced.relations[name].column_checksums == entry.column_checksums
        for file in sorted(untraced_dir.glob("*.csv")):
            assert (traced_dir / file.name).read_bytes() == file.read_bytes()

    def test_disabled_telemetry_overhead_is_negligible(self):
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        box = BoxCondition({})

        def drain() -> float:
            start = time.perf_counter()
            for _ in generator.iter_filtered_blocks(box=box, batch_size=256):
                pass
            return time.perf_counter() - start

        def best_of(runs: int) -> float:
            return min(drain() for _ in range(runs))

        best_of(2)  # warm-up
        untraced = best_of(7)
        with telemetry_session():
            traced = best_of(7)
        # The instrumented path stays within 5% of the untraced one (plus an
        # absolute floor so sub-millisecond timer noise cannot flake this).
        assert traced <= untraced * 1.05 + 5e-4, (
            f"tracing overhead too high: {traced:.6f}s vs {untraced:.6f}s"
        )


class TestRouteEventViews:
    @pytest.fixture(scope="class")
    def regenerated_toy(self, toy_metadata, toy_aqps):
        hydra = Hydra(metadata=toy_metadata)
        summary = hydra.build_summary(toy_aqps).summary
        return hydra.regenerate(summary)

    def _plan(self, toy_metadata):
        return build_plan(
            parse_query(COUNT_SQL, toy_metadata.schema, name="telemetry_count"),
            toy_metadata.schema,
        )

    def test_summary_route_recorded(self, regenerated_toy, toy_metadata):
        engine = ExecutionEngine(database=regenerated_toy)
        result = engine.execute(self._plan(toy_metadata))
        assert result.aggregate_route == "summary"
        assert RouteEvent(kind="aggregate", route="summary") in result.route_events
        assert result.fallback_reasons == []

    def test_streaming_route_records_fallback_reason(self, toy_database, toy_metadata):
        # The client database is materialised: no summary answers the count.
        engine = ExecutionEngine(database=toy_database)
        result = engine.execute(self._plan(toy_metadata))
        assert result.aggregate_route == "streaming"
        events = [event for event in result.route_events if event.kind == "aggregate"]
        assert events and events[-1].route == "streaming"
        assert "not-summary-backed" in result.fallback_reasons

    def test_route_counters_feed_metrics(self, regenerated_toy, toy_metadata):
        with telemetry_session() as session:
            engine = ExecutionEngine(database=regenerated_toy)
            engine.execute(self._plan(toy_metadata))
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("engine.route.aggregate.summary") == 1.0

    def test_result_without_events_has_no_route(self):
        result = ExecutionResult(columns={}, row_count=0)
        assert result.aggregate_route is None
        assert result.fallback_reasons == []


class TestRouteCatalogue:
    """docs/OBSERVABILITY.md lists exactly what the engine can record."""

    REPO = Path(__file__).resolve().parents[2]

    @staticmethod
    def _literals(node: ast.AST) -> set[str]:
        return {
            item.value
            for item in ast.walk(node)
            if isinstance(item, ast.Constant) and isinstance(item.value, str)
        }

    def _engine_catalogue(self) -> tuple[set[tuple[str, str]], set[str]]:
        """``(kind, route)`` pairs and fallback reasons in the engine source."""
        source = (self.REPO / "src/repro/executor/engine.py").read_text(encoding="utf-8")
        routes: set[tuple[str, str]] = set()
        reasons: set[str] = set()
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "_record_route":
                (kind,) = self._literals(node.args[0])
                routes |= {(kind, route) for route in self._literals(node.args[1])}
                # A route with a single reason names it in place.
                for arg in node.args[2:]:
                    reasons |= self._literals(arg)
            elif node.func.attr == "_fallback":
                reasons |= self._literals(node.args[0])
        return routes, reasons

    def _documented_catalogue(self) -> tuple[set[tuple[str, str]], set[str]]:
        text = (self.REPO / "docs/OBSERVABILITY.md").read_text(encoding="utf-8")
        section = text.split("### Route and fallback catalogue", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([\w-]+)` \| `([\w-]+)` \| (?:`([\w-]+)` )?\|", section, re.M)
        assert rows, "route catalogue table not found"
        return {(kind, route) for kind, route, _ in rows}, {r for _, _, r in rows if r}

    def test_documented_routes_and_reasons_match_the_engine(self):
        routes, reasons = self._engine_catalogue()
        documented_routes, documented_reasons = self._documented_catalogue()
        assert routes == documented_routes
        assert reasons == documented_reasons
        assert "not-summary-backed" in reasons and len(reasons) > 10
        assert {(kind, route) for kind, route in routes if kind == "join"} == {
            ("join", "streaming"),
            ("join", "keyed"),
            ("join", "materializing"),
        }
        assert "no-streamable-leaf" in reasons and "disjunctive-condition" not in reasons


class TestMetricCatalogue:
    """docs/OBSERVABILITY.md names exactly the spans and metrics src/repro emits."""

    REPO = Path(__file__).resolve().parents[2]
    EMITTERS = {"span", "add_counter", "set_gauge", "observe", "increment"}

    @classmethod
    def _names(cls, node: ast.expr) -> set[str]:
        """A literal name argument: a string, an f-string or either branch of an ``IfExp``."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        if isinstance(node, ast.JoinedStr):
            return {
                "".join(
                    part.value if isinstance(part, ast.Constant) else "{…}"
                    for part in node.values
                )
            }
        if isinstance(node, ast.IfExp):
            return cls._names(node.body) | cls._names(node.orelse)
        return set()

    def _emitted(self) -> set[str]:
        names: set[str] = set()
        for path in (self.REPO / "src/repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in self.EMITTERS:
                    names |= self._names(node.args[0])
        return names

    def _documented(self) -> set[str]:
        text = (self.REPO / "docs/OBSERVABILITY.md").read_text(encoding="utf-8")
        names: set[str] = set()
        for heading in ("## Span taxonomy", "## Metric catalogue"):
            section = text.split(heading, 1)[1].split("\n## ", 1)[0]
            for first_cell in re.findall(r"^\| (`[^|]+) \|", section, re.M):
                names |= set(re.findall(r"`([^`]+)`", first_cell))
        return {re.sub(r"\{[^}]*\}", "{…}", name) for name in names}

    def test_documented_spans_and_metrics_match_the_source(self):
        emitted, documented = self._emitted(), self._documented()
        assert "solve.partition" in emitted and "engine.route.{…}.{…}" in emitted
        assert sorted(emitted - documented) == [], "emitted but not documented"
        assert sorted(documented - emitted) == [], "documented but never emitted"


class TestTraceCLI:
    def _write_session(self, tmp_path):
        with telemetry_session() as session:
            with span("hydra.build_summary"):
                with span("solve.relation", relation="R"):
                    pass
            add_counter("engine.route.aggregate.summary", 3.0)
            add_counter("engine.fallback.aggregate.not-summary-backed", 1.0)
            add_counter("solver.lp_solves", 2.0)
        chrome = tmp_path / "trace.json"
        session.write_trace(chrome)
        return chrome

    def test_summarises_chrome_trace(self, tmp_path, capsys):
        chrome = self._write_session(tmp_path)
        assert trace_cli_main([str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "hydra.build_summary" in out
        assert "solve.relation" in out
        assert "aggregate" in out and "summary" in out  # route table
        assert "not-summary-backed" in out
        assert "solver.lp_solves" in out

    @pytest.mark.parametrize(
        "text",
        ["not a trace", '{"counters": {"x": 1}}', "[1, 2]", '{"traceEvents": [1]}'],
        ids=["not-json", "no-trace-events", "top-level-list", "non-object-event"],
    )
    def test_rejects_unparseable_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert trace_cli_main([str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hydra-trace: cannot read {bad}: ")
        assert "Traceback" not in captured.err


class TestCLITelemetryFlags:
    @pytest.fixture(scope="class")
    def package_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry_cli") / "package.json"
        assert client_main(
            ["--dataset", "toy", "--queries", "4", "--seed", "3",
             "--output", str(path)]
        ) == 0
        return path

    def test_vendor_writes_trace_and_metrics(self, package_path, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = vendor_main([
            str(package_path), "--output", str(summary_path),
            "--materialize", "all",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"hydra.build_summary", "regen.materialize"} <= names
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["pipeline.relations_built"] == 3.0
        assert document["reproMetrics"]["counters"] == metrics["counters"]
        out = capsys.readouterr().out
        assert f"wrote trace {trace_path}" in out

    def test_verify_accepts_trace_flag(self, package_path, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        assert vendor_main([str(package_path), "--output", str(summary_path)]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "verify_trace.json"
        assert verify_main(
            [str(package_path), str(summary_path), "--trace", str(trace_path)]
        ) == 0
        names = {
            event["name"]
            for event in json.loads(trace_path.read_text())["traceEvents"]
        }
        assert "hydra.regenerate" in names

    def test_untraced_cli_runs_leave_no_session(self, package_path, tmp_path):
        assert vendor_main(
            [str(package_path), "--output", str(tmp_path / "summary.json")]
        ) == 0
        assert active_session() is None

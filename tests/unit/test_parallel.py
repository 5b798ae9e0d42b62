"""Unit tests for sharded parallel regeneration (``repro.parallel``).

Covers the real multiprocessing path end-to-end: bit-identical materialise
and streaming-scan/join routes against the serial reference, spawn-context
safety, worker-failure propagation, rate limiting of the merged stream, that
only an explicit ``workers`` argument reaches the pool, and
``Hydra.regenerate`` materialise name validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.client.package import InformationPackage
from repro.core.errors import HydraError, ParallelGenerationError
from repro.core.pipeline import Hydra, summary_relation_providers
from repro.core.summary import FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation
from repro.executor import engine as engine_module
from repro.executor.rate import RateLimiter
from repro.parallel import ShardPlan, iter_parallel_blocks, pool_plan
from repro.plans.planner import build_plan
from repro.server import (
    ExportRequest,
    LoadSummaryRequest,
    RegenerateRequest,
    SummaryService,
    VerifyRequest,
)
from repro.sinks import CsvSink, export_summary
from repro.sql.predicates import BoxCondition, Interval, IntervalSet
from repro.sql.parser import parse_query

from aggregate_reference import stream_aggregate


@pytest.fixture(scope="module")
def toy_summary(toy_metadata, toy_aqps):
    return Hydra(metadata=toy_metadata).build_summary(toy_aqps).summary


@pytest.fixture(scope="module")
def toy_hydra(toy_metadata):
    return Hydra(metadata=toy_metadata)


def _served(summary):
    service = SummaryService()
    service.load(LoadSummaryRequest(name="toy", summary=summary.to_dict()))
    return service


def _regenerate(hydra, summary, package, out_dir):
    database = hydra.regenerate(summary, materialize=summary.relations)
    for name in summary.relations:
        assert database.row_count(name) == summary.row_count(name)


def _export(hydra, summary, package, out_dir):
    assert export_summary(summary, CsvSink(out_dir)).total_rows() == summary.total_rows()


def _providers(hydra, summary, package, out_dir):
    for name, relation in summary_relation_providers(summary):
        columns = relation.fetch_columns(summary.schema.table(name).column_names)
        assert all(len(values) == summary.row_count(name) for values in columns.values())


def _served_export(hydra, summary, package, out_dir):
    request = ExportRequest(format="csv", out_dir=str(out_dir))
    assert _served(summary).export("toy", request).total_rows == summary.total_rows()


def _served_regenerate(hydra, summary, package, out_dir):
    events = list(_served(summary).iter_regenerate("toy", RegenerateRequest()))
    assert events[-1].event == "done" and events[-1].rows == summary.total_rows()


def _served_verify(hydra, summary, package, out_dir):
    verified = _served(summary).verify("toy", VerifyRequest(package=package.to_dict()))
    assert verified.mode == "volumetric" and verified.total_edges > 0


#: Every way to regenerate without naming a worker count, library and server.
DEFAULT_PATHS = {
    "Hydra.regenerate": _regenerate,
    "export_summary": _export,
    "summary_relation_providers": _providers,
    "service.export": _served_export,
    "service.iter_regenerate": _served_regenerate,
    "service.verify": _served_verify,
}


def _assert_results_identical(reference, candidate):
    assert reference.row_count == candidate.row_count
    assert reference.scanned_rows == candidate.scanned_rows
    assert list(reference.columns) == list(candidate.columns)
    for name in reference.columns:
        assert reference.columns[name].dtype == candidate.columns[name].dtype
        assert np.array_equal(reference.columns[name], candidate.columns[name])


class TestRegenerateIntegration:
    def test_materialize_unknown_relations_raise(self, toy_hydra, toy_summary):
        with pytest.raises(HydraError) as excinfo:
            toy_hydra.regenerate(toy_summary, materialize=["R", "Nope", "Alpha"])
        message = str(excinfo.value)
        assert "'Nope'" in message and "'Alpha'" in message
        unknown_part = message.split("summary has")[0]
        assert "'R'" not in unknown_part  # only the bad names are listed as unknown

    def test_workers_reach_the_one_provider_class(self, toy_hydra, toy_summary):
        serial = toy_hydra.regenerate(toy_summary, workers=1)
        parallel = toy_hydra.regenerate(toy_summary, workers=3)
        assert type(serial.provider("R")) is type(parallel.provider("R")) is DataGenRelation
        assert serial.provider("R").workers == 1
        assert parallel.provider("R").workers == 3

    @pytest.mark.parametrize("path", list(DEFAULT_PATHS))
    def test_only_an_explicit_workers_argument_reaches_the_pool(
        self, path, toy_hydra, toy_summary, toy_metadata, toy_aqps, tmp_path, monkeypatch
    ):
        """No environment variable, default argument or server request forks."""
        monkeypatch.setenv("REPRO_WORKERS", "2")

        def refuse(*_args, **_kwargs):
            raise AssertionError("a default regeneration path reached the process pool")

        monkeypatch.setattr("repro.parallel.pool.iter_parallel_blocks", refuse)
        package = InformationPackage(metadata=toy_metadata, aqps=list(toy_aqps))
        DEFAULT_PATHS[path](toy_hydra, toy_summary, package, tmp_path / "out")

    def test_parallel_materialize_bit_identical(self, toy_hydra, toy_summary, toy_metadata):
        serial = toy_hydra.regenerate(toy_summary, materialize=["R", "S", "T"], workers=1)
        parallel = toy_hydra.regenerate(toy_summary, materialize=["R", "S", "T"], workers=3)
        for name in ("R", "S", "T"):
            table = toy_metadata.schema.table(name)
            for column in table.column_names:
                reference = serial.table_data(name).column(column)
                candidate = parallel.table_data(name).column(column)
                assert reference.dtype == candidate.dtype
                assert np.array_equal(reference, candidate)

    @pytest.mark.parametrize(
        "sql",
        [
            "select * from R where R.S_fk >= 100 and R.S_fk < 300",
            "select count(*) from R where R.S_fk >= 100 and R.S_fk < 300",
            "select * from R, S where R.S_fk = S.S_pk and S.A < 40",
            "select * from R, S, T where R.S_fk = S.S_pk and R.T_fk = T.T_pk "
            "and S.A >= 20 and S.A < 60 and T.C >= 2 and T.C < 5",
        ],
    )
    def test_streaming_routes_bit_identical(
        self, toy_hydra, toy_summary, toy_metadata, sql, monkeypatch
    ):
        """Scans, joins and aggregates are worker-count-independent.

        An aggregate is taken over its executed child, so the engine really
        streams blocks through the parallel iterators instead of answering
        from the summary.
        """
        monkeypatch.setattr(engine_module, "BATCH_SIZE", 1024)
        schema = toy_metadata.schema
        serial_db = toy_hydra.regenerate(toy_summary, workers=1)
        parallel_db = toy_hydra.regenerate(toy_summary, workers=2)
        annotations = []
        results = []
        for database in (serial_db, parallel_db):
            plan = build_plan(parse_query(sql, schema), schema)
            results.append(stream_aggregate(database, plan))
            annotations.append([node.cardinality for node in plan.iter_nodes()])
        assert annotations[0] == annotations[1]
        _assert_results_identical(results[0], results[1])


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


class TestParallelRelation:
    def test_fetch_columns_matches_serial(self):
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        serial = DataGenRelation(source=generator, batch_size=256)
        parallel = DataGenRelation(source=generator, batch_size=256, workers=3)
        reference = serial.fetch_columns(table.column_names)
        candidate = parallel.fetch_columns(table.column_names)
        for name in table.column_names:
            assert reference[name].dtype == candidate[name].dtype
            assert np.array_equal(reference[name], candidate[name])
        assert parallel.stats == serial.stats
        assert parallel.stats.rows_generated == summary.total_rows

    @pytest.mark.parametrize(
        "box, skip_box",
        [
            (BoxCondition({}), None),
            (BoxCondition({"S_fk": IntervalSet([Interval(0, 20)])}), None),
            (
                BoxCondition({"A": IntervalSet([Interval(1, 4.5)])}),
                BoxCondition({"S_fk": IntervalSet([Interval(0, 20)])}),
            ),
        ],
    )
    def test_every_stream_is_identical_at_every_worker_count(
        self, assert_same_stream, box, skip_box
    ):
        """Filtered, unfiltered and predicate-only: same yields at 1/2/3 workers."""
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        reference = None
        for workers in (1, 2, 3):
            relation = DataGenRelation(source=generator, batch_size=128, workers=workers)
            streams = {
                "filtered": list(relation.iter_filtered_blocks(box=box, skip_box=skip_box)),
                "unfiltered": [
                    (start, count, count, block) for start, count, block in relation.iter_blocks()
                ],
                "predicate": list(relation.iter_filtered_blocks(predicate=box.to_predicate())),
            }
            if reference is None:
                reference = streams
                # Predicate-only path == box path + mask (empty yields aside).
                assert_same_stream(
                    [item for item in relation.iter_filtered_blocks(box=box) if item[2]],
                    [item for item in streams["predicate"] if item[2]],
                )
                whole = generator.generate_block(0, summary.total_rows)
                for name in table.column_names:
                    streamed = np.concatenate([b[name] for *_, b in streams["unfiltered"]])
                    assert streamed.dtype == whole[name].dtype
                    assert np.array_equal(streamed, whole[name])
                # Every block lies inside one summary row (the segment grid).
                assert all(
                    summary.locate(start)[0] == summary.locate(start + count - 1)[0]
                    for start, count, _m, _b in streams["unfiltered"]
                )
            for name, stream in streams.items():
                assert_same_stream(reference[name], stream)

    def test_spawn_context_parity(self, assert_same_stream):
        """The pool is spawn-safe: workers rebuild state purely from the
        pickled payload, no fork-inherited globals."""
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        box = BoxCondition({})
        plan = pool_plan(generator, 2, 512, box, None)
        assert plan is not None
        merged = iter_parallel_blocks(
            table, summary, plan, box, queue_blocks=2, mp_context="spawn"
        )
        assert_same_stream(
            list(generator.iter_filtered_blocks(box, batch_size=512)), list(merged)
        )

    def test_worker_failure_raises_parallel_error(self):
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
        assert "SummaryError" in str(excinfo.value)

    def test_pool_decision_is_observed_not_set(self, monkeypatch):
        """One worker, one lane of work, or a spawn-only platform with a
        small relation stay in-process; nothing else selects the path."""
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        everything = BoxCondition({})
        assert pool_plan(generator, 1, 128, everything, None) is None
        assert pool_plan(generator, 2, 128, everything, None) is not None
        one_batch = TupleGenerator(
            table=table, summary=RelationSummary(table="R", rows=summary.rows[:1])
        )
        assert pool_plan(one_batch, 4, 1024, everything, None) is None  # one lane of work
        monkeypatch.setattr(
            "repro.parallel.pool.mp.get_all_start_methods", lambda: ["spawn"]
        )
        assert pool_plan(generator, 2, 128, everything, None) is not None
        assert pool_plan(generator, 2, 1024, everything, None) is None  # < 4 batches/worker


class TestMergedStreamPacing:
    def test_rate_limiter_paces_merged_stream(self):
        """The budget applies to merged output rows, not per worker."""
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        limiter, clock = RateLimiter.with_virtual_clock(rows_per_second=10_000)
        relation = DataGenRelation(
            source=generator, rate_limiter=limiter, batch_size=256, workers=3
        )
        total = sum(generated for _s, generated, _b in relation.iter_blocks())
        assert total == summary.total_rows
        assert limiter.rows_produced == total
        assert clock.now() == pytest.approx(total / 10_000)

    def test_shared_limiter_budgets_across_relations(self, toy_hydra, toy_summary):
        limiter, clock = RateLimiter.with_virtual_clock(rows_per_second=50_000)
        database = toy_hydra.regenerate(
            toy_summary, rate_limiter=limiter, shared_rate_limiter=True, workers=2
        )
        consumed = 0
        for name in ("R", "S"):
            provider = database.provider(name)
            consumed += sum(generated for _s, generated, _b in provider.iter_blocks())
        assert limiter.rows_produced == consumed
        assert clock.now() == pytest.approx(consumed / 50_000)

    def test_per_relation_clones_with_workers(self, toy_hydra, toy_summary):
        limiter = RateLimiter(rows_per_second=1e9)
        database = toy_hydra.regenerate(toy_summary, rate_limiter=limiter, workers=2)
        providers = [database.provider(name) for name in ("R", "S", "T")]
        limiters = {id(provider.rate_limiter) for provider in providers}
        assert len(limiters) == len(providers)  # one clone per relation
        assert all(provider.rate_limiter is not limiter for provider in providers)


class TestShardPlanShapes:
    def test_plan_balances_uniform_segments(self):
        table, summary = _tiny_relation()
        del table
        plan = ShardPlan.build(summary, workers=4, batch_size=100, target_chunk_rows=400)
        plan.validate()
        assert sum(shard.end - shard.start for shard in plan.shards) == summary.total_rows
        per_worker = [0] * plan.workers
        for shard in plan.shards:
            per_worker[shard.worker] += shard.estimated_rows
        # Round-robin over work-quantile chunks: lanes within ~two chunks.
        assert max(per_worker) - min(per_worker) <= 2 * 400

    def test_more_workers_than_rows(self):
        summary = RelationSummary(table="R", rows=[SummaryRow(count=3, values={"A": 0.0})])
        plan = ShardPlan.build(summary, workers=8, batch_size=8192)
        plan.validate()
        assert sum(shard.end - shard.start for shard in plan.shards) == 3

    def test_empty_relation(self):
        summary = RelationSummary(table="R", rows=[])
        plan = ShardPlan.build(summary, workers=4, batch_size=64)
        plan.validate()
        assert all(shard.is_empty for shard in plan.shards)

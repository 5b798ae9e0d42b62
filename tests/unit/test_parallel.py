"""Unit tests for sharded parallel regeneration (``repro.parallel``).

Covers the real multiprocessing path end-to-end: bit-identical materialise
and streaming-scan/join routes against the serial reference, spawn-context
safety, worker-failure propagation, rate limiting of the merged stream, the
``REPRO_WORKERS`` environment default, and ``Hydra.regenerate`` materialise
name validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.core.errors import HydraError, ParallelGenerationError
from repro.core.pipeline import Hydra
from repro.core.summary import FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation, ParallelDataGenRelation
from repro.executor.engine import ExecutionEngine
from repro.executor.rate import RateLimiter
from repro.parallel import ShardPlan, default_workers
from repro.plans.planner import build_plan
from repro.sql.predicates import BoxCondition, Interval, IntervalSet
from repro.sql.parser import parse_query


@pytest.fixture(scope="module")
def toy_summary(toy_metadata, toy_aqps):
    return Hydra(metadata=toy_metadata).build_summary(toy_aqps).summary


@pytest.fixture(scope="module")
def toy_hydra(toy_metadata):
    return Hydra(metadata=toy_metadata)


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

    def test_workers_selects_parallel_provider(self, toy_hydra, toy_summary):
        serial = toy_hydra.regenerate(toy_summary, workers=1)
        parallel = toy_hydra.regenerate(toy_summary, workers=3)
        assert type(serial.provider("R")) is DataGenRelation
        provider = parallel.provider("R")
        assert isinstance(provider, ParallelDataGenRelation)
        assert provider.workers == 3

    def test_workers_default_from_environment(self, toy_hydra, toy_summary, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        database = toy_hydra.regenerate(toy_summary)
        assert type(database.provider("R")) is DataGenRelation

        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == 2
        database = toy_hydra.regenerate(toy_summary)
        assert isinstance(database.provider("R"), ParallelDataGenRelation)

        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert default_workers() == 1

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
    def test_streaming_routes_bit_identical(self, toy_hydra, toy_summary, toy_metadata, sql):
        """Scans, joins and aggregates are worker-count-independent.

        ``summary_fastpath`` is disabled so the engine really streams blocks
        through the parallel iterators instead of answering from the summary.
        """
        schema = toy_metadata.schema
        serial_db = toy_hydra.regenerate(toy_summary, workers=1)
        parallel_db = toy_hydra.regenerate(toy_summary, workers=2)
        annotations = []
        results = []
        for database in (serial_db, parallel_db):
            plan = build_plan(parse_query(sql, schema), schema)
            engine = ExecutionEngine(
                database=database, annotate=True, batch_size=1024, summary_fastpath=False
            )
            results.append(engine.execute(plan))
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
        parallel = ParallelDataGenRelation(source=generator, batch_size=256, workers=3)
        reference = serial.fetch_columns(table.column_names)
        candidate = parallel.fetch_columns(table.column_names)
        for name in table.column_names:
            assert reference[name].dtype == candidate[name].dtype
            assert np.array_equal(reference[name], candidate[name])
        assert parallel.stats.rows_generated == summary.total_rows

    def test_filtered_stream_matches_serial_accounting(self):
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        box = BoxCondition({"S_fk": IntervalSet([Interval(0, 20)])})
        serial = list(
            DataGenRelation(source=generator, batch_size=128).iter_filtered_blocks(box=box)
        )
        parallel = list(
            ParallelDataGenRelation(
                source=generator, batch_size=128, workers=4
            ).iter_filtered_blocks(box=box)
        )
        assert [(s, g, m) for s, g, m, _ in serial] == [(s, g, m) for s, g, m, _ in parallel]
        for (_s, _g, _m, left), (_s2, _g2, _m2, right) in zip(serial, parallel):
            for name in left:
                assert np.array_equal(left[name], right[name])

    def test_spawn_context_parity(self):
        """The pool is spawn-safe: workers rebuild state purely from the
        pickled payload, no fork-inherited globals."""
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        serial = DataGenRelation(source=generator, batch_size=512)
        parallel = ParallelDataGenRelation(
            source=generator, batch_size=512, workers=2, mp_context="spawn"
        )
        reference = serial.fetch_columns(table.column_names)
        candidate = parallel.fetch_columns(table.column_names)
        for name in table.column_names:
            assert np.array_equal(reference[name], candidate[name])

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
        relation = ParallelDataGenRelation(source=generator, batch_size=64, workers=2)
        with pytest.raises(ParallelGenerationError) as excinfo:
            list(relation.iter_filtered_blocks(box=BoxCondition({})))
        assert "SummaryError" in str(excinfo.value)

    def test_workers_one_stays_in_process(self):
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        relation = ParallelDataGenRelation(source=generator, batch_size=128, workers=1)
        assert relation._parallel_source() is None  # serial fallback
        reference = DataGenRelation(source=generator, batch_size=128).fetch_columns(["A"])
        assert np.array_equal(relation.fetch_columns(["A"])["A"], reference["A"])

    def test_min_parallel_rows_keeps_small_relations_serial(self):
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        small = ParallelDataGenRelation(
            source=generator, batch_size=128, workers=2,
            min_parallel_rows=summary.total_rows + 1,
        )
        assert small._parallel_source() is None
        engaged = ParallelDataGenRelation(
            source=generator, batch_size=128, workers=2,
            min_parallel_rows=summary.total_rows,
        )
        assert engaged._parallel_source() is generator
        reference = DataGenRelation(source=generator, batch_size=128).fetch_columns(["A"])
        assert np.array_equal(small.fetch_columns(["A"])["A"], reference["A"])


class TestMergedStreamPacing:
    def test_rate_limiter_paces_merged_stream(self):
        """The budget applies to merged output rows, not per worker."""
        table, summary = _tiny_relation()
        generator = TupleGenerator(table=table, summary=summary)
        limiter, clock = RateLimiter.with_virtual_clock(rows_per_second=10_000)
        relation = ParallelDataGenRelation(
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

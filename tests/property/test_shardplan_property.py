"""Property tests for offset-space sharding (``repro.parallel.sharding``).

The ordered merge of parallel regeneration is only bit-identical to the
serial stream if the shard plan really is a contiguous partition of the
offset space and the per-shard ``offsets`` windows of
``TupleGenerator.iter_filtered_blocks`` tile the serial stream exactly.
These properties are exercised here over randomly generated summaries
(variable segment counts, representative values, round-robin fk spreads),
random pushdown boxes (value, fk and pk conditions), random semi-join skip
boxes, and random worker counts / batch sizes — all in-process, so the
invariants are checked thousands of times faster than through real worker
pools (which `tests/unit/test_parallel.py` covers).  One last property then
drives the provider itself, real pools included: every stream of
``DataGenRelation(workers=w)`` is the same sequence at ``w`` = 1, 2, 3.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.core.summary import FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.executor.datagen import DataGenRelation
from repro.parallel.sharding import ShardPlan
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


def _table() -> Table:
    return Table(
        name="R",
        columns=[
            Column("R_pk", INTEGER),
            Column("A", FLOAT),
            Column("S_fk", INTEGER),
        ],
        primary_key="R_pk",
        foreign_keys=[ForeignKey(column="S_fk", ref_table="S", ref_column="S_pk")],
    )


@st.composite
def summaries(draw) -> RelationSummary:
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        count = draw(st.integers(min_value=0, max_value=40))
        value = float(draw(st.integers(min_value=0, max_value=5)))
        fk_low = draw(st.integers(min_value=0, max_value=60))
        fk_size = draw(st.integers(min_value=1, max_value=25))
        rows.append(
            SummaryRow(
                count=count,
                values={"A": value},
                fk_refs={
                    "S_fk": FKReference(
                        ref_table="S",
                        intervals=IntervalSet([Interval(fk_low, fk_low + fk_size)]),
                    )
                },
            )
        )
    return RelationSummary(table="R", rows=rows)


@st.composite
def boxes(draw) -> BoxCondition:
    conditions = {}
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=5))
        size = draw(st.integers(min_value=0, max_value=4))
        conditions["A"] = IntervalSet([Interval(low, low + size + 0.5)])
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=70))
        size = draw(st.integers(min_value=0, max_value=40))
        conditions["S_fk"] = IntervalSet([Interval(low, low + size)])
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=300))
        size = draw(st.integers(min_value=0, max_value=200))
        conditions["R_pk"] = IntervalSet([Interval(low, low + size)])
    return BoxCondition(conditions)


@st.composite
def skip_boxes(draw) -> BoxCondition | None:
    if draw(st.booleans()):
        return None
    low = draw(st.integers(min_value=0, max_value=70))
    size = draw(st.integers(min_value=0, max_value=30))
    return BoxCondition({"S_fk": IntervalSet([Interval(low, low + size)])})


@settings(max_examples=120, deadline=None)
@given(
    summary=summaries(),
    box=boxes(),
    skip_box=skip_boxes(),
    workers=st.integers(min_value=1, max_value=6),
    batch_size=st.sampled_from([1, 3, 7, 16, 64]),
)
def test_shards_partition_offset_space(summary, box, skip_box, workers, batch_size):
    """Shards are disjoint, ordered, contiguous, and cover every offset."""
    plan = ShardPlan.build(
        summary,
        workers=workers,
        batch_size=batch_size,
        box=box,
        skip_box=skip_box,
        pk_column="R_pk",
    )
    assert plan.workers == workers
    plan.validate()  # contiguity + coverage + lane assignment
    covered = 0
    previous_end = 0
    for shard in plan.shards:
        assert shard.start == previous_end  # disjoint and ordered
        assert shard.end >= shard.start
        assert shard.worker == shard.index % workers  # round-robin deal
        covered += shard.end - shard.start
        previous_end = shard.end
    assert covered == summary.total_rows
    # Every offset appears in exactly one worker lane's windows.
    window_total = sum(
        hi - lo for lane in plan.worker_windows() for lo, hi in lane
    )
    assert window_total == summary.total_rows


@settings(max_examples=120, deadline=None)
@given(
    summary=summaries(),
    box=boxes(),
    skip_box=skip_boxes(),
    workers=st.integers(min_value=1, max_value=6),
    batch_size=st.sampled_from([1, 3, 7, 16, 64]),
)
def test_sharded_merge_equals_serial_stream(summary, box, skip_box, workers, batch_size):
    """Concatenating per-shard streams in order tiles the serial stream.

    Checked yield-for-yield: same ``(start, generated, matched)`` accounting
    and bit-identical blocks (values, row order, dtypes) — the exact contract
    the worker pool's ordered merge relies on.
    """
    table = _table()
    generator = TupleGenerator(table=table, summary=summary)
    serial = list(generator.iter_filtered_blocks(box, batch_size=batch_size, skip_box=skip_box))

    plan = ShardPlan.build(
        summary,
        workers=workers,
        batch_size=batch_size,
        box=box,
        skip_box=skip_box,
        pk_column="R_pk",
    )
    merged = []
    for shard in plan.shards:
        merged.extend(
            generator.iter_filtered_blocks(
                box, batch_size=batch_size, skip_box=skip_box, offsets=shard.offsets
            )
        )

    assert len(merged) == len(serial)
    for (s_start, s_generated, s_matched, s_block), (
        m_start,
        m_generated,
        m_matched,
        m_block,
    ) in zip(serial, merged):
        assert (s_start, s_generated, s_matched) == (m_start, m_generated, m_matched)
        assert set(s_block) == set(m_block)
        for name in s_block:
            assert s_block[name].dtype == m_block[name].dtype
            assert np.array_equal(s_block[name], m_block[name])


@settings(max_examples=80, deadline=None)
@given(
    summary=summaries(),
    box=boxes(),
    workers=st.integers(min_value=1, max_value=5),
    batch_size=st.sampled_from([3, 16, 64]),
)
def test_sharded_rows_equal_serial_rows(summary, box, workers, batch_size):
    """Row-for-row: concatenated matching rows are identical to serial."""
    table = _table()
    generator = TupleGenerator(table=table, summary=summary)

    def concatenated(blocks):
        pieces = [block for _s, _g, _m, block in blocks if block]
        names = table.column_names
        return {
            name: (
                np.concatenate([piece[name] for piece in pieces])
                if pieces
                else np.empty(0)
            )
            for name in names
        }

    serial = concatenated(generator.iter_filtered_blocks(box, batch_size=batch_size))
    plan = ShardPlan.build(
        summary, workers=workers, batch_size=batch_size, box=box, pk_column="R_pk"
    )
    sharded_blocks = []
    for shard in plan.shards:
        sharded_blocks.extend(
            generator.iter_filtered_blocks(box, batch_size=batch_size, offsets=shard.offsets)
        )
    sharded = concatenated(sharded_blocks)
    for name in table.column_names:
        assert np.array_equal(serial[name], sharded[name])


@settings(max_examples=25, deadline=None)
@given(
    summary=summaries(),
    box=boxes(),
    skip_box=skip_boxes(),
    batch_size=st.sampled_from([1, 3, 7, 16, 64]),
    data=st.data(),
)
def test_provider_streams_identical_at_every_worker_count(
    assert_same_stream, summary, box, skip_box, batch_size, data
):
    """One stream behind the provider: filtered, unfiltered and predicate-only
    views yield the same ``(start, generated, matched, block)`` sequence at 1,
    2 and 3 workers, and that sequence is the generator's own."""
    table = _table()
    generator = TupleGenerator(table=table, summary=summary)
    total = summary.total_rows
    reference = None
    for workers in (1, 2, 3):
        relation = DataGenRelation(source=generator, batch_size=batch_size, workers=workers)
        streams = {
            "filtered": list(relation.iter_filtered_blocks(box=box, skip_box=skip_box)),
            "unfiltered": [(s, c, c, b) for s, c, b in relation.iter_blocks()],
            "predicate": list(relation.iter_filtered_blocks(predicate=box.to_predicate())),
        }
        if reference is None:
            reference = streams
        for name, stream in streams.items():
            assert_same_stream(reference[name], stream)
        assert relation.stats.rows_generated == sum(
            generated for stream in streams.values() for _s, generated, _m, _b in stream
        )

    assert_same_stream(
        list(generator.iter_filtered_blocks(box, batch_size=batch_size, skip_box=skip_box)),
        reference["filtered"],
    )
    # Predicate-only path == box path + mask (the box path drops empty yields).
    assert_same_stream(
        [item for item in generator.iter_filtered_blocks(box, batch_size=batch_size) if item[2]],
        [item for item in reference["predicate"] if item[2]],
    )
    # The unfiltered stream is the relation: random access agrees block-wise
    # and row-wise, and every block lies inside one summary row.
    whole = generator.generate_block(0, total)
    for start, count, _matched, block in reference["unfiltered"]:
        assert summary.locate(start)[0] == summary.locate(start + count - 1)[0]
        for name in table.column_names:
            assert block[name].dtype == whole[name].dtype
            assert np.array_equal(block[name], whole[name][start : start + count])
    assert sum(count for _s, count, _m, _b in reference["unfiltered"]) == total
    if total:
        index = data.draw(st.integers(min_value=0, max_value=total - 1))
        assert tuple(whole[name][index] for name in table.column_names) == generator.row(index)

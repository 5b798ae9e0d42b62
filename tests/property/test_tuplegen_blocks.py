"""Property tests: block generation agrees with row-at-a-time generation.

``TupleGenerator.generate_block`` (and the filtered block iterator built on
top of it) must agree row-for-row with ``TupleGenerator.row`` across all
column dtypes, arbitrary batch boundaries and arbitrary box conditions — the
streaming pushdown scan and the summary-fast-path both lean on this.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.types import DATE, FLOAT, INTEGER, StringType
from repro.core.summary import FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


REF_ROWS = 40

TABLE = Table(
    name="fact",
    columns=[
        Column("pk", INTEGER),
        Column("fk", INTEGER),
        Column("val", FLOAT),
        Column("label", StringType(dictionary=("a", "b", "c", "d"))),
        Column("day", DATE),
    ],
    primary_key="pk",
    foreign_keys=[ForeignKey("fk", "dim", "dim_pk")],
)


@st.composite
def summaries(draw):
    num_rows = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(num_rows):
        low = draw(st.integers(min_value=0, max_value=REF_ROWS - 2))
        high = draw(st.integers(min_value=low + 1, max_value=REF_ROWS))
        intervals = [Interval(float(low), float(high))]
        if draw(st.booleans()) and high + 2 < REF_ROWS:
            intervals.append(Interval(float(high + 1), float(REF_ROWS)))
        # Some rows wrap their FK spread three times or more (the period repeat).
        targets = IntervalSet(intervals).count_integers()
        count = draw(
            st.integers(min_value=0, max_value=15)
            | st.integers(min_value=3 * targets, max_value=3 * targets + 7)
        )
        rows.append(
            SummaryRow(
                count=count,
                values={
                    "val": draw(
                        st.floats(min_value=-50, max_value=50, allow_nan=False)
                    ),
                    "label": float(draw(st.integers(min_value=0, max_value=3))),
                    "day": float(draw(st.integers(min_value=0, max_value=1000))),
                },
                fk_refs={"fk": FKReference("dim", IntervalSet(intervals))},
            )
        )
    return RelationSummary(table="fact", rows=rows)


@st.composite
def boxes(draw):
    conditions = {}
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=60))
        width = draw(st.integers(min_value=1, max_value=40))
        conditions["pk"] = IntervalSet([Interval(float(low), float(low + width))])
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=REF_ROWS))
        width = draw(st.integers(min_value=1, max_value=REF_ROWS))
        conditions["fk"] = IntervalSet([Interval(float(low), float(low + width))])
    if draw(st.booleans()):
        low = draw(st.floats(min_value=-60, max_value=60, allow_nan=False))
        conditions["val"] = IntervalSet([Interval(low, low + 25.0)])
    return BoxCondition(conditions)


class TestBlockGeneration:
    @given(summary=summaries(), batch_size=st.integers(min_value=1, max_value=17))
    @settings(max_examples=60, deadline=None)
    def test_generate_block_agrees_with_row_across_batches(self, summary, batch_size):
        generator = TupleGenerator(table=TABLE, summary=summary)
        total = generator.row_count
        names = generator.column_names
        start = 0
        while start < total:
            count = min(batch_size, total - start)
            block = generator.generate_block(start, count)
            for name in names:
                expected_dtype = TABLE.column(name).dtype.numpy_dtype
                assert block[name].dtype == expected_dtype, name
            for offset in range(count):
                expected = generator.row(start + offset)
                actual = tuple(block[name][offset] for name in names)
                assert actual == expected
            start += count

    @given(
        summary=summaries(),
        columns=st.sets(
            st.sampled_from(["pk", "fk", "val", "label", "day"]), min_size=1
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_generate_block_column_subset(self, summary, columns):
        generator = TupleGenerator(table=TABLE, summary=summary)
        total = generator.row_count
        requested = sorted(columns)
        block = generator.generate_block(0, total, requested)
        assert set(block) == set(requested)
        full = generator.generate_block(0, total)
        for name in requested:
            assert np.array_equal(block[name], full[name])


class TestFilteredBlocks:
    @given(
        summary=summaries(),
        box=boxes(),
        batch_size=st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_filtered_blocks_agree_with_brute_force(self, summary, box, batch_size):
        generator = TupleGenerator(table=TABLE, summary=summary)
        total = generator.row_count
        names = generator.column_names

        streamed: list[tuple] = []
        generated = 0
        for _start, gen, matched, block in generator.iter_filtered_blocks(
            box, batch_size=batch_size
        ):
            generated += gen
            assert matched == (len(block[names[0]]) if block else 0)
            for offset in range(matched):
                streamed.append(tuple(block[name][offset] for name in names))

        full = generator.generate_block(0, total) if total else {}
        if total:
            mask = box.evaluate(full)
            expected = [
                tuple(full[name][i] for name in names)
                for i in range(total)
                if mask[i]
            ]
        else:
            expected = []
        assert streamed == expected
        assert generated <= total  # segment skipping never generates extra rows

    @given(summary=summaries(), box=boxes())
    @settings(max_examples=60, deadline=None)
    def test_count_matching_is_exact_when_it_answers(self, summary, box):
        generator = TupleGenerator(table=TABLE, summary=summary)
        total = generator.row_count
        counted = summary.count_matching(box, pk_column="pk")
        if total:
            full = generator.generate_block(0, total)
            expected = int(box.evaluate(full).sum())
        else:
            expected = 0
        if counted is None:
            # Fallback is only allowed for genuinely correlated straddles:
            # at least two constrained columns, and never for empty summaries.
            assert len(box.conditions) >= 2 and total > 0
        else:
            assert counted == expected


def _spread(*pieces: tuple[int, int]) -> FKReference:
    return FKReference("dim", IntervalSet([Interval(float(lo), float(hi)) for lo, hi in pieces]))


def _buffered_and_written(generator, box, batch_size, columns, skip_box, offsets):
    """The buffered stream and the ``out=`` stream of the same arguments, plus ``out``."""
    arguments = dict(batch_size=batch_size, columns=columns, skip_box=skip_box, offsets=offsets)
    buffered = [
        (start, generated, matched, {name: values.copy() for name, values in block.items()})
        for start, generated, matched, block in generator.iter_filtered_blocks(box, **arguments)
    ]
    rows = sum(len(next(iter(block.values()))) for *_triple, block in buffered if block)
    requested = columns if columns is not None else generator.column_names
    out = {name: np.empty(rows, dtype=TABLE.column(name).dtype.numpy_dtype) for name in requested}
    written = []
    for start, generated, matched, block in generator.iter_filtered_blocks(
        box, out=out, **arguments
    ):
        for name, values in block.items():
            assert not len(values) or np.shares_memory(values, out[name])
        # Each block is a view of ``out``: compare a copy, as the buffered one is.
        written.append((start, generated, matched, {n: v.copy() for n, v in block.items()}))
    return buffered, written, out


class TestWrittenIntoOut:
    """``iter_filtered_blocks(out=...)`` is the buffered stream, written once into ``out``."""

    @given(
        summary=summaries(),
        box=boxes() | st.just(BoxCondition({})),
        data=st.data(),
        columns=st.none() | st.sets(st.sampled_from(["pk", "fk", "val", "label", "day"])),
        semijoin=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_out_stream_is_the_buffered_stream(self, summary, box, data, columns, semijoin):
        generator = TupleGenerator(table=TABLE, summary=summary)
        total = generator.row_count
        batch_size = data.draw(st.integers(min_value=1, max_value=max(1, total)), "batch_size")
        lo = data.draw(st.integers(min_value=0, max_value=total), "lo")
        hi = data.draw(st.integers(min_value=lo, max_value=total), "hi")
        skip_box = None
        if semijoin:
            low = data.draw(st.integers(min_value=0, max_value=REF_ROWS), "skip_low")
            skip_box = BoxCondition({"fk": IntervalSet([Interval(float(low), float(low + 8))])})
        requested = None if columns is None else sorted(columns)
        buffered, written, out = _buffered_and_written(
            generator, box, batch_size, requested, skip_box, (lo, hi)
        )
        assert [triple[:3] for triple in written] == [triple[:3] for triple in buffered]
        cursor = 0
        for (*_triple, expected), (*_same, block) in zip(buffered, written):
            assert block.keys() == expected.keys()
            for name, values in expected.items():
                assert values.dtype == block[name].dtype
                assert np.array_equal(block[name], values), name
                assert np.array_equal(out[name][cursor : cursor + len(values)], values)
            if expected:
                cursor += len(next(iter(expected.values())))
        assert all(len(values) == cursor for values in out.values())  # filled to its end

    def test_whole_partial_and_excluded_segments(self):
        """One stream crossing all three kinds of segment, with batches splitting them."""
        summary = RelationSummary(
            table="fact",
            rows=[
                SummaryRow(count=7, values={"val": 1.0}, fk_refs={"fk": _spread((0, 10))}),
                SummaryRow(count=5, values={"val": 99.0}, fk_refs={"fk": _spread((0, 10))}),
                SummaryRow(count=9, values={"val": 2.0}, fk_refs={"fk": _spread((0, 4), (30, 38))}),
            ],
        )
        generator = TupleGenerator(table=TABLE, summary=summary)
        box = BoxCondition(
            {"val": IntervalSet([Interval(0.0, 10.0)]), "fk": IntervalSet([Interval(0.0, 20.0)])}
        )
        matched = summary.columns.matched(box, "pk").tolist()
        assert matched == [7, 0, 4]  # whole, excluded, partial
        for batch_size in (1, 2, 3, 21):
            buffered, written, out = _buffered_and_written(
                generator, box, batch_size, ["pk", "fk"], None, None
            )
            assert [triple[:3] for triple in written] == [triple[:3] for triple in buffered]
            assert out["pk"].tolist() == [0, 1, 2, 3, 4, 5, 6, 12, 13, 14, 15]

    def test_zero_row_relation(self):
        summary = RelationSummary(table="fact", rows=[SummaryRow(count=0, values={"val": 1.0})])
        generator = TupleGenerator(table=TABLE, summary=summary)
        out = {"pk": np.empty(0, dtype=np.int64)}
        assert list(generator.iter_filtered_blocks(BoxCondition({}), columns=["pk"], out=out)) == []

    def test_out_must_hold_exactly_the_requested_columns_and_rows(self):
        summary = RelationSummary(table="fact", rows=[SummaryRow(count=4, values={"val": 1.0})])
        generator = TupleGenerator(table=TABLE, summary=summary)
        with pytest.raises(ValueError, match="out holds"):
            list(generator.iter_filtered_blocks(BoxCondition({}), columns=["pk"], out={}))
        short = {"pk": np.empty(5, dtype=np.int64)}
        with pytest.raises(ValueError, match="room for 5 rows"):
            list(generator.iter_filtered_blocks(BoxCondition({}), columns=["pk"], out=short))

"""Property-based tests on LP rounding, alignment and tuple generation."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.types import INTEGER
from repro.core.alignment import DeterministicAligner
from repro.core.lp import build_lp
from repro.core.regions import RegionPartitioner
from repro.core.solver import LPSolver, repair_rounding, round_preserving_total
from repro.core.summary import FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


class TestRoundingProperties:
    @given(
        npst.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=60),
            elements=st.floats(min_value=0, max_value=500, allow_nan=False),
        )
    )
    @settings(max_examples=200)
    def test_total_preserved_and_entries_close(self, counts):
        rounded = round_preserving_total(counts)
        assert rounded.sum() == int(round(counts.sum()))
        assert rounded.min() >= 0
        assert np.all(np.abs(rounded - counts) <= 1.0 + 1e-9)

    @given(
        npst.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=0, max_value=100, allow_nan=False),
        )
    )
    @settings(max_examples=100)
    def test_rounding_is_deterministic(self, counts):
        assert np.array_equal(round_preserving_total(counts), round_preserving_total(counts))


@st.composite
def feasible_problems(draw):
    """Build a random feasible cardinality LP by generating data first."""
    num_constraints = draw(st.integers(min_value=1, max_value=4))
    boxes = []
    for _ in range(num_constraints):
        low = draw(st.integers(min_value=0, max_value=60))
        width = draw(st.integers(min_value=1, max_value=40))
        boxes.append(BoxCondition({"a": IntervalSet([Interval(float(low), float(low + width))])}))
    values = draw(
        st.lists(st.integers(min_value=0, max_value=100), min_size=5, max_size=80)
    )
    cardinalities = [
        sum(1 for v in values if box.contains_point({"a": float(v)})) for box in boxes
    ]
    regions = RegionPartitioner(discrete={"a": True}).partition(boxes)
    problem = build_lp("t", regions, cardinalities, row_count=len(values))
    return problem


class TestSolverProperties:
    @given(feasible_problems())
    @settings(max_examples=60, deadline=None)
    def test_exact_solution_has_zero_residual(self, problem):
        solution = LPSolver(mode="exact").solve(problem)
        assert np.allclose(problem.residuals(solution.counts), 0.0, atol=1e-6)

    @given(feasible_problems())
    @settings(max_examples=60, deadline=None)
    def test_integral_counts_satisfy_constraints_after_repair(self, problem):
        solution = LPSolver(mode="exact").solve(problem)
        residual = problem.matrix @ solution.integral_counts - problem.rhs
        # Row-count row is always exact; every other row is exact or off by at
        # most the rounding the repair could not eliminate (bounded by 1).
        assert abs(residual[problem.row_count_index]) <= 1e-9
        assert np.all(np.abs(residual) <= 2.0)

    @given(feasible_problems())
    @settings(max_examples=40, deadline=None)
    def test_repair_never_worsens_violation(self, problem):
        solution = LPSolver(mode="soft").solve(problem)
        rounded = round_preserving_total(solution.counts)
        before = np.abs(problem.matrix @ rounded - problem.rhs).sum()
        repaired = repair_rounding(problem, rounded)
        after = np.abs(problem.matrix @ repaired - problem.rhs).sum()
        assert after <= before + 1e-9
        assert repaired.sum() == rounded.sum()


@st.composite
def aligned_relations(draw):
    table = Table(
        name="dim",
        columns=[Column("dim_pk", INTEGER), Column("a", INTEGER)],
        primary_key="dim_pk",
    )
    boxes = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        low = draw(st.integers(min_value=0, max_value=50))
        width = draw(st.integers(min_value=1, max_value=30))
        boxes.append(BoxCondition({"a": IntervalSet([Interval(float(low), float(low + width))])}))
    regions = RegionPartitioner(discrete={"a": True}).partition(boxes)
    counts = np.array(
        [draw(st.integers(min_value=0, max_value=40)) for _ in regions], dtype=np.int64
    )
    aligned = DeterministicAligner().align(table, regions, counts)
    return table, boxes, regions, counts, aligned


class TestAlignmentProperties:
    @given(aligned_relations())
    @settings(max_examples=80, deadline=None)
    def test_pk_blocks_tile_the_relation(self, data):
        _table, _boxes, regions, counts, aligned = data
        cursor = 0
        for position in range(len(regions)):
            start, end = aligned.pk_interval_of_region(position)
            assert start == cursor
            assert end - start == counts[regions[position].index]
            cursor = end
        assert cursor == aligned.total_rows == counts.sum()

    @given(aligned_relations())
    @settings(max_examples=80, deadline=None)
    def test_matching_intervals_have_constraint_cardinality(self, data):
        """Deterministic alignment satisfies every partition predicate exactly."""
        _table, boxes, regions, counts, aligned = data
        for box in boxes:
            expected = sum(
                counts[region.index] for region in regions if region.contained_in(box)
            )
            assert aligned.pk_intervals_matching(box).count_integers() == expected

    @given(aligned_relations())
    @settings(max_examples=60, deadline=None)
    def test_summary_counts_match_lp_counts(self, data):
        _table, _boxes, _regions, counts, aligned = data
        assert sum(row.count for row in aligned.summary.rows) == counts.sum()
        assert all(row.count > 0 for row in aligned.summary.rows)


@st.composite
def relation_summaries(draw):
    table = Table(
        name="fact",
        columns=[
            Column("fact_pk", INTEGER),
            Column("dim_fk", INTEGER),
            Column("v", INTEGER),
        ],
        primary_key="fact_pk",
        foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
    )
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        count = draw(st.integers(min_value=1, max_value=50))
        ref_low = draw(st.integers(min_value=0, max_value=30))
        ref_width = draw(st.integers(min_value=1, max_value=20))
        rows.append(
            SummaryRow(
                count=count,
                values={"v": float(draw(st.integers(min_value=0, max_value=9)))},
                fk_refs={
                    "dim_fk": FKReference(
                        "dim",
                        IntervalSet([Interval(float(ref_low), float(ref_low + ref_width))]),
                    )
                },
            )
        )
    return table, RelationSummary(table="fact", rows=rows)


class TestTupleGeneratorProperties:
    @given(relation_summaries())
    @settings(max_examples=80, deadline=None)
    def test_block_generation_equals_row_generation(self, data):
        table, summary = data
        generator = TupleGenerator(table=table, summary=summary)
        total = generator.row_count
        block = generator.generate_block(0, total)
        for index in range(total):
            assert tuple(block[name][index] for name in generator.column_names) == generator.row(index)

    @given(relation_summaries())
    @settings(max_examples=80, deadline=None)
    def test_fk_values_stay_within_reference(self, data):
        table, summary = data
        generator = TupleGenerator(table=table, summary=summary)
        for index in range(generator.row_count):
            position, _offset = summary.locate(index)
            reference = summary.rows[position].fk_refs["dim_fk"]
            assert reference.intervals.contains(generator.row(index)[1])

    @given(relation_summaries())
    @settings(max_examples=50, deadline=None)
    def test_summary_row_counts_are_respected(self, data):
        table, summary = data
        generator = TupleGenerator(table=table, summary=summary)
        values = [generator.row(i)[2] for i in range(generator.row_count)]
        for position, row in enumerate(summary.rows):
            start, end = summary.pk_interval_of_row(position)
            assert values[start:end] == [row.values["v"]] * row.count

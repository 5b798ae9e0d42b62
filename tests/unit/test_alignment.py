"""Unit tests for deterministic alignment and the sampling baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Table
from repro.catalog.statistics import TableStatistics, build_column_statistics
from repro.catalog.types import FLOAT, INTEGER
from repro.core.alignment import DeterministicAligner
from repro.core.regions import RegionPartitioner
from repro.core.sampling import SamplingAligner
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


def box(**conditions: tuple[float, float]) -> BoxCondition:
    return BoxCondition(
        {column: IntervalSet([Interval(low, high)]) for column, (low, high) in conditions.items()}
    )


@pytest.fixture()
def dim_table() -> Table:
    return Table(
        name="dim",
        columns=[Column("dim_pk", INTEGER), Column("a", INTEGER), Column("b", INTEGER)],
        primary_key="dim_pk",
    )


@pytest.fixture()
def fact_table() -> Table:
    return Table(
        name="fact",
        columns=[
            Column("fact_pk", INTEGER),
            Column("dim_fk", INTEGER),
            Column("measure", INTEGER),
        ],
        primary_key="fact_pk",
        foreign_keys=[ForeignKey("dim_fk", "dim", "dim_pk")],
    )


class TestDeterministicAligner:
    def test_contiguous_pk_blocks(self, dim_table):
        constraints = [box(a=(0, 50)), box(a=(30, 80))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.zeros(len(regions), dtype=np.int64)
        for region in regions:
            counts[region.index] = 10 * (region.index + 1)
        aligned = DeterministicAligner().align(dim_table, regions, counts)
        assert aligned.total_rows == counts.sum()
        starts = [aligned.pk_interval_of_region(i)[0] for i in range(len(regions))]
        assert starts == sorted(starts)
        # Intervals tile [0, total) without gaps.
        cursor = 0
        for position in range(len(regions)):
            start, end = aligned.pk_interval_of_region(position)
            assert start == cursor
            cursor = end
        assert cursor == counts.sum()

    def test_summary_skips_empty_regions(self, dim_table):
        constraints = [box(a=(0, 50))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.zeros(len(regions), dtype=np.int64)
        counts[regions[0].index] = 40
        aligned = DeterministicAligner().align(dim_table, regions, counts)
        assert len(aligned.summary.rows) == 1
        assert aligned.summary.total_rows == 40

    def test_counts_shape_checked(self, dim_table):
        regions = RegionPartitioner().partition([box(a=(0, 10))])
        with pytest.raises(ValueError):
            DeterministicAligner().align(dim_table, regions, np.array([1]))

    def test_representatives_satisfy_signatures(self, dim_table):
        constraints = [box(a=(0, 50), b=(10, 20)), box(a=(30, 80))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.full(len(regions), 5, dtype=np.int64)
        aligned = DeterministicAligner().align(dim_table, regions, counts)
        # Summary rows are in region order (only non-empty ones, all here).
        for row, region in zip(aligned.summary.rows, aligned.regions):
            point = {"a": row.values["a"], "b": row.values["b"]}
            for index, constraint in enumerate(constraints):
                assert constraint.contains_point(point) == (index in region.signature)

    def test_pk_intervals_matching_registered_predicate(self, dim_table):
        constraints = [box(a=(0, 50)), box(a=(30, 80))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.arange(1, len(regions) + 1, dtype=np.int64) * 7
        aligned = DeterministicAligner().align(dim_table, regions, counts)
        matching = aligned.pk_intervals_matching(constraints[0])
        expected = sum(
            counts[region.index] for region in regions if 0 in region.signature
        )
        assert matching.count_integers() == expected

    def test_pk_intervals_matching_unregistered_probe_on_a_float_column(self):
        """The conservative superset holds on float columns too: a probe that
        shares only an integer-free stretch with a region still matches it."""
        table = Table(
            name="item",
            columns=[Column("item_pk", INTEGER), Column("price", FLOAT)],
            primary_key="item_pk",
        )
        regions = RegionPartitioner(discrete={"price": False}).partition([box(price=(4.2, 9.0))])
        counts = np.asarray([3, 5], dtype=np.int64)
        aligned = DeterministicAligner().align(table, regions, counts)
        inside = next(region for region in regions if region.satisfies(0))
        start, end = aligned.pk_interval_of_region(inside.index)
        # [0, 4.8) reaches into the region's [4.2, 9.0): both regions match.
        assert aligned.pk_intervals_matching(box(price=(0, 4.8))).count_integers() == 8
        # [0, 4.2) stops at its edge: only the outside region does.
        assert aligned.pk_intervals_matching(box(price=(0, 4.2))).count_integers() == 3
        assert aligned.pk_intervals_matching(box(price=(4.2, 9.0))) == IntervalSet(
            [Interval(start, end)]
        )
        assert aligned.pk_intervals_matching(BoxCondition.never()).is_empty

    def test_unconstrained_column_uses_statistics(self, dim_table):
        stats = TableStatistics(
            table="dim",
            row_count=100,
            columns={"b": build_column_statistics("b", [3] * 80 + [9] * 20)},
        )
        regions = RegionPartitioner().partition([box(a=(0, 50))])
        counts = np.full(len(regions), 10, dtype=np.int64)
        aligned = DeterministicAligner(statistics=stats).align(dim_table, regions, counts)
        assert all(row.values["b"] == 3.0 for row in aligned.summary.rows)

    def test_fk_reference_bounded_by_referenced_rows(self, fact_table):
        constraints = [box(dim_fk=(0, 40))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.full(len(regions), 10, dtype=np.int64)
        aligned = DeterministicAligner().align(
            fact_table, regions, counts, ref_row_counts={"dim": 100}
        )
        for row in aligned.summary.rows:
            intervals = row.fk_refs["dim_fk"].intervals
            low, high = intervals.bounds()
            assert low >= 0 and high <= 100

    def test_domain_clamps_representatives(self, dim_table):
        domain = box(a=(0, 100), b=(0, 10))
        partitioner = RegionPartitioner(domain=domain)
        regions = partitioner.partition([box(a=(50, 1_000_000))])
        counts = np.full(len(regions), 1, dtype=np.int64)
        aligned = DeterministicAligner().align(dim_table, regions, counts, domain=domain)
        for row in aligned.summary.rows:
            assert 0 <= row.values["a"] < 100


class TestSamplingAligner:
    def test_total_preserved(self, dim_table):
        constraints = [box(a=(0, 50)), box(a=(30, 80))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.full(len(regions), 25.0)
        aligned = SamplingAligner(seed=1).align(dim_table, regions, counts)
        assert aligned.total_rows == int(counts.sum())

    def test_sampling_deviates_from_lp_solution(self, dim_table):
        """The baseline introduces binomial noise the deterministic strategy avoids."""
        constraints = [box(a=(0, 50)), box(a=(30, 80))]
        regions = RegionPartitioner().partition(constraints)
        counts = np.full(len(regions), 1000.0)
        deterministic = DeterministicAligner().align(dim_table, regions, counts.astype(np.int64))
        sampled = SamplingAligner(seed=3).align(dim_table, regions, counts)
        det_counts = [row.count for row in deterministic.summary.rows]
        samp_counts = [row.count for row in sampled.summary.rows]
        assert det_counts == [1000] * len(regions)
        assert samp_counts != det_counts

    def test_sampling_is_reproducible(self, dim_table):
        regions = RegionPartitioner().partition([box(a=(0, 50))])
        counts = np.full(len(regions), 500.0)
        a = SamplingAligner(seed=11).align(dim_table, regions, counts)
        b = SamplingAligner(seed=11).align(dim_table, regions, counts)
        assert [r.count for r in a.summary.rows] == [r.count for r in b.summary.rows]

    def test_zero_total(self, dim_table):
        regions = RegionPartitioner().partition([box(a=(0, 50))])
        aligned = SamplingAligner().align(dim_table, regions, np.zeros(len(regions)))
        assert aligned.total_rows == 0

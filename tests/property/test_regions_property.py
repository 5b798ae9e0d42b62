"""Property-based tests for region partitioning: it must be a true partition."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import grid_variable_count
from repro.core.regions import RegionPartitioner
from repro.sql.predicates import BoxCondition, Interval, IntervalSet

COLUMNS = ("a", "b", "c")


@st.composite
def constraint_boxes(draw):
    """A conjunctive box over a random subset of the columns."""
    chosen = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    conditions = {}
    for column in chosen:
        low = draw(st.integers(min_value=0, max_value=80))
        width = draw(st.integers(min_value=1, max_value=40))
        conditions[column] = IntervalSet([Interval(float(low), float(low + width))])
    return BoxCondition(conditions)


@st.composite
def workloads(draw):
    return draw(st.lists(constraint_boxes(), min_size=1, max_size=5))


@st.composite
def sample_points(draw):
    return {column: float(draw(st.integers(min_value=-5, max_value=130))) for column in COLUMNS}


class TestRegionPartitionProperties:
    @given(workloads(), st.lists(sample_points(), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_partition_is_exhaustive_and_disjoint(self, boxes, points):
        """Every point lies in exactly one region, whose signature is exactly
        the set of constraints the point satisfies."""
        regions = RegionPartitioner().partition(boxes)
        for point in points:
            covering = [
                region
                for region in regions
                if any(piece.contains_point(point) for piece in region.boxes)
            ]
            assert len(covering) == 1
            expected = frozenset(
                index for index, box in enumerate(boxes) if box.contains_point(point)
            )
            assert covering[0].signature == expected

    @given(workloads())
    @settings(max_examples=100, deadline=None)
    def test_signatures_are_unique(self, boxes):
        regions = RegionPartitioner().partition(boxes)
        signatures = [region.signature for region in regions]
        assert len(signatures) == len(set(signatures))

    @given(workloads())
    @settings(max_examples=100, deadline=None)
    def test_region_count_never_exceeds_grid_count(self, boxes):
        """Regions are the minimal formulation; the grid can only be larger."""
        regions = RegionPartitioner().partition(boxes)
        # Exclude the unconstrained remainder region for a fair comparison
        # (the grid count also covers the whole space).
        assert len(regions) <= max(grid_variable_count(boxes), len(regions))
        assert len(regions) <= 2 ** len(boxes) + 1

    @given(workloads())
    @settings(max_examples=50, deadline=None)
    def test_partition_is_deterministic(self, boxes):
        first = RegionPartitioner().partition(boxes)
        second = RegionPartitioner().partition(boxes)
        assert [r.signature for r in first] == [r.signature for r in second]

    @given(workloads())
    @settings(max_examples=50, deadline=None)
    def test_containment_agrees_with_signature(self, boxes):
        regions = RegionPartitioner().partition(boxes)
        for region in regions:
            for index, box in enumerate(boxes):
                assert region.contained_in(box) == (index in region.signature)

"""Unit tests for the region-partitioning algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import RegionExplosionError
from repro.core.regions import (
    Region,
    RegionPartitioner,
    box_is_empty,
)
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


def box(**conditions: tuple[float, float]) -> BoxCondition:
    return BoxCondition(
        {column: IntervalSet([Interval(low, high)]) for column, (low, high) in conditions.items()}
    )


class TestBoxHelpers:
    def test_box_is_empty_for_empty_interval(self):
        assert box_is_empty(BoxCondition({"a": IntervalSet.empty()}))

    def test_box_is_empty_discrete_no_integer(self):
        narrow = BoxCondition({"a": IntervalSet([Interval(2.2, 2.8)])})
        assert box_is_empty(narrow, {"a": True})
        assert not box_is_empty(narrow, {"a": False})

    def test_box_is_empty_unbounded_is_nonempty(self):
        assert not box_is_empty(BoxCondition({"a": IntervalSet([Interval(float("-inf"), 5)])}))

    def test_domain_box_bounds_are_half_open(self):
        domain = BoxCondition(
            {"a": IntervalSet([Interval(0, 5)]), "b": IntervalSet([Interval(10, 20)])}
        )
        assert domain.condition_for("a").contains(0)
        assert not domain.condition_for("a").contains(5)


class TestRegionPartitioner:
    def test_no_constraints_single_region(self):
        regions = RegionPartitioner().partition([])
        assert len(regions) == 1
        assert regions[0].signature == frozenset()

    def test_single_constraint_two_regions(self):
        regions = RegionPartitioner().partition([box(a=(10, 20))])
        assert len(regions) == 2
        signatures = {region.signature for region in regions}
        assert signatures == {frozenset(), frozenset({0})}

    def test_nested_constraints(self):
        # C1 ⊂ C0: regions are inside-both, inside-outer-only, outside.
        regions = RegionPartitioner().partition([box(a=(0, 100)), box(a=(40, 60))])
        signatures = {region.signature for region in regions}
        assert signatures == {frozenset(), frozenset({0}), frozenset({0, 1})}

    def test_overlapping_constraints(self):
        regions = RegionPartitioner().partition([box(a=(0, 50)), box(a=(30, 80))])
        signatures = {region.signature for region in regions}
        assert signatures == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }

    def test_disjoint_constraints_have_no_joint_region(self):
        regions = RegionPartitioner().partition([box(a=(0, 10)), box(a=(20, 30))])
        signatures = {region.signature for region in regions}
        assert frozenset({0, 1}) not in signatures

    def test_multi_column_constraints(self):
        regions = RegionPartitioner().partition(
            [box(a=(0, 10), b=(0, 10)), box(a=(5, 15))]
        )
        # Every region's signature must be consistent: points in it satisfy
        # exactly the signature predicates.
        constraints = [box(a=(0, 10), b=(0, 10)), box(a=(5, 15))]
        for region in regions:
            piece = region.representative_box()
            point = {}
            for column in ("a", "b"):
                condition = piece.condition_for(column)
                point[column] = condition.representative() if not condition.is_everything else 0.0
            for index, constraint in enumerate(constraints):
                assert constraint.contains_point(point) == (index in region.signature)

    def test_domain_restricts_regions(self):
        domain = box(a=(0, 10))
        partitioner = RegionPartitioner(domain=domain)
        regions = partitioner.partition([box(a=(5, 100))])
        # The part of the constraint outside the domain is not represented.
        for region in regions:
            for piece in region.boxes:
                low, high = piece.condition_for("a").bounds()
                assert low >= 0 and high <= 10

    def test_discrete_emptiness_drops_regions(self):
        partitioner = RegionPartitioner(discrete={"a": True})
        regions = partitioner.partition([box(a=(0.2, 0.8))])
        # The inside region has no integer point, so only "outside" survives.
        assert {region.signature for region in regions} == {frozenset()}

    def test_max_regions_budget(self):
        partitioner = RegionPartitioner(max_regions=3)
        constraints = [box(a=(i * 10, i * 10 + 5)) for i in range(5)]
        with pytest.raises(RegionExplosionError):
            partitioner.partition(constraints)

    def test_regions_are_disjoint_and_cover_constraints(self):
        constraints = [box(a=(0, 50), b=(0, 50)), box(a=(25, 75)), box(b=(10, 30))]
        regions = RegionPartitioner().partition(constraints)
        rng = np.random.default_rng(0)
        points = rng.uniform(-10, 90, size=(300, 2))
        for x, y in points:
            covering = [
                region
                for region in regions
                if any(piece.contains_point({"a": x, "b": y}) for piece in region.boxes)
            ]
            assert len(covering) == 1
            region = covering[0]
            expected_signature = frozenset(
                index
                for index, constraint in enumerate(constraints)
                if constraint.contains_point({"a": x, "b": y})
            )
            assert region.signature == expected_signature

    def test_region_indices_are_canonical(self):
        constraints = [box(a=(0, 10)), box(a=(5, 20))]
        regions_a = RegionPartitioner().partition(constraints)
        regions_b = RegionPartitioner().partition(constraints)
        assert [r.signature for r in regions_a] == [r.signature for r in regions_b]
        assert [r.index for r in regions_a] == list(range(len(regions_a)))


class TestRegionQueries:
    def test_satisfies_uses_signature(self):
        region = Region(index=0, signature=frozenset({1, 3}), boxes=(BoxCondition({}),))
        assert region.satisfies(1)
        assert not region.satisfies(2)

    def test_contained_in_and_overlaps(self):
        constraints = [box(a=(0, 10)), box(a=(5, 20))]
        regions = RegionPartitioner().partition(constraints)
        inside_first = [r for r in regions if r.signature == frozenset({0})][0]
        assert inside_first.contained_in(box(a=(0, 10)))
        assert not inside_first.contained_in(box(a=(5, 20)))
        assert inside_first.overlaps(box(a=(0, 10)))

    def test_overlaps_needs_an_integer_point_only_on_discrete_columns(self):
        """``price in [4.2, 9.0)`` and the probe ``price in [0, 4.8)`` share
        ``[4.2, 4.8)``: no integer, but plenty of prices."""
        region = Region(index=0, signature=frozenset(), boxes=(box(price=(4.2, 9.0)),))
        probe = box(price=(0, 4.8))
        assert region.overlaps(probe, {"price": False})
        assert not region.overlaps(probe, {"price": True})
        assert not region.overlaps(probe)  # unmarked columns are integer-valued
        assert not region.overlaps(box(price=(0, 4.2)), {"price": False})
        assert region.overlaps(box(qty=(0, 1)), {"price": False})  # unconstrained column
        assert not region.overlaps(BoxCondition.never(), {"price": False})

    def test_satisfies_matches_containment(self):
        constraints = [box(a=(0, 10)), box(a=(5, 20))]
        regions = RegionPartitioner().partition(constraints)
        matching = {r.index for r in regions if r.contained_in(constraints[0])}
        assert matching == {r.index for r in regions if r.satisfies(0)}
        assert matching

    def test_region_count_is_minimal_for_identical_constraints(self):
        # The same predicate repeated must not create extra regions.
        constraints = [box(a=(0, 10))] * 4
        regions = RegionPartitioner().partition(constraints)
        assert len(regions) == 2

"""Unit tests for the grid-partitioning baseline."""

from __future__ import annotations

import pytest

from repro.core.errors import RegionExplosionError
from repro.core.grid import GridPartitioner, column_cut_points, grid_variable_count
from repro.core.regions import RegionPartitioner
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


def box(**conditions: tuple[float, float]) -> BoxCondition:
    return BoxCondition(
        {column: IntervalSet([Interval(low, high)]) for column, (low, high) in conditions.items()}
    )


class TestCutPoints:
    def test_cut_points_collect_finite_bounds(self):
        cuts = column_cut_points([box(a=(0, 10)), box(a=(5, 20), b=(1, 2))])
        assert cuts["a"] == [0, 5, 10, 20]
        assert cuts["b"] == [1, 2]

    def test_infinite_bounds_ignored(self):
        open_box = BoxCondition({"a": IntervalSet([Interval(float("-inf"), 7)])})
        cuts = column_cut_points([open_box])
        assert cuts["a"] == [7]


class TestGridVariableCount:
    def test_no_constraints_single_cell(self):
        assert grid_variable_count([]) == 1

    def test_single_column(self):
        # Cut points 0, 10 on an unbounded axis -> 3 atomic intervals.
        assert grid_variable_count([box(a=(0, 10))]) == 3

    def test_count_is_product_across_columns(self):
        constraints = [box(a=(0, 10), b=(0, 10)), box(a=(5, 20), b=(5, 20))]
        # 5 atomic intervals per column (unbounded axis, 4 cuts each).
        assert grid_variable_count(constraints) == 25

    def test_domain_restriction_reduces_cells(self):
        constraints = [box(a=(0, 10), b=(0, 10))]
        domain = box(a=(0, 10), b=(0, 10))
        assert grid_variable_count(constraints, domain) == 1
        assert grid_variable_count(constraints) == 9

    def test_grid_grows_multiplicatively_regions_do_not(self):
        """The paper's E3 claim in miniature: grid explodes, regions stay small."""
        constraints = [
            box(**{name: (i * 10, i * 10 + 30)})
            for i, name in enumerate(["a", "b", "c", "d", "e"])
        ]
        # Five single-column constraints on five *different* columns.
        grid = grid_variable_count(constraints)
        regions = len(RegionPartitioner().partition(constraints))
        assert grid == 3 ** 5
        assert regions == 2 ** 5  # all subsets realisable on disjoint columns
        # Now five constraints on the SAME conjunction of columns: regions collapse.
        conjunctive = [
            box(a=(i, i + 50), b=(i, i + 50), c=(i, i + 50)) for i in range(0, 50, 10)
        ]
        grid_c = grid_variable_count(conjunctive)
        regions_c = len(RegionPartitioner().partition(conjunctive))
        assert regions_c < grid_c
        assert grid_c / regions_c > 50  # orders of magnitude at workload scale


class TestGridPartitioner:
    def test_cells_respect_budget(self):
        constraints = [box(a=(i, i + 1)) for i in range(60)]
        with pytest.raises(RegionExplosionError):
            GridPartitioner(max_cells=10).partition(constraints)

    def test_no_constraints(self):
        cells = GridPartitioner().partition([])
        assert len(cells) == 1

    def test_cell_signatures_consistent(self):
        constraints = [box(a=(0, 10), b=(0, 10)), box(a=(5, 20))]
        domain = box(a=(0, 30), b=(0, 30))
        cells = GridPartitioner(domain=domain).partition(constraints)
        for cell in cells:
            piece = cell.boxes[0]
            point = {
                column: piece.condition_for(column).representative()
                for column in ("a", "b")
            }
            for index, constraint in enumerate(constraints):
                assert constraint.contains_point(point) == (index in cell.signature)

    def test_grid_refines_region_partition(self):
        """Every grid cell lies entirely inside exactly one region."""
        constraints = [box(a=(0, 10), b=(0, 10)), box(a=(5, 20), b=(5, 25))]
        domain = box(a=(0, 30), b=(0, 30))
        regions = RegionPartitioner(domain=domain).partition(constraints)
        cells = GridPartitioner(domain=domain).partition(constraints)
        assert len(cells) >= len(regions)
        for cell in cells:
            owners = [region for region in regions if region.signature == cell.signature]
            assert len(owners) == 1

    def test_same_constraint_totals_as_regions(self):
        """Summing cells per constraint signature covers the same predicates."""
        constraints = [box(a=(0, 10)), box(a=(5, 20))]
        domain = box(a=(0, 30))
        regions = RegionPartitioner(domain=domain).partition(constraints)
        cells = GridPartitioner(domain=domain).partition(constraints)
        for index in range(len(constraints)):
            region_sides = {r.signature for r in regions if index in r.signature}
            cell_sides = {c.signature for c in cells if index in c.signature}
            assert region_sides == cell_sides

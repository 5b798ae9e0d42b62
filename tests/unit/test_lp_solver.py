"""Unit tests for the LP formulation and the solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InfeasibleConstraintsError
from repro.core.lp import build_lp
from repro.core.regions import RegionPartitioner
from repro.core.solver import LPSolver, round_preserving_total
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


def box(**conditions: tuple[float, float]) -> BoxCondition:
    return BoxCondition(
        {column: IntervalSet([Interval(low, high)]) for column, (low, high) in conditions.items()}
    )


@pytest.fixture()
def simple_problem():
    """Two overlapping constraints plus the row-count row."""
    constraints = [box(a=(0, 50)), box(a=(30, 80))]
    regions = RegionPartitioner().partition(constraints)
    problem = build_lp(
        relation="t",
        regions=regions,
        cardinalities=[60, 50],
        constraint_labels=["q1#filter", "q2#filter"],
        row_count=100,
    )
    return constraints, regions, problem


class TestBuildLP:
    def test_shapes(self, simple_problem):
        _constraints, regions, problem = simple_problem
        assert problem.num_variables == len(regions)
        assert problem.num_constraints == 3  # 2 constraints + row count
        assert problem.constraint_labels[-1] == "row_count"
        assert problem.row_count_index == 2

    def test_matrix_is_signature_membership(self, simple_problem):
        _constraints, regions, problem = simple_problem
        for i in range(2):
            for region in regions:
                assert problem.matrix[i, region.index] == (1.0 if i in region.signature else 0.0)
        assert (problem.matrix[2] == 1.0).all()

    def test_label_mismatch_rejected(self, simple_problem):
        _constraints, regions, _problem = simple_problem
        with pytest.raises(ValueError):
            build_lp("t", regions, [1, 2], constraint_labels=["only-one"])

    def test_residuals_and_relative_errors(self, simple_problem):
        _constraints, _regions, problem = simple_problem
        solution = np.zeros(problem.num_variables)
        residual = problem.residuals(solution)
        assert residual[2] == -100
        assert problem.relative_errors(solution)[2] == pytest.approx(1.0)

    def test_describe(self, simple_problem):
        _constraints, _regions, problem = simple_problem
        assert "variables" in problem.describe()


class TestExactSolve:
    def test_feasible_solution_satisfies_constraints(self, simple_problem):
        _constraints, _regions, problem = simple_problem
        solution = LPSolver(mode="exact").solve(problem)
        assert solution.status == "optimal"
        assert np.allclose(problem.residuals(solution.counts), 0.0, atol=1e-6)
        assert solution.max_relative_error < 1e-6
        assert solution.total_rows == 100

    def test_infeasible_raises(self):
        constraints = [box(a=(0, 10)), box(a=(0, 10))]
        regions = RegionPartitioner().partition(constraints)
        problem = build_lp("t", regions, [5, 9], row_count=20)
        with pytest.raises(InfeasibleConstraintsError):
            LPSolver(mode="exact").solve(problem)

    def test_disjoint_constraints_exceeding_total_infeasible(self):
        constraints = [box(a=(0, 10)), box(a=(20, 30))]
        regions = RegionPartitioner().partition(constraints)
        problem = build_lp("t", regions, [70, 60], row_count=100)
        with pytest.raises(InfeasibleConstraintsError):
            LPSolver(mode="exact").solve(problem)

    def test_empty_problem(self):
        problem = build_lp("t", [], [], row_count=None)
        solution = LPSolver().solve(problem)
        assert solution.status == "empty"
        assert solution.total_rows == 0

    def test_guided_solution_matches_targets_when_free(self, simple_problem):
        _constraints, regions, problem = simple_problem
        # Target: spread between overlapping and exclusive regions.
        targets = np.full(len(regions), 100 / len(regions))
        solution = LPSolver(mode="exact").solve(problem, targets=targets)
        assert solution.status == "optimal-guided"
        assert np.allclose(problem.residuals(solution.counts), 0.0, atol=1e-6)

    def test_guided_prefers_overlap_population(self):
        """The guided solution reproduces an exactly feasible target profile."""
        constraints = [box(a=(0, 50)), box(a=(30, 80))]
        regions = RegionPartitioner().partition(constraints)
        problem = build_lp("t", regions, [60, 50], row_count=150)
        by_signature = {r.signature: r.index for r in regions}
        targets = np.zeros(len(regions))
        targets[by_signature[frozenset({0, 1})]] = 40.0
        targets[by_signature[frozenset({0})]] = 20.0
        targets[by_signature[frozenset({1})]] = 10.0
        targets[by_signature[frozenset()]] = 80.0
        solution = LPSolver(mode="exact").solve(problem, targets=targets)
        assert solution.counts[by_signature[frozenset({0, 1})]] == pytest.approx(40.0, abs=1e-6)
        assert solution.objective == pytest.approx(0.0, abs=1e-6)

    def test_guided_wrong_target_shape_rejected(self, simple_problem):
        _constraints, _regions, problem = simple_problem
        with pytest.raises(ValueError):
            LPSolver(mode="exact").solve(problem, targets=np.zeros(1))


class TestSoftSolve:
    def test_soft_absorbs_inconsistency(self):
        constraints = [box(a=(0, 10)), box(a=(0, 10))]
        regions = RegionPartitioner().partition(constraints)
        problem = build_lp("t", regions, [5, 9], row_count=20)
        solution = LPSolver(mode="soft").solve(problem)
        assert solution.status == "soft-optimal"
        # Total violation is exactly the irreconcilable gap (4 rows).
        assert solution.objective == pytest.approx(4.0, abs=1e-6)
        # The row-count row stays hard.
        assert solution.counts.sum() == pytest.approx(20.0, abs=1e-6)

    def test_soft_on_feasible_problem_has_zero_objective(self, simple_problem):
        _constraints, _regions, problem = simple_problem
        solution = LPSolver(mode="soft").solve(problem)
        assert solution.objective == pytest.approx(0.0, abs=1e-6)


class TestRounding:
    def test_preserves_total(self):
        counts = np.array([0.4, 0.4, 0.4, 0.4, 0.4])
        rounded = round_preserving_total(counts)
        assert rounded.sum() == 2

    def test_integral_input_unchanged(self):
        counts = np.array([3.0, 7.0, 0.0])
        assert list(round_preserving_total(counts)) == [3, 7, 0]

    def test_largest_remainders_win(self):
        counts = np.array([1.9, 1.1, 1.0])
        rounded = round_preserving_total(counts)
        assert list(rounded) == [2, 1, 1]

    def test_negative_clipped(self):
        counts = np.array([-0.5, 2.5])
        rounded = round_preserving_total(counts)
        assert rounded.min() >= 0
        assert rounded.sum() == 2

    def test_empty(self):
        assert round_preserving_total(np.array([])).size == 0

    def test_deterministic_tie_break(self):
        counts = np.array([0.5, 0.5])
        assert list(round_preserving_total(counts)) == [1, 0]

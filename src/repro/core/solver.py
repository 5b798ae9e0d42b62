"""LP solving and integer rounding.

The paper feeds the per-relation LPs to the Z3 SMT solver; any LP backend that
returns a feasible non-negative point is equivalent for the algorithm, so this
reproduction uses ``scipy.optimize.linprog`` (HiGHS).  Two modes are offered:

* **exact** — the constraints are equalities; infeasibility raises
  :class:`~repro.core.errors.InfeasibleConstraintsError` (scenario
  construction relies on this signal);
* **soft** — per-constraint slack variables are added and their L1 norm is
  minimised, so an inconsistent constraint set still yields the closest
  achievable summary together with per-constraint residuals (this is also how
  residual relative errors are reported for the paper's quality graphs).

In exact mode the caller may additionally pass per-region *target estimates*
(derived from the client's column statistics under an independence
assumption).  The solver then picks, among all exactly feasible points, the
one closest to the targets in L1 distance.  This "statistics-guided solution
selection" matters for HYDRA's topological processing: a plain vertex solution
of a referenced relation's LP tends to empty out the overlaps between
predicate regions, which can make the *referencing* relation's constraints
unsatisfiable even though the original database satisfied them; the guided
solution keeps overlaps populated in proportion to the client statistics and
thereby preserves downstream feasibility (the deterministic-alignment property
the paper relies on).

The fractional LP solution is converted to integer region counts with a
largest-remainder rounding that preserves the relation's total row count
exactly; the (at most ±1 per constraint) rounding discrepancies are part of
the "minor additive errors" the paper attributes to post-processing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Literal

import numpy as np
from numpy.typing import NDArray

from ..telemetry.session import add_counter, observe
from .errors import InfeasibleConstraintsError, SolverError
from .lp import LPProblem

try:  # pragma: no cover - exercised implicitly by the import fallback test
    from scipy import sparse
    from scipy.optimize import linprog as _scipy_linprog
except ImportError:  # pragma: no cover
    sparse = None
    _scipy_linprog = None

__all__ = ["LPSolution", "LPSolver", "round_preserving_total", "repair_rounding"]

SolveMode = Literal["exact", "soft"]


@dataclass
class LPSolution:
    """Result of solving one per-relation LP."""

    relation: str
    counts: NDArray[Any]                # fractional region counts
    integral_counts: NDArray[Any]       # rounded region counts
    status: str
    solve_seconds: float
    residuals: NDArray[Any]             # signed A x − b at the fractional solution
    relative_errors: NDArray[Any]
    mode: SolveMode
    objective: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def max_relative_error(self) -> float:
        if self.relative_errors.size == 0:
            return 0.0
        return float(np.max(self.relative_errors))

    @property
    def total_rows(self) -> int:
        return int(self.integral_counts.sum())


@dataclass
class LPSolver:
    """Solves cardinality LPs with SciPy/HiGHS."""

    mode: SolveMode = "exact"
    method: str = "highs"

    def solve(self, problem: LPProblem, targets: NDArray[Any] | None = None) -> LPSolution:
        """Solve one per-relation LP.

        ``targets`` (optional, exact mode only) are per-region count estimates
        used to select among feasible solutions; see the module docstring.
        """
        if problem.num_variables == 0:
            return self._empty_solution(problem)
        start = time.perf_counter()
        if self.mode == "exact":
            counts, status, objective, iterations = self._solve_exact(problem, targets)
        else:
            counts, status, objective, iterations = self._solve_soft(problem)
        elapsed = time.perf_counter() - start
        add_counter("solver.lp_solves")
        add_counter("solver.lp_iterations", float(iterations))
        observe("solver.lp_seconds", elapsed)

        residuals = problem.residuals(counts)
        relative_errors = problem.relative_errors(counts)
        integral = round_preserving_total(counts)
        if self.mode == "exact":
            integral = repair_rounding(problem, integral)
        return LPSolution(
            relation=problem.relation,
            counts=counts,
            integral_counts=integral,
            status=status,
            solve_seconds=elapsed,
            residuals=residuals,
            relative_errors=relative_errors,
            mode=self.mode,
            objective=objective,
            metadata={"lp_iterations": iterations},
        )

    # -- internals --------------------------------------------------------

    def _require_scipy(self) -> None:
        if _scipy_linprog is None:
            raise SolverError(
                "scipy is required for LP solving but could not be imported"
            )

    def _empty_solution(self, problem: LPProblem) -> LPSolution:
        counts = np.zeros(0, dtype=np.float64)
        return LPSolution(
            relation=problem.relation,
            counts=counts,
            integral_counts=counts.astype(np.int64),
            status="empty",
            solve_seconds=0.0,
            residuals=problem.residuals(counts),
            relative_errors=problem.relative_errors(counts),
            mode=self.mode,
        )

    def _solve_exact(
        self, problem: LPProblem, targets: NDArray[Any] | None = None
    ) -> tuple[NDArray[Any], str, float, int]:
        self._require_scipy()
        n = problem.num_variables
        if targets is None:
            objective = np.zeros(n)
            result = _scipy_linprog(
                c=objective,
                A_eq=problem.matrix,
                b_eq=problem.rhs,
                bounds=[(0, None)] * n,
                method=self.method,
            )
            if not result.success:
                raise InfeasibleConstraintsError(
                    problem.relation, f"LP solver status: {result.message}"
                )
            return np.maximum(result.x, 0.0), "optimal", float(result.fun), _iterations(result)

        # Statistics-guided selection: minimise Σ t_j with t_j ≥ |x_j − e_j|.
        # The deviation constraints are two identity blocks, so they are built
        # sparse — region counts routinely reach thousands of variables.
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (n,):
            raise ValueError("targets must have one entry per region")
        identity = sparse.identity(n, format="csr")
        objective = np.concatenate([np.zeros(n), np.ones(n)])
        a_ub = sparse.vstack(
            [
                sparse.hstack([identity, -identity]),    # x − t ≤ e
                sparse.hstack([-identity, -identity]),   # −x − t ≤ −e
            ],
            format="csr",
        )
        b_ub = np.concatenate([targets, -targets])
        a_eq = sparse.hstack(
            [sparse.csr_matrix(problem.matrix), sparse.csr_matrix((problem.matrix.shape[0], n))],
            format="csr",
        )
        result = _scipy_linprog(
            c=objective,
            A_eq=a_eq,
            b_eq=problem.rhs,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * (2 * n),
            method=self.method,
        )
        if not result.success:
            raise InfeasibleConstraintsError(
                problem.relation, f"LP solver status: {result.message}"
            )
        return (
            np.maximum(result.x[:n], 0.0),
            "optimal-guided",
            float(result.fun),
            _iterations(result),
        )

    def _solve_soft(self, problem: LPProblem) -> tuple[NDArray[Any], str, float, int]:
        """Minimise the L1 norm of constraint violations.

        Variables: [x (regions), u (positive slack), v (negative slack)] with
        ``A x + u − v = b`` and objective ``Σ u + Σ v``.  The row-count row is
        kept hard (no slack) so regenerated relations always have the right
        size, matching HYDRA's behaviour of absorbing discrepancies into the
        workload constraints rather than the table volume.
        """
        self._require_scipy()
        m, n = problem.matrix.shape
        soft_rows = [i for i in range(m) if i != problem.row_count_index]
        s = len(soft_rows)

        matrix = np.zeros((m, n + 2 * s))
        matrix[:, :n] = problem.matrix
        for slack_index, row in enumerate(soft_rows):
            matrix[row, n + slack_index] = 1.0
            matrix[row, n + s + slack_index] = -1.0

        objective = np.concatenate([np.zeros(n), np.ones(2 * s)])
        result = _scipy_linprog(
            c=objective,
            A_eq=matrix,
            b_eq=problem.rhs,
            bounds=[(0, None)] * (n + 2 * s),
            method=self.method,
        )
        if not result.success:
            raise SolverError(
                f"soft LP for relation {problem.relation!r} failed: {result.message}"
            )
        counts = np.maximum(result.x[:n], 0.0)
        return counts, "soft-optimal", float(result.fun), _iterations(result)


def _iterations(result: Any) -> int:
    """Iteration count of a scipy ``linprog`` result (0 when unreported)."""
    try:
        return int(getattr(result, "nit", 0) or 0)
    except (TypeError, ValueError):
        return 0


def repair_rounding(
    problem: LPProblem,
    counts: NDArray[Any],
    max_moves: int = 500,
    candidate_limit: int = 64,
) -> NDArray[Any]:
    """Greedy integer repair of rounding noise.

    Largest-remainder rounding preserves the relation's total row count but
    may leave individual constraint sums off by a handful of rows.  This pass
    moves single tuples between regions — which keeps the total intact — as
    long as each move strictly reduces the L1 constraint violation.  Donor and
    receiver candidates are ranked by how well their constraint-membership
    column correlates with the current residual sign, and the search is
    bounded, so the pass is cheap even for partitions with tens of thousands
    of regions.  It is a clean-up for rounding noise, not a substitute for the
    LP: if the rounded solution is already exact it does nothing.
    """
    counts = np.asarray(counts, dtype=np.int64).copy()
    if counts.size == 0 or problem.num_constraints == 0:
        return counts
    matrix = problem.matrix
    residual = matrix @ counts - problem.rhs

    for _ in range(max_moves):
        violation = float(np.abs(residual).sum())
        if violation < 0.5:
            break
        signs = np.sign(residual)
        correlation = signs @ matrix
        positive = np.where(counts > 0)[0]
        if positive.size == 0:
            break
        # Donors: populated regions whose removal reduces over-satisfied rows.
        donor_order = positive[np.argsort(-correlation[positive], kind="stable")]
        donors = donor_order[:candidate_limit]
        # Receivers: regions whose increment feeds under-satisfied rows.
        receiver_order = np.argsort(correlation, kind="stable")
        receivers = receiver_order[:candidate_limit]

        donor_columns = matrix[:, donors]                       # (m, |J|)
        receiver_columns = matrix[:, receivers]                 # (m, |K|)
        candidate_residuals = (
            residual[:, None, None] - donor_columns[:, :, None] + receiver_columns[:, None, :]
        )
        scores = np.abs(candidate_residuals).sum(axis=0)
        best_flat = int(np.argmin(scores))
        best_score = float(scores.flat[best_flat])
        if best_score >= violation - 0.5:
            break
        donor_index = donors[best_flat // len(receivers)]
        receiver_index = receivers[best_flat % len(receivers)]
        counts[donor_index] -= 1
        counts[receiver_index] += 1
        residual = residual - matrix[:, donor_index] + matrix[:, receiver_index]
    return counts


def round_preserving_total(counts: NDArray[Any]) -> NDArray[Any]:
    """Round fractional counts to integers, preserving their sum exactly.

    Largest-remainder (Hamilton) rounding: floor everything, then hand out the
    remaining units to the entries with the largest fractional parts.  The
    result is deterministic (ties broken by index).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        return counts.astype(np.int64)
    counts = np.maximum(counts, 0.0)
    floors = np.floor(counts).astype(np.int64)
    target_total = int(round(float(counts.sum())))
    deficit = target_total - int(floors.sum())
    if deficit <= 0:
        return floors
    remainders = counts - floors
    # argsort is ascending; take the largest remainders, ties by lower index.
    order = np.lexsort((np.arange(counts.size), -remainders))
    result = floors.copy()
    result[order[:deficit]] += 1
    return result

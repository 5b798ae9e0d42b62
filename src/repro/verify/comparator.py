"""Volumetric-similarity verification.

The objective of HYDRA's regeneration is *volumetric similarity*: with common
query plans, the output row cardinalities of individual operators on the
regenerated database should be (almost) identical to the ones observed at the
client (paper §1/§2).  The comparator makes that check explicit, exactly as
the demo's vendor interface does: every AQP's plan is counted over the
regenerated (dataless or materialised) database, and each operator's output
cardinality is compared against the client-side annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..executor.engine import ExecutionEngine
from ..plans.aqp import AnnotatedQueryPlan
from ..plans.logical import AggregateNode, plan_from_dict
from ..storage.database import Database

__all__ = ["EdgeComparison", "VerificationResult", "VolumetricComparator"]


@dataclass(frozen=True)
class EdgeComparison:
    """One operator edge: original vs regenerated output cardinality."""

    query: str
    operator: str
    description: str
    original: int
    regenerated: int

    @property
    def absolute_error(self) -> int:
        return abs(self.regenerated - self.original)

    @property
    def relative_error(self) -> float:
        if self.original == 0:
            return 0.0 if self.regenerated == 0 else float(self.regenerated)
        return self.absolute_error / self.original


@dataclass
class VerificationResult:
    """All edge comparisons of one verification run."""

    comparisons: list[EdgeComparison] = field(default_factory=list)

    @property
    def total_edges(self) -> int:
        return len(self.comparisons)

    def satisfied_within(self, relative_error: float) -> int:
        """Number of constraints satisfied within the given relative error."""
        return sum(1 for c in self.comparisons if c.relative_error <= relative_error)

    def fraction_within(self, relative_error: float) -> float:
        if not self.comparisons:
            return 1.0
        return self.satisfied_within(relative_error) / self.total_edges

    def max_relative_error(self) -> float:
        if not self.comparisons:
            return 0.0
        return max(c.relative_error for c in self.comparisons)

    def mean_relative_error(self) -> float:
        if not self.comparisons:
            return 0.0
        return sum(c.relative_error for c in self.comparisons) / self.total_edges

    def error_cdf(self, thresholds: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0)) -> list[tuple[float, float]]:
        """(threshold, fraction of constraints within threshold) pairs.

        This is the bottom-left quality graph of the demo's vendor screen.
        """
        return [(threshold, self.fraction_within(threshold)) for threshold in thresholds]

    def worst(self, count: int = 10) -> list[EdgeComparison]:
        return sorted(self.comparisons, key=lambda c: c.relative_error, reverse=True)[:count]

    def by_query(self, query: str) -> list[EdgeComparison]:
        return [c for c in self.comparisons if c.query == query]


@dataclass
class VolumetricComparator:
    """Counts a workload's plans on a regenerated database and compares AQPs.

    Each plan runs under a ``COUNT`` (an aggregate plan as it is), so over
    dataless relations the summary route annotates every node from the
    relation summaries without generating a tuple, whatever the data scale;
    a plan it cannot answer executes.  Materialised relations are scanned.
    Every route annotates plans with identical cardinalities, so
    verification results do not depend on it.
    """

    database: Database

    def verify(self, aqps: Iterable[AnnotatedQueryPlan]) -> VerificationResult:
        engine = ExecutionEngine(database=self.database)
        result = VerificationResult()
        for aqp in aqps:
            # Clone the plan so the original annotations are left untouched.
            regenerated_plan = plan_from_dict(aqp.plan.to_dict())
            regenerated_plan.clear_annotations()
            counted = regenerated_plan
            if not isinstance(counted, AggregateNode):
                counted = AggregateNode(child=regenerated_plan, function="count")
            engine.execute(counted)

            original_nodes = list(aqp.plan.iter_nodes())
            regenerated_nodes = list(regenerated_plan.iter_nodes())
            for original, regenerated in zip(original_nodes, regenerated_nodes):
                if original.cardinality is None or regenerated.cardinality is None:
                    continue
                result.comparisons.append(
                    EdgeComparison(
                        query=aqp.name,
                        operator=original.operator,
                        description=original.describe(),
                        original=int(original.cardinality),
                        regenerated=int(regenerated.cardinality),
                    )
                )
        return result

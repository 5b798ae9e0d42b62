"""Scenario construction — "what-if" synthetic AQPs (paper §4.4).

HYDRA lets the vendor pro-actively simulate anticipated client environments by
*injecting* cardinality annotations into existing AQPs (or scaling an entire
workload up to, say, an exabyte extrapolation).  Because the injected numbers
no longer come from a real execution, they may be mutually inconsistent; the
scenario layer therefore verifies feasibility — per relation, through the same
LP formulation, in soft mode — before the summary is built, and reports which
constraints cannot be met and by how much.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..catalog.metadata import DatabaseMetadata
from ..plans.aqp import AnnotatedQueryPlan
from .errors import InfeasibleConstraintsError
from .pipeline import Hydra, HydraBuildResult

__all__ = [
    "Scenario",
    "FeasibilityIssue",
    "FeasibilityReport",
    "scale_workload",
    "scale_metadata",
    "build_scenario",
    "check_feasibility",
    "check_delta_feasibility",
]


@dataclass(frozen=True)
class FeasibilityIssue:
    """One constraint a scenario cannot satisfy exactly."""

    relation: str
    constraint: str
    relative_error: float


@dataclass
class FeasibilityReport:
    """Outcome of a scenario feasibility check."""

    feasible: bool
    issues: list[FeasibilityIssue] = field(default_factory=list)
    max_relative_error: float = 0.0

    def describe(self) -> str:
        if self.feasible and not self.issues:
            return "scenario is feasible: every injected constraint can be met exactly"
        lines = [
            f"scenario is {'feasible with adjustments' if self.feasible else 'infeasible'}; "
            f"max relative error {self.max_relative_error:.2%}"
        ]
        for issue in self.issues:
            lines.append(
                f"  {issue.relation}: {issue.constraint} off by {issue.relative_error:.2%}"
            )
        return "\n".join(lines)


@dataclass
class Scenario:
    """A synthetic client environment: metadata plus (injected) AQPs."""

    name: str
    metadata: DatabaseMetadata
    aqps: list[AnnotatedQueryPlan]
    description: str = ""

    def scaled(self, factor: float, name: str | None = None) -> "Scenario":
        """Uniformly scale the scenario's data volume by ``factor``."""
        return Scenario(
            name=name or f"{self.name}_x{factor:g}",
            metadata=scale_metadata(self.metadata, factor),
            aqps=scale_workload(self.aqps, factor),
            description=self.description,
        )

    def with_injected_annotations(
        self, overrides: Mapping[str, Mapping[int, int]], name: str | None = None
    ) -> "Scenario":
        """Inject per-node cardinalities, keyed by query name then node position."""
        aqps = []
        for aqp in self.aqps:
            if aqp.name in overrides:
                aqps.append(aqp.inject_annotations(overrides[aqp.name]))
            else:
                aqps.append(aqp.copy())
        return Scenario(
            name=name or f"{self.name}_injected",
            metadata=self.metadata,
            aqps=aqps,
            description=self.description,
        )


def scale_workload(
    aqps: Iterable[AnnotatedQueryPlan], factor: float
) -> list[AnnotatedQueryPlan]:
    """Scale every annotation of every AQP by ``factor``."""
    return [aqp.scale_annotations(factor) for aqp in aqps]


def scale_metadata(metadata: DatabaseMetadata, factor: float) -> DatabaseMetadata:
    """Scale every relation's row count (statistics shapes are kept)."""
    scaled = copy.deepcopy(metadata)
    for stats in scaled.statistics.values():
        stats.row_count = max(1, int(round(stats.row_count * factor)))
        for column_stats in stats.columns.values():
            column_stats.row_count = stats.row_count
    return scaled


def check_feasibility(scenario: Scenario) -> FeasibilityReport:
    """Check whether a scenario's constraint set is exactly satisfiable.

    The per-relation LPs are solved in soft mode; any constraint with a
    non-negligible residual is reported.  A scenario is declared infeasible
    when some constraint is off by more than 1% — the threshold below which
    the paper treats discrepancies as the unavoidable "minor additive errors".
    """
    try:
        result = Hydra(metadata=scenario.metadata, mode="soft").build_summary(scenario.aqps)
    except InfeasibleConstraintsError as exc:
        return FeasibilityReport(
            feasible=False,
            issues=[FeasibilityIssue(exc.relation, str(exc), float("inf"))],
            max_relative_error=float("inf"),
        )

    issues: list[FeasibilityIssue] = []
    for info in result.report.relations.values():
        if info.max_relative_error > 1e-6:
            issues.append(
                FeasibilityIssue(
                    relation=info.relation,
                    constraint=f"{info.num_constraints} constraints",
                    relative_error=info.max_relative_error,
                )
            )
    max_error = result.report.max_relative_error()
    return FeasibilityReport(
        feasible=max_error <= 0.01,
        issues=issues,
        max_relative_error=max_error,
    )


def check_delta_feasibility(
    hydra: Hydra,
    base_result: HydraBuildResult,
    new_aqps: Iterable[AnnotatedQueryPlan],
) -> FeasibilityReport:
    """Feasibility of injected delta AQPs against an existing build.

    The dynamic-workload analogue of :func:`check_feasibility`: instead of
    soft-solving every relation of the scenario from scratch, the delta is
    run through incremental maintenance (:meth:`Hydra.extend_summary` in soft
    mode), which re-solves **only** the relations the delta actually touches
    and reports their residuals.  Relations the delta leaves alone cannot
    gain new inconsistencies, so skipping them is sound — and it makes
    repeated what-if probing against a large base workload cheap.

    ``hydra`` is the pipeline that built ``base_result``; the soft probe
    shares its metadata and alignment (extending under another alignment
    raises), and only its mode differs.  ``base_result`` must carry
    extension state (a :meth:`Hydra.build_summary` result, or one restored
    via :meth:`Hydra.restore_result`).
    """
    probe = Hydra(metadata=hydra.metadata, mode="soft", alignment=hydra.alignment)
    try:
        extended = probe.extend_summary(base_result, list(new_aqps))
    except InfeasibleConstraintsError as exc:
        return FeasibilityReport(
            feasible=False,
            issues=[FeasibilityIssue(exc.relation, str(exc), float("inf"))],
            max_relative_error=float("inf"),
        )

    issues: list[FeasibilityIssue] = []
    max_error = 0.0
    for info in extended.report.relations.values():
        if info.reused:
            continue
        max_error = max(max_error, info.max_relative_error)
        if info.max_relative_error > 1e-6:
            issues.append(
                FeasibilityIssue(
                    relation=info.relation,
                    constraint=f"{info.num_constraints} constraints",
                    relative_error=info.max_relative_error,
                )
            )
    return FeasibilityReport(
        feasible=max_error <= 0.01,
        issues=issues,
        max_relative_error=max_error,
    )


def build_scenario(scenario: Scenario, mode: str = "soft") -> HydraBuildResult:
    """Build the regeneration summary for a (validated) scenario."""
    hydra = Hydra(metadata=scenario.metadata, mode="soft" if mode == "soft" else "exact")
    return hydra.build_summary(scenario.aqps)


def exabyte_extrapolation(
    scenario: Scenario, target_total_rows: int
) -> Scenario:
    """Scale a scenario so its total row count reaches ``target_total_rows``.

    This reproduces the demo's closing act: an extrapolated exabyte-class
    environment whose summary is still built in seconds because the pipeline
    is data-scale-free.
    """
    current_total = sum(
        stats.row_count for stats in scenario.metadata.statistics.values()
    )
    if current_total <= 0:
        raise ValueError("scenario metadata reports no rows to scale from")
    factor = target_total_rows / current_total
    return scenario.scaled(factor, name=f"{scenario.name}_extrapolated")


def total_rows(metadata: DatabaseMetadata) -> int:
    """Total rows across all relations of a metadata package."""
    return sum(stats.row_count for stats in metadata.statistics.values())

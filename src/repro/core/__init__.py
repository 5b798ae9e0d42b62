"""HYDRA core: constraint decomposition, region-partitioned LPs, deterministic
alignment, the database summary and dynamic tuple generation."""

from .alignment import AlignedRelation, DeterministicAligner
from .constraints import (
    CardinalityConstraint,
    ReferencedPredicate,
    RelationConstraints,
    SymbolicPredicate,
)
from .errors import (
    DecompositionError,
    HydraError,
    InfeasibleConstraintsError,
    RegionExplosionError,
    SolverError,
    SummaryError,
)
from .grid import GridPartitioner, grid_variable_count
from .lp import LPProblem, build_lp
from .pipeline import Hydra, HydraBuildResult, RelationBuildInfo, SummaryBuildReport
from .preprocessor import WorkloadConstraints, decompose_plan, decompose_workload
from .refint import ReferentialReport, enforce_referential_integrity
from .regions import Region, RegionPartitioner, box_is_empty
from .sampling import SamplingAligner
from .scenario import (
    FeasibilityReport,
    Scenario,
    build_scenario,
    check_feasibility,
    exabyte_extrapolation,
    scale_metadata,
    scale_workload,
)
from .solver import LPSolution, LPSolver, round_preserving_total
from .summary import DatabaseSummary, FKReference, RelationSummary, SummaryRow
from .tuplegen import TupleGenerator

__all__ = [
    "AlignedRelation",
    "CardinalityConstraint",
    "DatabaseSummary",
    "DecompositionError",
    "DeterministicAligner",
    "FKReference",
    "FeasibilityReport",
    "GridPartitioner",
    "Hydra",
    "HydraBuildResult",
    "HydraError",
    "InfeasibleConstraintsError",
    "LPProblem",
    "LPSolution",
    "LPSolver",
    "ReferencedPredicate",
    "ReferentialReport",
    "Region",
    "RegionExplosionError",
    "RegionPartitioner",
    "RelationBuildInfo",
    "RelationConstraints",
    "RelationSummary",
    "SamplingAligner",
    "Scenario",
    "SolverError",
    "SummaryBuildReport",
    "SummaryError",
    "SummaryRow",
    "SymbolicPredicate",
    "TupleGenerator",
    "WorkloadConstraints",
    "box_is_empty",
    "build_lp",
    "build_scenario",
    "check_feasibility",
    "decompose_plan",
    "decompose_workload",
    "enforce_referential_integrity",
    "exabyte_extrapolation",
    "grid_variable_count",
    "round_preserving_total",
    "scale_metadata",
    "scale_workload",
]

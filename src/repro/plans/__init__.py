"""Query plans: logical operators, join graph, deterministic planner and AQPs."""

from .aqp import AnnotatedQueryPlan, AQPEdge
from .joingraph import JoinGraph, classify_fk_edge
from .logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    plan_from_dict,
)
from .planner import (
    PlannerError,
    build_plan,
    choose_anchor,
    compute_pushdowns,
)

__all__ = [
    "AQPEdge",
    "AggregateNode",
    "AnnotatedQueryPlan",
    "FilterNode",
    "JoinGraph",
    "JoinNode",
    "PlanNode",
    "PlannerError",
    "ProjectNode",
    "ScanNode",
    "build_plan",
    "choose_anchor",
    "classify_fk_edge",
    "compute_pushdowns",
    "plan_from_dict",
]

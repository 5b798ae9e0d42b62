"""An aggregate taken over its executed child: the summary route's reference.

Over a dataless database the engine answers ``COUNT`` / ``SUM`` / ``AVG``
from the relation summaries whenever it can.  :func:`stream_aggregate` runs
the aggregate's child plan instead — the dataless block stream, segment
skipping and semi-join boxes under an aggregate — and aggregates the
executed block here: the count is its rows, a SUM/AVG the ``math.fsum`` of
its column, rounded once.  The child runs under a projection onto the
aggregate's argument (none for ``COUNT``), so it generates exactly the
columns the aggregate reads.
"""

from __future__ import annotations

import math

import numpy as np

from repro.executor.engine import ExecutionEngine, ExecutionResult
from repro.plans.logical import AggregateNode, PlanNode, ProjectNode
from repro.storage.database import Database


def stream_aggregate(database: Database, plan: PlanNode) -> ExecutionResult:
    """Execute ``plan`` on ``database``, an aggregate root over its executed child."""
    engine = ExecutionEngine(database=database)
    if not isinstance(plan, AggregateNode):
        return engine.execute(plan)
    argument = [] if plan.argument is None else [plan.argument]
    child = engine.execute(ProjectNode(child=plan.child, columns=argument))
    count = child.row_count
    if plan.function == "count":
        value = np.asarray([count], dtype=np.int64)
    else:
        (column,) = child.columns.values()
        total = math.fsum(np.asarray(column, dtype=np.float64).tolist())
        if plan.function == "avg":
            total = total / count if count else 0.0
        value = np.asarray([total], dtype=np.float64)
    plan.cardinality = 1
    return ExecutionResult(
        columns={plan.function: value},
        row_count=1,
        scanned_rows=child.scanned_rows,
        route_events=child.route_events,
    )

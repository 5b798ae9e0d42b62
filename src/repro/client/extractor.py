"""Client-site AQP extraction.

At the client site HYDRA "fetches the schema, metadata and the query workload
with its corresponding AQPs" (paper §3).  The extractor reproduces that step:
every workload query is planned deterministically and executed over the
client's materialised database, and the observed per-operator output
cardinalities become the plan annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..catalog.metadata import DatabaseMetadata, collect_metadata
from ..executor.engine import ExecutionEngine
from ..plans.aqp import AnnotatedQueryPlan
from ..plans.planner import build_plan
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.database import Database

__all__ = ["AQPExtractor"]


@dataclass
class AQPExtractor:
    """Produces Annotated Query Plans from a client database and workload."""

    database: Database
    _engine: ExecutionEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._engine = ExecutionEngine(database=self.database)

    def extract(self, query: Query) -> AnnotatedQueryPlan:
        """Plan, execute and annotate one query."""
        plan = build_plan(query, self.database.schema)
        self._engine.execute(plan)
        return AnnotatedQueryPlan(query=query, plan=plan)

    def extract_workload(self, queries: Iterable[Query]) -> list[AnnotatedQueryPlan]:
        return [self.extract(query) for query in queries]

    def extract_sql(self, sql: str, name: str = "query") -> AnnotatedQueryPlan:
        """Parse an SQL string and extract its AQP."""
        query = parse_query(sql, self.database.schema, name=name)
        return self.extract(query)

    def profile_metadata(self) -> DatabaseMetadata:
        """Collect CODD-style metadata for the client database."""
        return collect_metadata(self.database)

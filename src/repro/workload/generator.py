"""Parameterised SPJ workload generator.

The paper evaluates HYDRA on a client workload of 131 distinct TPC-DS queries.
Since the original query set cannot be redistributed, this generator produces
workloads with the same *structure*: star-join SPJ queries over a fact table
and a subset of its dimensions, with conjunctive range / equality / IN filters
drawn from a pool of per-dimension *templates* (real benchmark workloads reuse
predicate shapes with different constants in the same way).  The number of
queries, the number of joined dimensions and the richness of the template pool
are the knobs the benchmarks sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..catalog.metadata import DatabaseMetadata
from ..catalog.schema import Column, Schema, Table
from ..catalog.statistics import ColumnStatistics, TableStatistics
from ..catalog.types import StringType
from ..sql.predicates import And, Comparison, InList, Predicate
from ..sql.query import JoinCondition, Query

__all__ = ["WorkloadConfig", "WorkloadGenerator", "generate_workload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic SPJ workload.

    The defaults are tuned so that a 131-query workload over the synthetic
    TPC-DS-like constellation yields per-relation constraint sets of the same
    order as the paper's experiment (tens of constraints per fact table,
    region partitions in the hundreds-to-thousands of variables).
    """

    num_queries: int = 131
    max_dimensions_per_query: int = 2
    templates_per_dimension: int = 4
    fact_filter_probability: float = 0.25
    min_selectivity: float = 0.02
    max_selectivity: float = 0.6
    seed: int = 2018


@dataclass
class _FilterTemplate:
    """A reusable conjunctive filter on one table."""

    table: str
    predicate: Predicate
    description: str


@dataclass
class WorkloadGenerator:
    """Generates a list of distinct SPJ :class:`Query` objects."""

    metadata: DatabaseMetadata
    config: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.config.seed)
        self._schema: Schema = self.metadata.schema

    # -- public API --------------------------------------------------------

    def generate(self) -> list[Query]:
        """Generate ``config.num_queries`` distinct queries."""
        facts = self._fact_tables()
        if not facts:
            raise ValueError(
                "schema has no table with foreign keys; cannot generate star-join queries"
            )

        all_dimensions = {
            fk.ref_table for fact in facts for fk in fact.foreign_keys
        }
        templates = {
            name: self._build_templates(
                self._schema.table(name), self.config.templates_per_dimension
            )
            for name in sorted(all_dimensions)
        }
        fact_templates = {
            fact.name: self._build_templates(
                fact, self.config.templates_per_dimension, exclude_fk=True
            )
            for fact in facts
        }

        queries: list[Query] = []
        seen: set[tuple] = set()
        attempts = 0
        max_attempts = self.config.num_queries * 50
        while len(queries) < self.config.num_queries and attempts < max_attempts:
            attempts += 1
            fact = facts[int(self._rng.integers(0, len(facts)))]
            query, signature = self._random_query(
                len(queries),
                fact,
                self._dimension_tables(fact),
                templates,
                fact_templates[fact.name],
            )
            if signature in seen:
                continue
            seen.add(signature)
            queries.append(query)
        if len(queries) < self.config.num_queries:
            raise ValueError(
                f"could only generate {len(queries)} distinct queries; "
                "increase templates_per_dimension or reduce num_queries"
            )
        return queries

    # -- table selection -----------------------------------------------------

    def _fact_tables(self) -> list[Table]:
        """All tables with outgoing foreign keys, largest join fan-out first."""
        facts = [table for table in self._schema if table.foreign_keys]
        return sorted(facts, key=lambda table: (len(table.foreign_keys), table.name), reverse=True)

    def _dimension_tables(self, fact: Table) -> list[Table]:
        return [self._schema.table(fk.ref_table) for fk in fact.foreign_keys]

    # -- filter templates ------------------------------------------------------

    def _build_templates(
        self, table: Table, count: int, exclude_fk: bool = False
    ) -> list[_FilterTemplate]:
        """Build the pool of reusable filters for one table.

        Real benchmark workloads (and TPC-DS in particular) mostly filter a
        dimension with *disjoint* constants — ``d_year = 1998``,
        ``i_category = 'Music'`` — plus the occasional broader range.  The
        template pool mirrors that: most templates carve disjoint slices of a
        "partition column" (a categorical column, or equal-width chunks of a
        numeric one), and one template per pool is a broad overlapping range
        on a second column.  Keeping the per-dimension predicates mostly
        disjoint also keeps the referenced relation's region count — and
        therefore the LP sizes of the referencing fact tables — at the scale
        the paper reports.
        """
        stats = self.metadata.statistics.get(table.name)
        candidates = [
            column
            for column in table.columns
            if column.name != table.primary_key
            and (not exclude_fk or column.name not in table.foreign_key_columns)
            and column.name not in table.foreign_key_columns
        ]
        if stats is None or not candidates:
            return []

        partition_column = self._pick_partition_column(candidates, stats)
        templates: list[_FilterTemplate] = []
        if partition_column is not None:
            column, column_stats = partition_column
            slices = self._disjoint_slices(column, column_stats, max(1, count - 1))
            for index, (predicate, description) in enumerate(slices):
                templates.append(
                    _FilterTemplate(table=table.name, predicate=predicate, description=f"t{index}:{description}")
                )

        # One broader, overlapping range template on a (preferably different)
        # numeric column, so the region structure is not purely disjoint.
        numeric = [
            column
            for column in candidates
            if not isinstance(column.dtype, StringType)
            and (partition_column is None or column.name != partition_column[0].name)
        ] or [column for column in candidates if not isinstance(column.dtype, StringType)]
        while len(templates) < count and numeric:
            column = numeric[int(self._rng.integers(0, len(numeric)))]
            column_stats = stats.columns.get(column.name)
            if column_stats is None or column_stats.row_count == 0:
                break
            predicate, description = self._column_predicate(column.name, column, column_stats)
            templates.append(
                _FilterTemplate(
                    table=table.name,
                    predicate=predicate,
                    description=f"t{len(templates)}:{description}",
                )
            )
        return templates[:count]

    def _pick_partition_column(
        self, candidates: Sequence[Column], stats: TableStatistics
    ) -> tuple[Column, ColumnStatistics] | None:
        """Prefer a low-cardinality categorical column, else any numeric one."""
        categorical = [
            column
            for column in candidates
            if isinstance(column.dtype, StringType)
            and stats.columns.get(column.name) is not None
            and stats.columns[column.name].distinct_count > 1
        ]
        if categorical:
            column = categorical[int(self._rng.integers(0, len(categorical)))]
            return column, stats.columns[column.name]
        numeric = [
            column
            for column in candidates
            if stats.columns.get(column.name) is not None
            and stats.columns[column.name].distinct_count > 1
        ]
        if not numeric:
            return None
        column = numeric[int(self._rng.integers(0, len(numeric)))]
        return column, stats.columns[column.name]

    def _disjoint_slices(
        self, column: Column, column_stats: ColumnStatistics, count: int
    ) -> list[tuple[Predicate, str]]:
        """Disjoint equality / chunk-range predicates on the partition column."""
        slices: list[tuple[Predicate, str]] = []
        if isinstance(column.dtype, StringType) and column_stats.most_common_values:
            values = sorted(column_stats.most_common_values)
            picked = values[: max(1, min(count, len(values)))]
            for value in picked:
                slices.append(
                    (Comparison(column.name, "=", float(value)), f"{column.name}={value:g}")
                )
            return slices

        low = column_stats.min_value if column_stats.min_value is not None else 0.0
        high = column_stats.max_value if column_stats.max_value is not None else low + 1.0
        span = max(high - low, 1.0)
        width = span / max(count, 1)
        if column.dtype.is_discrete:
            width = max(1.0, float(int(width)))
        for index in range(count):
            start = low + index * width
            end = start + width
            slices.append(
                (
                    And([Comparison(column.name, ">=", start), Comparison(column.name, "<", end)]),
                    f"{column.name}∈[{start:g},{end:g})",
                )
            )
        return slices

    def _column_predicate(
        self, name: str, column: Column, stats: ColumnStatistics
    ) -> tuple[Predicate, str]:
        """A range / equality / IN predicate with a plausible selectivity."""
        if isinstance(column.dtype, StringType) and stats.distinct_count:
            # Low-cardinality categorical column: equality or small IN-list.
            values = stats.most_common_values or [stats.min_value or 0.0]
            if len(values) > 1 and self._rng.random() < 0.4:
                picked = self._rng.choice(values, size=min(3, len(values)), replace=False)
                return InList(name, tuple(float(v) for v in picked)), f"{name} in {len(picked)}"
            value = float(values[int(self._rng.integers(0, len(values)))])
            return Comparison(name, "=", value), f"{name}={value:g}"

        low_bound = stats.min_value if stats.min_value is not None else 0.0
        high_bound = stats.max_value if stats.max_value is not None else low_bound + 1.0
        span = max(high_bound - low_bound, 1.0)
        selectivity = self._rng.uniform(self.config.min_selectivity, self.config.max_selectivity)
        width = max(span * selectivity, 1.0)
        start = self._rng.uniform(low_bound, max(low_bound, high_bound - width))
        if column.dtype.is_discrete:
            start = float(int(start))
            width = float(max(1, int(width)))
        predicate = And(
            [Comparison(name, ">=", start), Comparison(name, "<", start + width)]
        )
        return predicate, f"{name}∈[{start:g},{start + width:g})"

    # -- query assembly ----------------------------------------------------------

    def _random_query(
        self,
        index: int,
        fact: Table,
        dimensions: Sequence[Table],
        templates: dict[str, list[_FilterTemplate]],
        fact_templates: list[_FilterTemplate],
    ) -> tuple[Query, tuple]:
        max_dims = min(self.config.max_dimensions_per_query, len(dimensions))
        num_dims = int(self._rng.integers(1, max_dims + 1))
        chosen_positions = sorted(
            self._rng.choice(len(dimensions), size=num_dims, replace=False).tolist()
        )
        chosen_dims = [dimensions[i] for i in chosen_positions]

        joins: list[JoinCondition] = []
        filters: dict[str, Predicate] = {}
        signature_parts: list = [fact.name]

        for dim in chosen_dims:
            fk = next(fk for fk in fact.foreign_keys if fk.ref_table == dim.name)
            joins.append(
                JoinCondition(
                    left_table=fact.name,
                    left_column=fk.column,
                    right_table=dim.name,
                    right_column=fk.ref_column,
                )
            )
            pool = templates.get(dim.name, [])
            if pool:
                template_index = int(self._rng.integers(0, len(pool)))
                filters[dim.name] = pool[template_index].predicate
                signature_parts.append((dim.name, template_index))
            else:
                signature_parts.append((dim.name, None))

        if fact_templates and self._rng.random() < self.config.fact_filter_probability:
            template_index = int(self._rng.integers(0, len(fact_templates)))
            filters[fact.name] = fact_templates[template_index].predicate
            signature_parts.append((fact.name, template_index))

        tables = [fact.name] + [dim.name for dim in chosen_dims]
        name = f"q{index + 1:03d}"
        query = Query(
            name=name,
            tables=tables,
            joins=joins,
            filters=filters,
            projection=["*"],
            sql=self._render_sql(tables, joins, filters),
        )
        return query, tuple(signature_parts)

    def _render_sql(
        self,
        tables: Sequence[str],
        joins: Sequence[JoinCondition],
        filters: dict[str, Predicate],
    ) -> str:
        """Best-effort SQL text for display (the Query object is authoritative)."""
        conditions = [repr(join) for join in joins]
        for table, predicate in filters.items():
            conditions.append(f"/* {table} */ {predicate!r}")
        where = " and ".join(conditions)
        return f"select * from {', '.join(tables)}" + (f" where {where}" if where else "")


def generate_workload(
    metadata: DatabaseMetadata, config: WorkloadConfig | None = None
) -> list[Query]:
    """Convenience wrapper: generate a workload with the given configuration."""
    generator = WorkloadGenerator(metadata=metadata, config=config or WorkloadConfig())
    return generator.generate()

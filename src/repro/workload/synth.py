"""Randomized scenario synthesis: schemas, data, workloads and delta streams.

Scenario diversity in the repo used to be three hand-built workloads
(toy/tpcds/tpch).  This module generates *arbitrarily many* scenarios from a
single seed, following the pyrqg exemplar's shape (seeded config, query-type
distribution, grammar-driven generation):

* :class:`SchemaSynthesizer` draws a star / chain / snowflake FK tree with
  configurable relation counts, fan-outs, per-tier cardinalities and column
  dtypes (integer / float / string / date), then materialises a client
  :class:`~repro.storage.database.Database` for it;
* :class:`QuerySynthesizer` draws a mixed SELECT workload from a query-kind
  distribution covering the full supported SQL surface — COUNT/SUM/AVG
  (single-table and over multi-way FK joins), ``SELECT *``, disjunctive join
  predicates, disjunctive filters, and equality / range / BETWEEN / IN
  filters — validating every candidate through the real parser and planner
  so a generated query is a *plannable* query by construction;
* :func:`synthesize_scenario` bundles both plus seeded delta-query batches
  (the raw material for ``DeltaPackage`` streams feeding
  :meth:`~repro.core.pipeline.Hydra.extend_summary`).

Everything is driven by one ``numpy`` Generator seeded from
:attr:`SynthConfig.seed`: the same config always yields byte-identical SQL
text, schema and data (the property suite pins this).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Column, ForeignKey, Schema, Table
from ..catalog.types import DATE, FLOAT, INTEGER, StringType, TypeKind
from ..plans.planner import PlannerError, build_plan
from ..sql.parser import SQLParseError, parse_query
from ..sql.query import Query
from ..storage.database import Database
from ..storage.table import TableData

__all__ = [
    "QUERY_KINDS",
    "QuerySynthesizer",
    "SchemaSynthesizer",
    "SynthConfig",
    "SynthQuery",
    "SynthScenario",
    "synthesize_scenario",
]

#: Query kinds the synthesizer can draw (the keys of ``query_weights``).
QUERY_KINDS = (
    "count_single",
    "count_join",
    "sum_single",
    "avg_single",
    "agg_join",
    "select_star",
    "disjunctive_join",
    "disjunctive_filter",
    "in_filter",
)

#: Word stems used to build string-column dictionaries.
_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango",
)

_RANGE_OPS = ("<", "<=", ">", ">=")

_DATE_EPOCH = datetime.date(1990, 1, 1)


def _default_query_weights() -> dict[str, float]:
    """The default query-kind distribution (every supported kind on)."""
    return {
        "count_single": 3.0,
        "count_join": 3.0,
        "sum_single": 2.0,
        "avg_single": 2.0,
        "agg_join": 2.0,
        "select_star": 2.0,
        "disjunctive_join": 1.0,
        "disjunctive_filter": 1.0,
        "in_filter": 1.0,
    }


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of one synthesized scenario (all draws flow from ``seed``)."""

    seed: int = 0
    #: "star" | "chain" | "snowflake" | "mixed" (mixed draws one per seed).
    topology: str = "mixed"
    min_relations: int = 3
    max_relations: int = 6
    #: Max FK columns per referencing relation.
    max_fanout: int = 3
    #: Row-count range per FK-tree depth (root first; last entry repeats).
    rows_by_tier: tuple[tuple[int, int], ...] = ((600, 1500), (60, 250), (8, 40))
    #: Value (non-key) columns per relation.
    min_value_columns: int = 1
    max_value_columns: int = 3
    #: Column dtype pool value columns are drawn from.
    dtypes: tuple[str, ...] = ("integer", "float", "string", "date")
    int_value_max: int = 100
    float_value_max: float = 50.0
    max_string_vocab: int = 8
    date_span_days: int = 3650
    #: Probability that an FK column gets zipf-skewed instead of uniform.
    fk_skew_probability: float = 0.3
    num_queries: int = 12
    query_weights: Mapping[str, float] = field(default_factory=_default_query_weights)
    max_join_tables: int = 4
    max_filters_per_query: int = 2
    #: Delta stream shape: ``delta_batches`` batches of ``delta_queries``.
    delta_batches: int = 2
    delta_queries: int = 2

    def __post_init__(self) -> None:
        """Reject configurations no draw could satisfy."""
        if self.topology not in ("star", "chain", "snowflake", "mixed"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not 2 <= self.min_relations <= self.max_relations:
            raise ValueError("need 2 <= min_relations <= max_relations")
        if self.max_fanout < 1:
            raise ValueError("max_fanout must be >= 1")
        if not self.rows_by_tier:
            raise ValueError("rows_by_tier must not be empty")
        unknown = set(self.dtypes) - {"integer", "float", "string", "date"}
        if unknown:
            raise ValueError(f"unknown dtypes {sorted(unknown)}")
        bad_kinds = set(self.query_weights) - set(QUERY_KINDS)
        if bad_kinds:
            raise ValueError(f"unknown query kinds {sorted(bad_kinds)}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (tuples become lists); inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "topology": self.topology,
            "min_relations": self.min_relations,
            "max_relations": self.max_relations,
            "max_fanout": self.max_fanout,
            "rows_by_tier": [list(tier) for tier in self.rows_by_tier],
            "min_value_columns": self.min_value_columns,
            "max_value_columns": self.max_value_columns,
            "dtypes": list(self.dtypes),
            "int_value_max": self.int_value_max,
            "float_value_max": self.float_value_max,
            "max_string_vocab": self.max_string_vocab,
            "date_span_days": self.date_span_days,
            "fk_skew_probability": self.fk_skew_probability,
            "num_queries": self.num_queries,
            "query_weights": dict(self.query_weights),
            "max_join_tables": self.max_join_tables,
            "max_filters_per_query": self.max_filters_per_query,
            "delta_batches": self.delta_batches,
            "delta_queries": self.delta_queries,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SynthConfig":
        """Rebuild a config from :meth:`to_dict` output (corpus replay)."""
        data = dict(payload)
        data["rows_by_tier"] = tuple(
            (int(low), int(high)) for low, high in data["rows_by_tier"]
        )
        data["dtypes"] = tuple(data["dtypes"])
        data["query_weights"] = dict(data["query_weights"])
        return cls(**data)


@dataclass(frozen=True)
class SynthQuery:
    """One generated workload query.

    ``oracle_sql`` is what the SQLite oracle runs for it: identical to
    ``sql`` for aggregates; for ``SELECT *`` queries a rewrite to
    ``COUNT(*)`` plus the sum of each of ``pk_columns`` — the qualified
    primary keys of the tables it reads, in ``FROM`` order — which the
    engine-side check computes over the rows it returns: a join returning
    the right number of wrong partners changes a sum.
    """

    name: str
    kind: str
    sql: str
    oracle_sql: str
    query: Query
    pk_columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class SynthScenario:
    """A fully drawn scenario: schema, client data, workload, delta stream."""

    config: SynthConfig
    topology: str
    schema: Schema
    database: Database
    queries: tuple[SynthQuery, ...]
    delta_batches: tuple[tuple[SynthQuery, ...], ...]

    @property
    def all_queries(self) -> tuple[SynthQuery, ...]:
        """Base workload plus every delta batch, in generation order."""
        flat = list(self.queries)
        for batch in self.delta_batches:
            flat.extend(batch)
        return tuple(flat)

    def query_named(self, name: str) -> SynthQuery:
        """Look up one generated query (base or delta) by its name."""
        for item in self.all_queries:
            if item.name == name:
                return item
        raise KeyError(f"scenario has no query named {name!r}")


class SchemaSynthesizer:
    """Draws a random FK tree and materialises client data for it."""

    def __init__(self, config: SynthConfig, rng: np.random.Generator) -> None:
        """Bind the synthesizer to a config and an already-seeded stream."""
        self.config = config
        self.rng = rng

    def draw_topology(self) -> str:
        """Resolve "mixed" to a concrete topology for this seed."""
        if self.config.topology != "mixed":
            return self.config.topology
        return str(self.rng.choice(["star", "chain", "snowflake"]))

    def _draw_parents(self, count: int, topology: str) -> list[int]:
        """Parent index (referencing table) for each non-root relation.

        ``parents[child - 1]`` is the index of the table holding an FK *to*
        table ``child``; the root (index 0) is the fact table everything
        hangs off.
        """
        parents: list[int] = []
        fanout = [0] * count
        for child in range(1, count):
            if topology == "chain":
                parent = child - 1
            elif topology == "star":
                parent = 0
            else:  # snowflake: any node with spare fan-out, shallow preferred
                candidates = [
                    node for node in range(child)
                    if fanout[node] < self.config.max_fanout
                ]
                weights = np.array([1.0 / (1 + node) for node in candidates])
                weights /= weights.sum()
                parent = int(self.rng.choice(np.array(candidates), p=weights))
            parents.append(parent)
            fanout[parent] += 1
        return parents

    def _tier_rows(self, depth: int) -> int:
        """Draw a row count for a relation at ``depth`` in the FK tree."""
        tiers = self.config.rows_by_tier
        low, high = tiers[min(depth, len(tiers) - 1)]
        return int(self.rng.integers(low, high + 1))

    def _value_column(
        self, table: str, index: int, rows: int
    ) -> tuple[Column, NDArray[Any]]:
        """Draw one value column (dtype + already-encoded data) for ``table``."""
        dtype_name = str(self.rng.choice(list(self.config.dtypes)))
        name = f"{table}_v{index}"
        if dtype_name == "integer":
            ints = self.rng.integers(0, self.config.int_value_max, size=rows)
            return Column(name, INTEGER), np.asarray(ints, dtype=np.int64)
        if dtype_name == "float":
            floats = self.rng.uniform(0.0, self.config.float_value_max, size=rows)
            return Column(name, FLOAT), np.asarray(floats, dtype=np.float64)
        if dtype_name == "date":
            days = self.rng.integers(0, self.config.date_span_days, size=rows)
            return Column(name, DATE), np.asarray(days, dtype=np.int64)
        vocab_size = int(self.rng.integers(3, self.config.max_string_vocab + 1))
        picks = self.rng.choice(len(_WORDS), size=vocab_size, replace=False)
        vocab = [f"{_WORDS[int(w)]}_{int(w):02d}" for w in picks]
        dtype = StringType.from_values(vocab)
        codes = self.rng.integers(0, len(dtype.dictionary), size=rows)
        return Column(name, dtype), np.asarray(codes, dtype=np.int64)

    def _fk_values(self, rows: int, ref_rows: int) -> NDArray[Any]:
        """FK data: uniform over the referenced pk space, or zipf-skewed."""
        if self.rng.random() < self.config.fk_skew_probability:
            values = self.rng.zipf(1.6, size=rows) % ref_rows
        else:
            values = self.rng.integers(0, ref_rows, size=rows)
        return np.asarray(values, dtype=np.int64)

    def build(self) -> tuple[str, Schema, Database]:
        """Draw the whole schema and materialise its client database."""
        config = self.config
        topology = self.draw_topology()
        count = int(self.rng.integers(config.min_relations, config.max_relations + 1))
        if topology == "star":
            count = min(count, config.max_fanout + 1)
        parents = self._draw_parents(count, topology)

        depth = [0] * count
        for child in range(1, count):
            depth[child] = depth[parents[child - 1]] + 1
        names = [f"T{index}" for index in range(count)]
        rows = [self._tier_rows(depth[index]) for index in range(count)]

        # FK edges grouped by the referencing (parent) table.
        fks_of: dict[int, list[int]] = {index: [] for index in range(count)}
        for child in range(1, count):
            fks_of[parents[child - 1]].append(child)

        tables: list[Table] = []
        arrays_by_table: dict[str, dict[str, NDArray[Any]]] = {}
        for index in range(count):
            name = names[index]
            columns = [Column(f"{name}_pk", INTEGER)]
            arrays: dict[str, NDArray[Any]] = {
                f"{name}_pk": np.arange(rows[index], dtype=np.int64)
            }
            foreign_keys: list[ForeignKey] = []
            for ref in fks_of[index]:
                fk_name = f"{name}_{names[ref]}_fk"
                columns.append(Column(fk_name, INTEGER))
                arrays[fk_name] = self._fk_values(rows[index], rows[ref])
                foreign_keys.append(
                    ForeignKey(
                        column=fk_name,
                        ref_table=names[ref],
                        ref_column=f"{names[ref]}_pk",
                    )
                )
            n_values = int(
                self.rng.integers(
                    config.min_value_columns, config.max_value_columns + 1
                )
            )
            for v_index in range(n_values):
                column, values = self._value_column(name, v_index, rows[index])
                columns.append(column)
                arrays[column.name] = values
            tables.append(
                Table(
                    name=name,
                    columns=columns,
                    primary_key=f"{name}_pk",
                    foreign_keys=foreign_keys,
                )
            )
            arrays_by_table[name] = arrays
        schema = Schema.from_tables(tables)
        data = [
            TableData.from_columns(schema.table(name), arrays_by_table[name])
            for name in names
        ]
        return topology, schema, Database.from_table_data(schema, data)


class QuerySynthesizer:
    """Draws plannable SQL from a query-kind distribution over a schema."""

    def __init__(
        self,
        config: SynthConfig,
        schema: Schema,
        database: Database,
        rng: np.random.Generator,
    ) -> None:
        """Bind to the drawn schema/data and the scenario's seeded stream."""
        self.config = config
        self.schema = schema
        self.database = database
        self.rng = rng
        self._seen_sql: set[str] = set()
        weights = {
            kind: float(weight)
            for kind, weight in config.query_weights.items()
            if weight > 0
        }
        if not weights:
            raise ValueError("query_weights must enable at least one kind")
        self._kinds = sorted(weights)
        total = sum(weights[kind] for kind in self._kinds)
        self._probabilities = np.array(
            [weights[kind] / total for kind in self._kinds]
        )

    # -- column helpers ---------------------------------------------------

    def _value_columns(self, table: str) -> list[Column]:
        """The filterable (non-key) columns of ``table``."""
        table_obj = self.schema.table(table)
        keys = {table_obj.primary_key} | {fk.column for fk in table_obj.foreign_keys}
        return [column for column in table_obj.columns if column.name not in keys]

    def _numeric_columns(self, tables: list[str]) -> list[tuple[str, Column]]:
        """SUM/AVG-able (integer/float) columns across ``tables``."""
        found: list[tuple[str, Column]] = []
        for table in tables:
            for column in self._value_columns(table):
                if column.dtype.kind in (TypeKind.INTEGER, TypeKind.FLOAT):
                    found.append((table, column))
        return found

    def _column_values(self, table: str, column: str) -> NDArray[Any]:
        """The materialised (internal-domain) values of one client column."""
        return self.database.table_data(table).column(column)

    # -- constant rendering -----------------------------------------------

    def _render_constant(self, column: Column, internal: float) -> str:
        """Render one internal-domain value as a SQL literal of the column."""
        kind = column.dtype.kind
        if kind is TypeKind.INTEGER:
            return str(int(internal))
        if kind is TypeKind.FLOAT:
            # The tokenizer accepts plain decimals only (no scientific
            # notation), so format with a fixed number of places.
            return f"{float(internal):.6f}"
        if kind is TypeKind.DATE:
            day = _DATE_EPOCH + datetime.timedelta(days=int(internal))
            return f"'{day.isoformat()}'"
        word = str(column.dtype.decode(internal))
        escaped = word.replace("'", "''")
        return f"'{escaped}'"

    def _draw_constant(self, table: str, column: Column) -> str:
        """Draw a literal from the column's actual value distribution."""
        values = self._column_values(table, column.name)
        internal = float(values[int(self.rng.integers(0, len(values)))])
        return self._render_constant(column, internal)

    # -- filter predicates ------------------------------------------------

    def _comparison(self, table: str, column: Column) -> str:
        """One simple comparison predicate on ``table.column``."""
        qualified = f"{table}.{column.name}"
        kind = column.dtype.kind
        if kind is TypeKind.STRING:
            return f"{qualified} = {self._draw_constant(table, column)}"
        choice = self.rng.random()
        if kind is not TypeKind.FLOAT and choice < 0.2:
            return f"{qualified} = {self._draw_constant(table, column)}"
        if choice < 0.6:
            op = _RANGE_OPS[int(self.rng.integers(0, len(_RANGE_OPS)))]
            return f"{qualified} {op} {self._draw_constant(table, column)}"
        lo = self._draw_constant(table, column)
        hi = self._draw_constant(table, column)
        if self._literal_key(column, lo) > self._literal_key(column, hi):
            lo, hi = hi, lo
        return f"{qualified} between {lo} and {hi}"

    @staticmethod
    def _literal_key(column: Column, literal: str) -> Any:
        """Sort key so BETWEEN bounds come out ordered."""
        if column.dtype.kind in (TypeKind.DATE, TypeKind.STRING):
            return literal
        return float(literal)

    def _in_filter(self, table: str, column: Column) -> str:
        """An ``IN ( ... )`` predicate over observed column values."""
        values = self._column_values(table, column.name)
        picks = self.rng.choice(values, size=min(4, len(values)), replace=True)
        literals: list[str] = []
        for value in picks:
            literal = self._render_constant(column, float(value))
            if literal not in literals:
                literals.append(literal)
        return f"{table}.{column.name} in ({', '.join(literals)})"

    def _draw_filters(self, tables: list[str], max_filters: int) -> list[str]:
        """Up to ``max_filters`` simple predicates over the joined tables."""
        candidates: list[tuple[str, Column]] = []
        for table in tables:
            for column in self._value_columns(table):
                candidates.append((table, column))
        if not candidates or max_filters <= 0:
            return []
        n_filters = int(self.rng.integers(0, max_filters + 1))
        predicates: list[str] = []
        for _ in range(n_filters):
            table, column = candidates[int(self.rng.integers(0, len(candidates)))]
            predicates.append(self._comparison(table, column))
        return predicates

    # -- join structure ---------------------------------------------------

    def _draw_join(self, min_tables: int) -> tuple[list[str], list[str]] | None:
        """A connected FK join: (tables, equi-join conditions) or ``None``.

        Grows a random connected subtree of the FK graph, which yields
        chains, stars and mixtures of both depending on the draw.
        """
        with_fks = [
            name for name in self.schema.table_names
            if self.schema.table(name).foreign_keys
        ]
        if not with_fks:
            return None
        start = with_fks[int(self.rng.integers(0, len(with_fks)))]
        joined = [start]
        conditions: list[str] = []
        limit = min(
            self.config.max_join_tables,
            max(min_tables, int(self.rng.integers(min_tables,
                                                  self.config.max_join_tables + 1))),
        )
        while len(joined) < limit:
            edges = [
                (table, fk)
                for table in joined
                for fk in self.schema.table(table).foreign_keys
                if fk.ref_table not in joined
            ]
            if not edges:
                break
            table, fk = edges[int(self.rng.integers(0, len(edges)))]
            joined.append(fk.ref_table)
            conditions.append(
                f"{table}.{fk.column} = {fk.ref_table}.{fk.ref_column}"
            )
        if len(joined) < min_tables:
            return None
        return joined, conditions

    # -- query kinds ------------------------------------------------------

    def _single_table(self) -> str:
        """Draw one relation that has at least one value column."""
        names = [
            name for name in self.schema.table_names if self._value_columns(name)
        ]
        pool = names or list(self.schema.table_names)
        return pool[int(self.rng.integers(0, len(pool)))]

    def _assemble(
        self, select: str, tables: list[str], predicates: list[str]
    ) -> str:
        """Stitch SELECT/FROM/WHERE into the dialect's surface form."""
        sql = f"select {select} from {', '.join(tables)}"
        if predicates:
            sql += " where " + " and ".join(predicates)
        return sql

    def _make_count_single(self) -> str | None:
        table = self._single_table()
        filters = self._draw_filters([table], self.config.max_filters_per_query)
        return self._assemble("count(*)", [table], filters)

    def _make_count_join(self) -> str | None:
        join = self._draw_join(2)
        if join is None:
            return None
        tables, conditions = join
        filters = self._draw_filters(tables, self.config.max_filters_per_query)
        return self._assemble("count(*)", tables, conditions + filters)

    def _make_agg_single(self, function: str) -> str | None:
        table = self._single_table()
        numeric = self._numeric_columns([table])
        if not numeric:
            return None
        _, column = numeric[int(self.rng.integers(0, len(numeric)))]
        filters = self._draw_filters([table], self.config.max_filters_per_query)
        return self._assemble(
            f"{function}({table}.{column.name})", [table], filters
        )

    def _make_agg_join(self) -> str | None:
        join = self._draw_join(2)
        if join is None:
            return None
        tables, conditions = join
        numeric = self._numeric_columns(tables)
        if not numeric:
            return None
        table, column = numeric[int(self.rng.integers(0, len(numeric)))]
        function = "sum" if self.rng.random() < 0.5 else "avg"
        filters = self._draw_filters(tables, self.config.max_filters_per_query)
        return self._assemble(
            f"{function}({table}.{column.name})", tables, conditions + filters
        )

    def _make_select_star(self) -> str | None:
        if self.rng.random() < 0.5:
            join = self._draw_join(2)
            if join is not None:
                tables, conditions = join
                filters = self._draw_filters(tables, 1)
                return self._assemble("*", tables, conditions + filters)
        table = self._single_table()
        filters = self._draw_filters([table], self.config.max_filters_per_query)
        return self._assemble("*", [table], filters)

    def _make_disjunctive_join(self) -> str | None:
        """Figure-1 style: two FK columns may alternatively carry the match."""
        for name in self.schema.table_names:
            fks = self.schema.table(name).foreign_keys
            if len(fks) >= 2:
                picks = self.rng.choice(len(fks), size=2, replace=False)
                first, second = fks[int(picks[0])], fks[int(picks[1])]
                target = first.ref_table
                disjunction = (
                    f"({name}.{first.column} = {target}.{first.ref_column}"
                    f" or {name}.{second.column} = {target}.{first.ref_column})"
                )
                filters = self._draw_filters([name, target], 1)
                return self._assemble(
                    "count(*)", [name, target], [disjunction] + filters
                )
        return None

    def _make_disjunctive_filter(self) -> str | None:
        table = self._single_table()
        columns = self._value_columns(table)
        if not columns:
            return None
        first = columns[int(self.rng.integers(0, len(columns)))]
        second = columns[int(self.rng.integers(0, len(columns)))]
        disjunction = (
            f"({self._comparison(table, first)}"
            f" or {self._comparison(table, second)})"
        )
        return self._assemble("count(*)", [table], [disjunction])

    def _make_in_filter(self) -> str | None:
        table = self._single_table()
        columns = self._value_columns(table)
        if not columns:
            return None
        column = columns[int(self.rng.integers(0, len(columns)))]
        return self._assemble(
            "count(*)", [table], [self._in_filter(table, column)]
        )

    def _draw_sql(self, kind: str) -> str | None:
        """Dispatch one candidate draw for ``kind`` (``None`` = unsupported)."""
        if kind == "count_single":
            return self._make_count_single()
        if kind == "count_join":
            return self._make_count_join()
        if kind == "sum_single":
            return self._make_agg_single("sum")
        if kind == "avg_single":
            return self._make_agg_single("avg")
        if kind == "agg_join":
            return self._make_agg_join()
        if kind == "select_star":
            return self._make_select_star()
        if kind == "disjunctive_join":
            return self._make_disjunctive_join()
        if kind == "disjunctive_filter":
            return self._make_disjunctive_filter()
        if kind == "in_filter":
            return self._make_in_filter()
        raise ValueError(f"unknown query kind {kind!r}")

    # -- public API -------------------------------------------------------

    def generate(self, count: int, prefix: str = "q") -> list[SynthQuery]:
        """Draw ``count`` distinct, plannable queries named ``{prefix}NN``.

        Every candidate is parsed and planned before acceptance; candidates
        the planner rejects (or duplicates of already-drawn SQL) are simply
        redrawn, bounded by an attempts cap so a degenerate schema cannot
        loop forever.
        """
        results: list[SynthQuery] = []
        attempts = 0
        max_attempts = max(count, 1) * 60
        while len(results) < count and attempts < max_attempts:
            attempts += 1
            kind = self._kinds[
                int(self.rng.choice(len(self._kinds), p=self._probabilities))
            ]
            sql = self._draw_sql(kind)
            if sql is None or sql in self._seen_sql:
                continue
            name = f"{prefix}{len(results):02d}"
            try:
                query = parse_query(sql, self.schema, name=name)
                build_plan(query, self.schema)
            except (SQLParseError, PlannerError):  # pragma: no cover - guard
                continue
            self._seen_sql.add(sql)
            pk_columns: tuple[str, ...] = ()
            if kind == "select_star":
                # The oracle counts what the engine materialises and sums
                # each joined table's primary key over it; primary keys are
                # integers in the engine's result and in the SQLite export
                # alike, so the sums compare exactly.
                pk_columns = tuple(
                    f"{table}.{self.schema.table(table).primary_key}"
                    for table in query.tables
                    if self.schema.table(table).primary_key
                )
                sums = "".join(f", sum({column})" for column in pk_columns)
                oracle_sql = "select count(*)" + sums + sql[len("select *"):]
            else:
                oracle_sql = sql
            results.append(
                SynthQuery(
                    name=name,
                    kind=kind,
                    sql=sql,
                    oracle_sql=oracle_sql,
                    query=query,
                    pk_columns=pk_columns,
                )
            )
        return results


def synthesize_scenario(config: SynthConfig) -> SynthScenario:
    """Draw one complete scenario from ``config`` (deterministic per seed)."""
    rng = np.random.default_rng(config.seed)
    topology, schema, database = SchemaSynthesizer(config, rng).build()
    synthesizer = QuerySynthesizer(config, schema, database, rng)
    queries = tuple(synthesizer.generate(config.num_queries, prefix="q"))
    batches: list[tuple[SynthQuery, ...]] = []
    for batch in range(config.delta_batches):
        batches.append(
            tuple(synthesizer.generate(config.delta_queries, prefix=f"d{batch}_"))
        )
    return SynthScenario(
        config=config,
        topology=topology,
        schema=schema,
        database=database,
        queries=queries,
        delta_batches=tuple(batches),
    )

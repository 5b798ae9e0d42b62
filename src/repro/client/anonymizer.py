"""Anonymisation layer for the client's information package.

The paper notes that "privacy concerns can be addressed by passing the
information through an appropriate anonymization layer at the client".  The
information package already contains no tuples; what may still leak are
readable identifiers (table/column names), readable categorical values
(string dictionaries) and fine-grained statistics.  The anonymiser offers
three independent, composable measures:

* **pseudonymise identifiers** — tables and columns are renamed ``t1``,
  ``t1_c3`` ... consistently across the schema, the statistics and every AQP,
  and a private mapping is returned so the client can interpret vendor
  reports;
* **pseudonymise string dictionaries** — categorical values become opaque
  codes (``v0``, ``v1`` ...) while preserving their order and frequencies;
* **coarsen statistics** — most-common-value lists and histogram bounds can be
  truncated to a configurable resolution.

Cardinality annotations are never modified: they are exactly the signal the
regeneration needs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from ..catalog.schema import Column, ForeignKey, Schema, Table
from ..catalog.types import StringType
from .package import InformationPackage

__all__ = ["AnonymizationMap", "Anonymizer"]


@dataclass
class AnonymizationMap:
    """The private client-side mapping from pseudonyms back to real names."""

    tables: dict[str, str] = field(default_factory=dict)          # real -> pseudonym
    columns: dict[tuple[str, str], str] = field(default_factory=dict)


@dataclass
class Anonymizer:
    """Applies anonymisation measures to an :class:`InformationPackage`."""

    rename_identifiers: bool = True
    pseudonymize_strings: bool = True
    max_mcvs: int | None = None
    max_histogram_bounds: int | None = None

    def anonymize(
        self, package: InformationPackage
    ) -> tuple[InformationPackage, AnonymizationMap]:
        """Return an anonymised copy of the package plus the private mapping."""
        mapping = AnonymizationMap()
        payload = copy.deepcopy(package.to_dict())

        if self.rename_identifiers:
            self._build_mapping(package.metadata.schema, mapping)
            payload = self._rename_payload(payload, mapping)

        anonymized = InformationPackage.from_dict(payload)

        if self.pseudonymize_strings:
            self._pseudonymize_strings(anonymized)
        if self.max_mcvs is not None or self.max_histogram_bounds is not None:
            self._coarsen_statistics(anonymized)

        anonymized.client_name = "anonymous"
        anonymized.notes = "anonymized"
        return anonymized, mapping

    # -- identifier renaming -------------------------------------------------

    def _build_mapping(self, schema: Schema, mapping: AnonymizationMap) -> None:
        for table_index, table in enumerate(sorted(schema.table_names)):
            pseudonym = f"t{table_index + 1}"
            mapping.tables[table] = pseudonym
            for column_index, column in enumerate(schema.table(table).column_names):
                mapping.columns[(table, column)] = f"{pseudonym}_c{column_index + 1}"

    def _rename_payload(self, payload: Any, mapping: AnonymizationMap) -> Any:
        """Rewrite every table/column name in the serialised package.

        The JSON structure is rewritten rather than the live objects so that
        all occurrences (schema, statistics, query filters, join conditions,
        plan nodes) are handled uniformly.
        """
        column_by_table: dict[str, dict[str, str]] = {}
        for (table, column), pseudonym in mapping.columns.items():
            column_by_table.setdefault(table, {})[column] = pseudonym

        def rename_schema(schema_payload: dict) -> dict:
            schema = Schema.from_dict(schema_payload)
            tables = []
            for table in schema:
                columns = [
                    Column(
                        name=column_by_table[table.name][column.name],
                        dtype=column.dtype,
                        nullable=column.nullable,
                    )
                    for column in table.columns
                ]
                foreign_keys = [
                    ForeignKey(
                        column=column_by_table[table.name][fk.column],
                        ref_table=mapping.tables[fk.ref_table],
                        ref_column=column_by_table[fk.ref_table][fk.ref_column],
                    )
                    for fk in table.foreign_keys
                ]
                tables.append(
                    Table(
                        name=mapping.tables[table.name],
                        columns=columns,
                        primary_key=(
                            column_by_table[table.name][table.primary_key]
                            if table.primary_key
                            else None
                        ),
                        foreign_keys=foreign_keys,
                    )
                )
            return Schema.from_tables(tables).to_dict()

        payload["metadata"]["schema"] = rename_schema(payload["metadata"]["schema"])

        statistics = payload["metadata"].get("statistics", {})
        renamed_statistics = {}
        for table, table_stats in statistics.items():
            new_table = mapping.tables.get(table, table)
            table_stats = copy.deepcopy(table_stats)
            table_stats["table"] = new_table
            renamed_columns = {}
            for column, column_stats in table_stats.get("columns", {}).items():
                new_column = column_by_table.get(table, {}).get(column, column)
                column_stats["column"] = new_column
                renamed_columns[new_column] = column_stats
            table_stats["columns"] = renamed_columns
            renamed_statistics[new_table] = table_stats
        payload["metadata"]["statistics"] = renamed_statistics

        def rename_predicate(node: dict, table: str) -> None:
            if "column" in node:
                node["column"] = column_by_table.get(table, {}).get(node["column"], node["column"])
            for child in node.get("children", []):
                rename_predicate(child, table)
            if "child" in node and isinstance(node["child"], dict):
                rename_predicate(node["child"], table)

        def rename_join(join: dict) -> None:
            left, right = join["left_table"], join["right_table"]
            join["left_column"] = column_by_table.get(left, {}).get(join["left_column"], join["left_column"])
            join["right_column"] = column_by_table.get(right, {}).get(join["right_column"], join["right_column"])
            join["left_table"] = mapping.tables.get(left, left)
            join["right_table"] = mapping.tables.get(right, right)

        def rename_plan(node: dict) -> None:
            table = node.get("table")
            if node.get("operator") == "FILTER" and table is not None:
                rename_predicate(node.get("predicate", {}), table)
            if table is not None:
                node["table"] = mapping.tables.get(table, table)
            if "condition" in node:
                rename_join(node["condition"])
            for key in ("child", "left", "right"):
                if key in node and isinstance(node[key], dict):
                    rename_plan(node[key])

        for aqp in payload.get("aqps", []):
            query = aqp["query"]
            filters = {}
            for table, predicate in query.get("filters", {}).items():
                rename_predicate(predicate, table)
                filters[mapping.tables.get(table, table)] = predicate
            query["filters"] = filters
            for join in query.get("joins", []):
                rename_join(join)
            query["tables"] = [mapping.tables.get(t, t) for t in query["tables"]]
            query["sql"] = ""  # the original SQL text is identifying; drop it
            rename_plan(aqp["plan"])
        return payload

    # -- value / statistics anonymisation --------------------------------------

    def _pseudonymize_strings(self, package: InformationPackage) -> None:
        for table in package.metadata.schema:
            for column in table.columns:
                if isinstance(column.dtype, StringType) and column.dtype.dictionary:
                    pseudonyms = tuple(
                        f"v{i}" for i in range(len(column.dtype.dictionary))
                    )
                    # Columns are frozen dataclasses; rebuild the column list.
                    new_column = Column(
                        name=column.name,
                        dtype=StringType(dictionary=pseudonyms),
                        nullable=column.nullable,
                    )
                    index = table.columns.index(column)
                    table.columns[index] = new_column

    def _coarsen_statistics(self, package: InformationPackage) -> None:
        for table_stats in package.metadata.statistics.values():
            for column_stats in table_stats.columns.values():
                if self.max_mcvs is not None:
                    column_stats.most_common_values = column_stats.most_common_values[: self.max_mcvs]
                    column_stats.most_common_freqs = column_stats.most_common_freqs[: self.max_mcvs]
                if self.max_histogram_bounds is not None and column_stats.histogram_bounds:
                    bounds = column_stats.histogram_bounds
                    if len(bounds) > self.max_histogram_bounds:
                        step = max(1, len(bounds) // self.max_histogram_bounds)
                        column_stats.histogram_bounds = bounds[::step] + [bounds[-1]]

"""Referential-integrity post-processing of a database summary.

The paper's architecture runs a post-processing step after per-relation
solving "to ensure that referential constraints are not violated across the
solutions", accepting that it "may incur minor additive errors".  In this
reproduction the deterministic alignment already bounds FK reference intervals
by the referenced relation's regenerated size, so in the common case this pass
finds nothing to fix; it exists for the cases where it must act:

* injected what-if scenarios whose referenced relation shrank below the
  interval a referencing region was aligned to;
* summaries edited or assembled by hand (scenario construction).

Every repair is recorded so the quality report can attribute the resulting
additive error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..sql.predicates import Interval, IntervalSet
from .summary import DatabaseSummary, FKReference, RelationSummary, SummaryRow

__all__ = ["ReferentialRepair", "ReferentialReport", "enforce_referential_integrity"]


@dataclass(frozen=True)
class ReferentialRepair:
    """One FK reference that had to be clamped or remapped."""

    table: str
    summary_row: int
    column: str
    ref_table: str
    affected_tuples: int
    action: str  # "clamped" or "remapped"


@dataclass
class ReferentialReport:
    """All repairs performed by one post-processing pass."""

    repairs: list[ReferentialRepair] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.repairs

    @property
    def affected_tuples(self) -> int:
        return sum(repair.affected_tuples for repair in self.repairs)

    def describe(self) -> str:
        if self.is_clean:
            return "referential integrity: no repairs needed"
        lines = [f"referential integrity: {len(self.repairs)} repairs"]
        for repair in self.repairs:
            lines.append(
                f"  {repair.table}[row {repair.summary_row}].{repair.column} -> "
                f"{repair.ref_table}: {repair.action} ({repair.affected_tuples} tuples)"
            )
        return "\n".join(lines)


def enforce_referential_integrity(
    summary: DatabaseSummary, only: Iterable[str] | None = None
) -> ReferentialReport:
    """Clamp every FK reference interval to the referenced relation's size.

    Rows are read-only, so a relation with a repaired row is replaced in
    ``summary`` by a new :class:`RelationSummary` of replacement rows;
    returns the list of repairs.  A
    reference whose intervals become empty after clamping is remapped to the
    full referenced pk range — the "minor additive error" case, since those
    tuples may now join with partners outside the intended predicate region.

    ``only`` restricts the pass to the named relations.  Incremental
    maintenance uses this for the relations it re-solved: the relations it
    left untouched *share* their row objects with the base summary, were
    already enforced by the base build, and reference totals that cannot
    have changed (the LP's row-count row is hard, and a row-count change
    marks every referencing relation as touched) — so skipping them
    avoids redundant work.
    """
    report = ReferentialReport()
    names = set(summary.relations) if only is None else set(only)
    for table_name, relation in list(summary.relations.items()):
        if table_name not in names:
            continue
        repaired = len(report.repairs)
        rows = []
        for row_index, row in enumerate(relation.rows):
            fk_refs = dict(row.fk_refs)
            for column, reference in row.fk_refs.items():
                ref_total = summary.row_count(reference.ref_table)
                bound = IntervalSet([Interval(0.0, float(ref_total))])
                clamped = reference.intervals.intersect(bound)
                if clamped == reference.intervals:
                    continue
                fk_refs[column] = FKReference(
                    ref_table=reference.ref_table, intervals=bound if clamped.is_empty else clamped
                )
                report.repairs.append(
                    ReferentialRepair(
                        table=table_name,
                        summary_row=row_index,
                        column=column,
                        ref_table=reference.ref_table,
                        affected_tuples=row.count,
                        action="remapped" if clamped.is_empty else "clamped",
                    )
                )
            rows.append(SummaryRow(row.count, row.values, fk_refs))
        if len(report.repairs) > repaired:
            summary.add_relation(RelationSummary(table=table_name, rows=rows))
    return report

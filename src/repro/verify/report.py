"""Textual quality reports (the vendor screen of the demo, sans GUI).

Everything the demo's vendor interface visualises — the per-relation summary
table, the LP complexity table, the constraint-satisfaction CDF and the
per-query AQP comparison with relative errors — is rendered here as plain
text so that the examples and the CLI (``hydra vendor``, ``hydra verify``)
can print it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.pipeline import SummaryBuildReport
from ..core.summary import DatabaseSummary
from ..core.tuplegen import TupleGenerator
from ..plans.aqp import AnnotatedQueryPlan
from .comparator import VerificationResult

__all__ = [
    "format_summary_table",
    "format_error_cdf",
    "format_aqp_comparison",
    "format_sample_tuples",
    "QualityReport",
]


def format_summary_table(summary: DatabaseSummary) -> str:
    """Per-relation overview: summary rows, regenerated rows, size."""
    lines = [f"{'relation':<20} {'summary rows':>14} {'regenerated rows':>18}"]
    for name, relation in summary.relations.items():
        lines.append(f"{name:<20} {len(relation.rows):>14} {relation.total_rows:>18}")
    lines.append(f"summary size: {summary.size_bytes()} bytes")
    return "\n".join(lines)


def format_relation_summary(
    summary: DatabaseSummary, relation: str, limit_rows: int = 10
) -> str:
    """The #TUPLES view of one relation (Figure 4, top-middle panel)."""
    table = summary.schema.table(relation)
    rel_summary = summary.relation(relation)
    value_columns = [c.name for c in table.columns if c.name != table.primary_key]
    header = f"{'#TUPLES':>10} | " + " | ".join(f"{name}" for name in value_columns)
    lines = [header, "-" * len(header)]
    for row in rel_summary.rows[:limit_rows]:
        cells = []
        for name in value_columns:
            if name in row.fk_refs:
                ref = row.fk_refs[name]
                cells.append(f"{ref.ref_table}{list(map(repr, ref.intervals))}")
            else:
                column = table.column(name)
                cells.append(str(column.dtype.decode(row.values.get(name, 0.0))))
        lines.append(f"{row.count:>10} | " + " | ".join(cells))
    if len(rel_summary.rows) > limit_rows:
        lines.append(f"... ({len(rel_summary.rows) - limit_rows} more summary rows)")
    return "\n".join(lines)


def format_error_cdf(result: VerificationResult) -> str:
    """Constraint-satisfaction CDF (Figure 4, bottom-left quality graph)."""
    lines = [f"{'relative error ≤':>18} {'constraints satisfied':>22}"]
    for threshold, fraction in result.error_cdf():
        lines.append(f"{threshold:>17.0%} {fraction:>21.1%}")
    lines.append(
        f"edges compared: {result.total_edges}, "
        f"max relative error: {result.max_relative_error():.2%}, "
        f"mean: {result.mean_relative_error():.3%}"
    )
    return "\n".join(lines)


def format_aqp_comparison(
    aqp: AnnotatedQueryPlan, result: VerificationResult
) -> str:
    """Per-query AQP comparison with relative errors (Figure 4, bottom right)."""
    lines = [f"-- {aqp.name}", aqp.query.sql or "(programmatic query)"]
    for comparison in result.by_query(aqp.name):
        lines.append(
            f"  {comparison.description:<55} original={comparison.original:>10} "
            f"regenerated={comparison.regenerated:>10} err={comparison.relative_error:.2%}"
        )
    return "\n".join(lines)


def format_sample_tuples(
    generator: TupleGenerator, indices: Sequence[int], columns: Sequence[str] | None = None
) -> str:
    """Sample regenerated tuples (the paper's Table 1)."""
    table = generator.table
    names = list(columns) if columns is not None else table.column_names
    header = " | ".join(f"{name}" for name in names)
    lines = [header, "-" * len(header)]
    positions = {name: table.column_names.index(name) for name in names}
    for index in indices:
        row = generator.decoded_row(int(index))
        lines.append(" | ".join(str(row[positions[name]]) for name in names))
    return "\n".join(lines)


@dataclass
class QualityReport:
    """Bundle of everything the vendor screen shows, renderable as text."""

    summary: DatabaseSummary
    build_report: SummaryBuildReport
    verification: VerificationResult
    aqps: list[AnnotatedQueryPlan]

    def render(self, per_query: bool = False) -> str:
        sections = [
            "== database summary ==",
            format_summary_table(self.summary),
            "",
            "== summary construction ==",
            self.build_report.describe(),
            "",
            "== volumetric similarity ==",
            format_error_cdf(self.verification),
        ]
        if per_query:
            sections.append("")
            sections.append("== per-query AQP comparison ==")
            for aqp in self.aqps:
                sections.append(format_aqp_comparison(aqp, self.verification))
        return "\n".join(sections)


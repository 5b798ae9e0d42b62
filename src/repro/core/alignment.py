"""Deterministic alignment: from LP region counts to a relation summary.

This is the "Summary Generator" of the paper's architecture.  Its central
idea — the *deterministic alignment strategy* — is that the tuples of each
region are assigned a **contiguous block of primary-key indices** in a fixed
canonical region order.  Two things follow immediately:

* any predicate that was part of the partition corresponds to a union of
  whole regions, hence to a union of contiguous pk-index intervals; and
* a constraint that some *other* relation borrowed through a foreign key
  ("R.fk must reference an S-tuple satisfying Q") can therefore be grounded
  into an interval condition on the FK column, making the referencing
  relation's LP just as small and its constraints exactly satisfiable.

That is why summary construction is deterministic and exact, in contrast to
the sampling strategy of DataSynth (reproduced in :mod:`repro.core.sampling`
for the ablation experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Table
from ..catalog.statistics import TableStatistics
from ..sql.predicates import BoxCondition, Interval, IntervalSet
from .regions import Region
from .summary import FKReference, RelationSummary, SummaryRow

__all__ = ["AlignedRelation", "DeterministicAligner"]


@dataclass
class AlignedRelation:
    """A relation's summary plus the region bookkeeping other relations need.

    The summary alone is what gets serialised and shipped; the aligned
    regions (and the per-region primary-key offsets of the deterministic
    alignment) stay in memory during pipeline execution so that referencing
    relations can ground their borrowed predicates into pk-index intervals.
    """

    table: Table
    summary: RelationSummary
    regions: list[Region]
    counts: NDArray[Any]

    def __post_init__(self) -> None:
        ordered = np.asarray(
            [max(0, int(self.counts[region.index])) for region in self.regions],
            dtype=np.int64,
        )
        self._region_starts = np.concatenate(([0], np.cumsum(ordered)))
        self._region_counts = ordered

    @property
    def total_rows(self) -> int:
        return int(self._region_starts[-1]) if len(self._region_starts) else 0

    def pk_interval_of_region(self, position: int) -> tuple[int, int]:
        """``[start, end)`` pk indices assigned to the region at ``position``."""
        return int(self._region_starts[position]), int(self._region_starts[position + 1])

    def pk_intervals_matching(self, box: BoxCondition) -> IntervalSet:
        """Union of pk-index intervals of the regions contained in ``box``.

        Exact whenever ``box`` is one of the predicates the partition was
        built from (which the pipeline guarantees for borrowed predicates):
        every region is then contained in the box or disjoint from it.
        Regions that merely overlap the box are included conservatively so an
        unregistered probe still yields a usable superset.
        """
        discrete = {column.name: column.dtype.is_discrete for column in self.table.columns}
        intervals: list[Interval] = []
        for position, region in enumerate(self.regions):
            start, end = self.pk_interval_of_region(position)
            if end > start and region.overlaps(box, discrete):
                intervals.append(Interval(float(start), float(end)))
        return IntervalSet(intervals)


@dataclass
class DeterministicAligner:
    """Builds a :class:`RelationSummary` from regions and integral counts."""

    statistics: TableStatistics | None = None
    fill_unconstrained_from_statistics: bool = True

    def align(
        self,
        table: Table,
        regions: Sequence[Region],
        counts: NDArray[Any] | Sequence[int],
        ref_row_counts: Mapping[str, int] | None = None,
        domain: BoxCondition | None = None,
    ) -> AlignedRelation:
        """Assign contiguous pk blocks per region and emit summary rows.

        ``counts`` must be indexed by ``region.index``; ``ref_row_counts``
        gives the (regenerated) size of each referenced relation, used to
        bound FK reference intervals.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(regions),):
            raise ValueError("counts must have one entry per region")

        # Summary rows are emitted in canonical region order so that the
        # contiguous pk blocks implied by their counts line up with the
        # AlignedRelation's per-region offsets.  Regions the LP left empty are
        # skipped — they would only bloat the summary (the offsets are
        # unaffected because empty regions occupy zero pk positions).
        ordered = sorted(regions, key=lambda region: region.index)
        rows = [
            self._summary_row(table, region, int(counts[region.index]), ref_row_counts, domain)
            for region in ordered
            if int(counts[region.index]) > 0
        ]
        summary = RelationSummary(table=table.name, rows=rows)

        return AlignedRelation(
            table=table,
            summary=summary,
            regions=list(ordered),
            counts=counts,
        )

    # -- internals --------------------------------------------------------

    def _summary_row(
        self,
        table: Table,
        region: Region,
        count: int,
        ref_row_counts: Mapping[str, int] | None,
        domain: BoxCondition | None,
    ) -> SummaryRow:
        box = region.representative_box()
        values: dict[str, float] = {}
        fk_refs: dict[str, FKReference] = {}

        for column in table.columns:
            if column.name == table.primary_key:
                continue
            fk = table.foreign_key_for(column.name)
            condition = box.condition_for(column.name)
            if fk is not None:
                fk_refs[column.name] = self._fk_reference(
                    fk.ref_table, condition, ref_row_counts
                )
                continue
            values[column.name] = self._representative_value(
                column.name, condition, column.dtype.is_discrete, domain
            )

        return SummaryRow(count=max(0, count), values=values, fk_refs=fk_refs)

    def _fk_reference(
        self,
        ref_table: str,
        condition: IntervalSet,
        ref_row_counts: Mapping[str, int] | None,
    ) -> FKReference:
        bound = None
        if ref_row_counts is not None and ref_table in ref_row_counts:
            bound = IntervalSet([Interval(0.0, float(ref_row_counts[ref_table]))])
        intervals = condition
        if bound is not None:
            intervals = intervals.intersect(bound) if not intervals.is_everything else bound
        if intervals.is_everything:
            # No information at all about the referenced size: leave the full
            # line; referential post-processing will clamp it later.
            intervals = IntervalSet([Interval(0.0, float("inf"))])
        return FKReference(ref_table=ref_table, intervals=intervals)

    def _representative_value(
        self,
        column: str,
        condition: IntervalSet,
        discrete: bool,
        domain: BoxCondition | None,
    ) -> float:
        constrained = condition
        if domain is not None:
            domain_condition = domain.condition_for(column)
            if constrained.is_everything:
                constrained = domain_condition
            elif not domain_condition.is_everything:
                narrowed = constrained.intersect(domain_condition)
                if not narrowed.is_empty:
                    constrained = narrowed

        if constrained.is_everything or constrained.is_empty:
            return self._default_value(column)

        if self.fill_unconstrained_from_statistics and self._matches_full_domain(
            column, constrained, domain
        ):
            return self._default_value(column)

        try:
            return constrained.representative(discrete=discrete)
        except ValueError:
            return self._default_value(column)

    def _matches_full_domain(
        self, column: str, condition: IntervalSet, domain: BoxCondition | None
    ) -> bool:
        if domain is None:
            return False
        domain_condition = domain.condition_for(column)
        if domain_condition.is_everything:
            return False
        return condition == domain_condition

    def _default_value(self, column: str) -> float:
        """Value for a column the workload never constrains.

        The most common value from the client statistics keeps the
        regenerated data plausible; 0 is the documented fallback.
        """
        if self.statistics is not None and column in self.statistics.columns:
            stats = self.statistics.columns[column]
            if stats.most_common_values:
                return float(stats.most_common_values[0])
            if stats.min_value is not None:
                return float(stats.min_value)
        return 0.0

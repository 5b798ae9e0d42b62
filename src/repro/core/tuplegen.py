"""On-demand tuple generation from a relation summary.

The Tuple Generator is what makes the regenerated database *dataless*: row
``i`` of any relation can be produced in ``O(log #summary-rows)`` without
generating its predecessors, so the scan operator can stream tuples during
query execution (the paper's ``datagen`` feature) and arbitrary-size databases
never need to be materialised.

Generation rules (matching the paper's Figure 4 / Table 1):

* the primary key is the auto-number ``i`` itself;
* every non-key attribute takes the representative value stored in the
  summary row covering ``i``;
* every foreign-key attribute takes the ``offset``-th admissible referenced
  pk index, round-robin over the row's reference intervals, where ``offset``
  is the tuple's position within its summary row — this deterministic spread
  preserves the borrowed join cardinalities exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Table
from ..sql.predicates import BoxCondition, columns_with_dependencies
from ..telemetry.session import add_counter
from .errors import SummaryError
from .summary import RelationSummary, fill_run

__all__ = ["TupleGenerator", "first_owned_batch_start"]

def first_owned_batch_start(segment_start: int, lo: int, batch_size: int) -> int:
    """First segment-anchored batch start at or after ``lo``.

    Batches of a summary segment are anchored at ``segment_start`` and a
    batch is *owned* by the shard window containing its start.  This single
    rule is shared by the serial iterator's ``offsets`` window and the shard
    planner's work estimates (:mod:`repro.parallel.sharding`) so the two can
    never drift apart.
    """
    if lo <= segment_start:
        return segment_start
    return segment_start + ((lo - segment_start + batch_size - 1) // batch_size) * batch_size


@dataclass
class TupleGenerator:
    """Row source regenerating one relation from its summary."""

    table: Table
    summary: RelationSummary

    def __post_init__(self) -> None:
        if self.table.name != self.summary.table:
            raise SummaryError(
                f"summary is for {self.summary.table!r}, table is {self.table.name!r}"
            )

    # -- provider protocol -------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.summary.total_rows

    @property
    def column_names(self) -> list[str]:
        return self.table.column_names

    def row(self, index: int) -> tuple:
        """Generate the ``index``-th tuple (encoded values, schema order)."""
        position, offset = self.summary.locate(index)
        summary_row = self.summary.rows[position]
        values = []
        for column in self.table.columns:
            if column.name == self.table.primary_key:
                values.append(index)
            elif column.name in summary_row.fk_refs:
                values.append(summary_row.fk_refs[column.name].kth_target(offset))
            else:
                values.append(summary_row.values.get(column.name, 0.0))
        return tuple(values)

    def decoded_row(self, index: int) -> tuple[Any, ...]:
        """Generate row ``index`` with values decoded to external types."""
        encoded = self.row(index)
        return tuple(
            column.dtype.decode(value)
            for column, value in zip(self.table.columns, encoded)
        )

    # -- vectorised block generation ---------------------------------------

    def _dtypes(self, columns: Sequence[str]) -> dict[str, Any]:
        """The schema dtype of each of ``columns`` (``KeyError`` for an unknown one)."""
        for name in columns:
            if not self.table.has_column(name):
                raise KeyError(f"table {self.table.name!r} has no column {name!r}")
        return {name: self.table.column(name).dtype.numpy_dtype for name in columns}

    def _fill_segment(
        self,
        arrays: dict[str, NDArray[Any]],
        out: slice,
        position: int,
        start: int,
        offset: int,
        take: int,
    ) -> None:
        """The per-segment kernel: rows ``[start, start + take)`` into ``arrays[...][out]``.

        All ``take`` rows lie inside summary row ``position``, the first of
        them ``offset`` tuples into it; this is the one place the generation
        rules of the module docstring are vectorised.
        """
        summary_row = self.summary.rows[position]
        for name, values in arrays.items():
            if name == self.table.primary_key:
                fill_run(values[out], start)
            elif name in summary_row.fk_refs:
                summary_row.fk_refs[name].fill_targets(values[out], offset)
            else:
                values[out] = summary_row.values.get(name, 0.0)

    def generate_block(
        self, start: int, count: int, columns: Sequence[str] | None = None
    ) -> dict[str, NDArray[Any]]:
        """Generate ``count`` consecutive rows starting at ``start``.

        Random access by offset: the reference the segment-anchored stream
        (:meth:`iter_filtered_blocks`) is tested against, assembled from the
        same per-segment kernel.  The cost is proportional to the number of
        touched summary rows plus the output size, not to the relation size.
        """
        total = self.row_count
        if count < 0 or start < 0 or start + count > total:
            raise IndexError(
                f"block [{start}, {start + count}) out of range for "
                f"{self.table.name!r} with {total} rows"
            )
        requested = columns if columns is not None else self.column_names
        arrays = {
            name: np.empty(count, dtype=dtype) for name, dtype in self._dtypes(requested).items()
        }
        cursor, end = start, start + count
        while cursor < end:
            position, offset = self.summary.locate(cursor)
            take = min(self.summary.pk_interval_of_row(position)[1], end) - cursor
            out = slice(cursor - start, cursor - start + take)
            self._fill_segment(arrays, out, position, cursor, offset, take)
            cursor += take
        return arrays

    def iter_filtered_blocks(
        self,
        box: BoxCondition,
        batch_size: int = 8192,
        columns: Sequence[str] | None = None,
        skip_box: BoxCondition | None = None,
        offsets: tuple[int, int] | None = None,
        out: dict[str, NDArray[Any]] | None = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """The relation's one block stream: ``(start, generated, matched, block)``.

        Every block lies inside a single summary row: batches are anchored at
        segment starts (:func:`first_owned_batch_start`), never at offset 0.
        ``block`` holds the requested columns restricted to the rows of the
        batch that satisfy ``box`` — the unfiltered stream is the empty-box
        case; ``generated`` is how many tuples were actually produced for the
        batch (the velocity the rate limiter should pace).  Summary-row
        segments that provably cannot contain a match
        (:meth:`RelationSummary.excluded`, one mask per stream) are skipped
        without generating a single tuple, so a selective scan costs
        O(matching summary rows + output), not O(relation size) — and peak
        memory stays O(batch_size).

        ``skip_box`` is an *additional* condition (in practice a semi-join
        pushdown on a foreign-key column) whose rows the consumer does not
        need, but whose exclusion must not disturb the ``matched`` accounting
        for ``box``.  A segment that provably cannot satisfy ``skip_box`` is
        skipped by yielding ``(segment_start, 0, matched, {})`` where
        ``matched`` is the *exact* number of the segment's tuples satisfying
        ``box`` (the per-row counts of the box's fold,
        :meth:`~repro.core.columns.SummaryColumns.matched`); when that count
        is not exactly computable the segment is generated normally so the
        consumer can mask it itself.

        ``offsets`` restricts the stream to the shard ``[lo, hi)`` of the pk
        offset space: exactly the yields of the unrestricted stream whose
        ``start`` lies in the shard are produced, and a batch owned by the
        shard is generated in full even when it extends past ``hi``.
        Concatenating the streams of any contiguous partition of
        ``[0, row_count)`` in shard order is therefore yield-for-yield
        identical to the serial stream, which is the contract
        ``repro.parallel`` workers rely on.

        ``out`` maps each requested column to an array with room for exactly
        the rows the stream's blocks carry (the matched rows, less those of
        segments ``skip_box`` skips).  The rows are then written into it
        consecutively and each yielded block is the view of ``out`` just
        written; the yields are otherwise those of the buffered stream.  A
        segment every tuple of which satisfies ``box`` (its per-row count is
        its tuple count; every segment of the unfiltered stream) is
        generated straight into ``out`` — no batch buffer, no box evaluation
        — and a partly matching one into a batch buffer, of which only the
        matches are copied.  A stream that ends with ``out`` not
        filled to its end raises ``ValueError``.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        requested = list(columns) if columns is not None else self.column_names
        dtypes = self._dtypes(columns_with_dependencies(requested, box.conditions))
        if out is not None and sorted(out) != sorted(requested):
            raise ValueError(f"out holds {sorted(out)}, the stream yields {sorted(requested)}")
        pk = self.table.primary_key
        lo, hi = offsets if offsets is not None else (0, self.row_count)
        # Fast-forward to the first segment that can own a yield: every
        # earlier segment ends at or before ``lo``.  Keeps a shard window
        # O(#covered segments), not O(#summary rows).
        first_position = self.summary.locate(lo)[0] if 0 < lo < self.row_count else 0
        excluded = self.summary.excluded(box, pk_column=pk)
        matched_rows = None
        if skip_box is not None or (out is not None and box.conditions):
            matched_rows = self.summary.columns.matched(box, pk)
        # Per row: the exact ``box`` count of a segment ``skip_box`` excludes, else -1.
        skipped = None
        if skip_box is not None:
            skipped = np.where(self.summary.excluded(skip_box, pk_column=pk), matched_rows, -1)
        # Per row: every tuple satisfies ``box``, so the segment is generated into ``out``.
        whole = np.zeros(len(self.summary.rows), dtype=bool)
        if out is not None:
            whole = (
                np.ones(len(self.summary.rows), dtype=bool)
                if matched_rows is None
                else matched_rows == self.summary.columns.counts
            )
        written = 0
        for position in range(first_position, len(self.summary.rows)):
            segment_start, segment_end = self.summary.pk_interval_of_row(position)
            if segment_end <= segment_start:
                continue
            if segment_start >= hi:
                break  # segments are ordered: no later yield can start < hi
            if segment_end <= lo:
                continue  # every yield of this segment starts before lo
            if excluded[position]:
                add_counter("tuplegen.segments_skipped")
                continue
            if skipped is not None and skipped[position] >= 0:
                add_counter("tuplegen.segments_semijoin_skipped")
                if skipped[position] and segment_start >= lo:
                    yield segment_start, 0, int(skipped[position]), {}
                continue
            add_counter("tuplegen.segments_scanned")
            # First batch whose (segment-anchored) start falls in the shard.
            cursor = first_owned_batch_start(segment_start, lo, batch_size)
            while cursor < segment_end and cursor < hi:
                take = min(batch_size, segment_end - cursor)
                if out is not None and whole[position]:
                    view = {name: out[name][written : written + take] for name in requested}
                    self._fill_segment(
                        view, slice(None), position, cursor, cursor - segment_start, take
                    )
                    yield cursor, take, take, view
                    written += take
                    cursor += take
                    continue
                block = {name: np.empty(take, dtype=dtype) for name, dtype in dtypes.items()}
                self._fill_segment(
                    block, slice(None), position, cursor, cursor - segment_start, take
                )
                matched = take
                if box.conditions:  # (with ``out``, a box-free segment is whole)
                    mask = box.evaluate(block)
                    matched = int(mask.sum())
                    if out is not None:
                        view = {name: out[name][written : written + matched] for name in requested}
                        for name, values in view.items():
                            np.compress(mask, block[name], out=values)
                        block, written = view, written + matched
                    elif matched < take:
                        block = {name: block[name][mask] for name in requested}
                yield cursor, take, matched, {name: block[name] for name in requested}
                cursor += take
        if out and written != len(next(iter(out.values()))):
            raise ValueError(
                f"out has room for {len(next(iter(out.values())))} rows, the stream wrote {written}"
            )

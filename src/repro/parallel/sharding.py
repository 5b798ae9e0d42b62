"""Offset-space sharding for parallel regeneration.

Block generation is pure deterministic interval arithmetic over summary rows,
so a relation's pk offset space ``[0, total_rows)`` partitions perfectly: any
contiguous shard can be regenerated independently of every other shard, and
concatenating the shard streams in order reproduces the serial stream of
:meth:`~repro.core.tuplegen.TupleGenerator.iter_filtered_blocks` yield for
yield (its ``offsets`` window assigns every serial batch to exactly one shard
by batch start).

:class:`ShardPlan` chooses the shard boundaries, with two goals:

* **Balance** — the pushdown filters make per-offset cost wildly
  non-uniform: a summary segment excluded by the scan's box (or replaced by
  a semi-join count annotation) costs O(1) regardless of its tuple count,
  while a surviving segment costs O(tuples).  Cuts are therefore placed at
  quantiles of *generated-tuple* work — respecting ``box``/``skip_box``
  exactly like the serial iterator — and snapped to the segment-anchored
  batch grid so every cut coincides with a serial batch boundary.
* **Overlap** — the consumer merges shard streams back in offset order, so
  K huge contiguous shards would serialise the workers: while shard 0
  drains, workers 1..K-1 fill their bounded queues and then block.  The
  plan instead cuts the space into many small contiguous shards (*chunks*
  of roughly ``target_chunk_rows`` generated tuples) and deals them
  round-robin to the K workers.  The consumer's in-order drain then visits
  every worker once per K chunks, so each worker regenerates its next chunk
  while the others are being drained — full pipeline overlap with memory
  still bounded by the queues.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.summary import RelationSummary
from ..core.tuplegen import first_owned_batch_start
from ..sql.predicates import BoxCondition

__all__ = ["Shard", "ShardPlan"]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, end)`` of a relation's pk offset space.

    ``index`` is the shard's position in the global (serial) order and
    ``worker`` the worker lane it is dealt to (``index % workers``).
    """

    index: int
    start: int
    end: int
    estimated_rows: int
    worker: int = 0

    @property
    def offsets(self) -> tuple[int, int]:
        """The window to pass to ``iter_filtered_blocks(offsets=...)``."""
        return (self.start, self.end)

    @property
    def is_empty(self) -> bool:
        """Whether the shard covers no offsets at all."""
        return self.end <= self.start


@dataclass(frozen=True)
class ShardPlan:
    """A balanced contiguous partition of one relation's offset space."""

    table: str
    total_rows: int
    batch_size: int
    workers: int
    shards: tuple[Shard, ...]

    def __len__(self) -> int:
        """The number of shards (chunks), including empty ones."""
        return len(self.shards)

    def non_empty_shards(self) -> list[Shard]:
        """The shards that cover at least one offset, in global order."""
        return [shard for shard in self.shards if not shard.is_empty]

    def worker_windows(self) -> list[list[tuple[int, int]]]:
        """Per worker, the ordered offset windows it regenerates."""
        windows: list[list[tuple[int, int]]] = [[] for _ in range(self.workers)]
        for shard in self.shards:
            if not shard.is_empty:
                windows[shard.worker].append(shard.offsets)
        return windows

    def validate(self) -> None:
        """Check the invariants the ordered merge relies on.

        The shards must be disjoint, contiguous, ordered, cover
        ``[0, total_rows)``, and be assigned to valid worker lanes.
        """
        cursor = 0
        for position, shard in enumerate(self.shards):
            if shard.index != position or shard.start != cursor or shard.end < shard.start:
                raise ValueError(
                    f"shard plan for {self.table!r} is not a contiguous "
                    f"partition at shard {shard.index}: [{shard.start}, {shard.end}) "
                    f"after offset {cursor}"
                )
            if not 0 <= shard.worker < self.workers:
                raise ValueError(
                    f"shard {shard.index} of {self.table!r} is assigned to "
                    f"worker {shard.worker} of {self.workers}"
                )
            cursor = shard.end
        if cursor != self.total_rows:
            raise ValueError(
                f"shard plan for {self.table!r} covers [0, {cursor}) "
                f"but the relation has {self.total_rows} rows"
            )

    @classmethod
    def build(
        cls,
        summary: RelationSummary,
        workers: int,
        batch_size: int = 8192,
        box: BoxCondition | None = None,
        skip_box: BoxCondition | None = None,
        pk_column: str | None = None,
        target_chunk_rows: int | None = None,
        max_chunks: int = 65536,
    ) -> "ShardPlan":
        """Partition ``summary``'s offset space for ``workers`` lanes.

        ``box``/``skip_box``/``pk_column`` must mirror the arguments the
        workers will pass to ``iter_filtered_blocks`` so the per-segment work
        estimate matches what each worker really generates.
        ``target_chunk_rows`` (default ``4 × batch_size``) sets the generated
        tuples per chunk; the chunk count is clamped to
        ``[workers, max_chunks]``.  The plan costs O(#summary rows +
        #chunks): no tuple-count-proportional work.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if target_chunk_rows is None:
            target_chunk_rows = 4 * batch_size
        target_chunk_rows = max(target_chunk_rows, batch_size)
        total = summary.total_rows
        segments = _segment_workloads(summary, box, skip_box, pk_column)
        total_work = sum(work for _start, _end, work in segments)
        if total == 0 or total_work == 0:
            shards = (
                Shard(index=0, start=0, end=total, estimated_rows=total_work, worker=0),
            )
            return cls(
                table=summary.table,
                total_rows=total,
                batch_size=batch_size,
                workers=workers,
                shards=shards,
            )

        chunk_count = max(workers, min(-(-total_work // target_chunk_rows), max_chunks))
        cuts: list[int] = []
        targets = [total_work * i / chunk_count for i in range(1, chunk_count)]
        work_before = 0
        previous_cut = 0
        position = 0
        for start, end, work in segments:
            work_end = work_before + work
            while position < len(targets) and targets[position] <= work_end:
                if work > 0:
                    # Snap the cut to the segment-anchored batch grid so it
                    # coincides with a serial batch boundary.
                    into_rows = targets[position] - work_before
                    grid = int(round(into_rows / batch_size))
                    cut = min(start + grid * batch_size, end)
                else:
                    cut = end
                cut = max(cut, previous_cut)
                cuts.append(cut)
                previous_cut = cut
                position += 1
            work_before = work_end
        while len(cuts) < chunk_count - 1:  # floating-point residue on the last targets
            cuts.append(total)

        boundaries = [0] + cuts + [total]
        estimates = _chunk_estimates(segments, boundaries, batch_size)
        shards = tuple(
            Shard(
                index=i,
                start=boundaries[i],
                end=boundaries[i + 1],
                estimated_rows=estimates[i],
                worker=i % workers,
            )
            for i in range(chunk_count)
        )
        plan = cls(
            table=summary.table,
            total_rows=total,
            batch_size=batch_size,
            workers=workers,
            shards=shards,
        )
        plan.validate()
        return plan


def _segment_workloads(
    summary: RelationSummary,
    box: BoxCondition | None,
    skip_box: BoxCondition | None,
    pk_column: str | None,
) -> list[tuple[int, int, int]]:
    """Per summary segment ``(start, end, generated_rows)`` work estimates.

    Mirrors the serial iterator's skip logic exactly: a segment excluded by
    ``box`` generates nothing; a segment excluded by ``skip_box`` whose
    ``box`` count is exactly computable is replaced by an O(1) annotation;
    everything else is generated in full.
    """
    effective_box = box if box is not None else BoxCondition({})
    excluded = summary.excluded(effective_box, pk_column=pk_column)
    if skip_box is not None:
        countable = summary.columns.matched(effective_box, pk_column) >= 0
        excluded |= countable & summary.excluded(skip_box, pk_column=pk_column)
    segments: list[tuple[int, int, int]] = []
    for position in range(len(summary.rows)):
        start, end = summary.pk_interval_of_row(position)
        if end > start:
            segments.append((start, end, 0 if excluded[position] else end - start))
    return segments


def _chunk_estimates(
    segments: list[tuple[int, int, int]], boundaries: list[int], batch_size: int
) -> list[int]:
    """Rows each chunk ``[boundaries[i], boundaries[i+1])`` will generate.

    A batch belongs to the chunk containing its (segment-anchored) start and
    is generated in full even when it extends past the chunk end, so each
    chunk's slice of a generating segment is rounded out to the grid.  One
    merged sweep over the ascending segments and boundaries:
    O(#segments + #chunks).
    """
    estimates = [0] * (len(boundaries) - 1)
    first_overlap = 0
    for index in range(len(boundaries) - 1):
        lo, hi = boundaries[index], boundaries[index + 1]
        while first_overlap < len(segments) and segments[first_overlap][1] <= lo:
            first_overlap += 1
        position = first_overlap
        while position < len(segments) and segments[position][0] < hi:
            start, end, work = segments[position]
            if work > 0:
                first = first_owned_batch_start(start, lo, batch_size)
                if first < end and first < hi:
                    last_start = start + ((hi - 1 - start) // batch_size) * batch_size
                    last_end = min(last_start + batch_size, end)
                    estimates[index] += last_end - first
            position += 1
    return estimates

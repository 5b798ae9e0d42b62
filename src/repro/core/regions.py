"""Region partitioning — HYDRA's LP variable-minimising space decomposition.

Given the (grounded) predicates that the workload imposes on one relation,
the relation's value space is partitioned into **regions**: maximal sets of
points that satisfy exactly the same subset of predicates (the atoms of the
Boolean algebra the predicates generate).  One LP variable per non-empty
region is the minimum any consistent formulation can use, which is the paper's
first novelty and the source of the orders-of-magnitude reduction over the
grid partitioning of DataSynth (reproduced in :mod:`repro.core.grid`).

Regions are built incrementally.  The space starts as a single region (the
relation's domain box); every predicate splits each existing region into the
part inside the predicate and the part outside, both represented as unions of
disjoint hyper-boxes.  Empty parts — including parts that contain no integer
point for discrete columns — are discarded immediately, so the number of
regions tracks the number of *realisable* predicate signatures.

The split is **classify, then cut**.  Each predicate is prepared once per
step: per column, its interval set and whether the column is discrete.  Most
box x predicate pairs need no new object: walking the predicate's columns in
sorted order and comparing interval endpoints (:meth:`IntervalSet.side_of`)
tells whether the box is contained in the predicate (it joins the inside part
as it is) or disjoint from it on some column (it joins the outside part as it
is).  A column the predicate straddles is cut by one
:meth:`IntervalSet.split`, a merge walk that returns both halves already
normalised, and each half gets one point test.  :func:`_cut` is the only
place a box is split.  The working state is immutable, so whatever a split
leaves alone — an interval, a box, a region's boxes, a whole region — is
shared, not copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

from ..sql.predicates import BoxCondition, IntervalSet
from .errors import RegionExplosionError

__all__ = [
    "Region",
    "PartitionCheckpoint",
    "RegionPartitioner",
    "box_is_empty",
]


def _condition_is_empty(intervals: IntervalSet, discrete: bool) -> bool:
    """True if no admissible point exists in the interval set.

    The point test of the cut: on a discrete column an interval holds a point
    when it is unbounded or reaches past an integer.
    """
    if not discrete:
        return not intervals.intervals
    for interval in intervals.intervals:
        low, high = interval.low, interval.high
        if math.isinf(low) or math.isinf(high) or math.ceil(high) > math.ceil(low):
            return False
    return True


def box_is_empty(box: BoxCondition, discrete: Mapping[str, bool] | None = None) -> bool:
    """True if the box contains no admissible point."""
    if not box.satisfiable:
        return True
    return any(
        _condition_is_empty(intervals, discrete is None or discrete.get(column, True))
        for column, intervals in box.conditions.items()
    )


#: One column of a cut, prepared once per cut: the column, its interval set
#: and whether the column is discrete.
_CutColumn = tuple[str, IntervalSet, bool]


def _prepare(
    cut: BoxCondition, discrete: Mapping[str, bool] | None
) -> tuple[_CutColumn, ...] | None:
    """``cut`` as :func:`_cut` reads it; ``None`` for the falsum box.

    The falsum cut contains nothing: its (empty or vestigial) per-column
    conditions must not read as constraints.
    """
    if not cut.satisfiable:
        return None
    return tuple(
        (column, cut_set, discrete is None or discrete.get(column, True))
        for column, cut_set in cut.conditions.items()
    )


def _cut(
    box: BoxCondition,
    cut: tuple[_CutColumn, ...] | None,
    outside: list[BoxCondition],
) -> tuple[BoxCondition | None, bool]:
    """Split ``box`` by a prepared ``cut``: classify per cut column, cut only a straddler.

    Returns the part of ``box`` inside ``cut`` (``None`` when there is none)
    and whether any column had to be cut; the disjoint parts outside go onto
    ``outside``.  A box contained in the cut on every column comes back as
    the same object, one disjoint from it on its first non-contained column
    goes onto ``outside`` as the same object.  ``box`` must be non-empty, so
    only the two halves a cut produces need their points tested.
    """
    if cut is None:
        outside.append(box)
        return None, False
    current = box
    for column, cut_set, discrete in cut:
        held = current.condition_for(column)
        side = held.side_of(cut_set)
        if side > 0:
            continue
        if side < 0:
            outside.append(current)
            return None, current is not box
        kept, rest = held.split(cut_set)
        if not _condition_is_empty(rest, discrete):
            outside.append(current.replacing(column, rest))
        if _condition_is_empty(kept, discrete):
            return None, True
        current = current.replacing(column, kept)
    return current, current is not box


@dataclass(frozen=True)
class Region:
    """One region: a predicate signature and the boxes that realise it."""

    index: int
    signature: frozenset[int]
    boxes: tuple[BoxCondition, ...]

    def satisfies(self, constraint_index: int) -> bool:
        """Whether every point of the region satisfies the given predicate."""
        return constraint_index in self.signature

    def contained_in(self, box: BoxCondition) -> bool:
        """Exact containment test of the region inside an arbitrary box."""
        if not box.satisfiable:
            return False  # the falsum box contains nothing
        return all(
            column in piece.conditions and piece.conditions[column].side_of(required) > 0
            for piece in self.boxes
            for column, required in box.conditions.items()
        )

    def overlaps(self, box: BoxCondition, discrete: Mapping[str, bool] | None = None) -> bool:
        """Whether some piece of the region shares an admissible point with ``box``.

        ``discrete`` marks the integer-valued columns (all of them when
        omitted): only there must a shared stretch hold an integer point.
        """
        cut = _prepare(box, discrete)
        return any(_cut(piece, cut, [])[0] is not None for piece in self.boxes)

    def representative_box(self) -> BoxCondition:
        """The first box of the region (used to pick representative values)."""
        return self.boxes[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        signature = ",".join(str(i) for i in sorted(self.signature))
        return f"Region(#{self.index} sig={{{signature}}} boxes={len(self.boxes)})"


#: Working form of a region: the (ascending) indices of the predicates it
#: satisfies — cuts arrive in index order, so appending keeps them sorted —
#: and its boxes.  Immutable, so split results share what did not change.
_WorkingRegion = tuple[tuple[int, ...], tuple[BoxCondition, ...]]


@dataclass(frozen=True)
class PartitionCheckpoint:
    """Resumable partitioning state after consuming a prefix of predicates.

    The incremental-maintenance pipeline stores the checkpoint of every
    relation's partition so that a delta workload which *appends* predicate
    boxes can resume the splitting exactly where the previous build stopped
    (:meth:`RegionPartitioner.resume`) instead of re-splitting from the
    domain box.  Resuming is bit-identical to a fresh
    :meth:`RegionPartitioner.partition` over the concatenated box sequence,
    because partitioning consumes boxes strictly left to right.  The state is
    immutable all the way down, so resuming can never alter a checkpoint.

    ``boxes_visited`` / ``boxes_split`` count the box x cut pairs classified,
    and those of them a cut went through, since the domain box.
    """

    boxes: tuple[BoxCondition, ...]
    regions: tuple[_WorkingRegion, ...]
    boxes_visited: int = 0
    boxes_split: int = 0

    @property
    def num_boxes(self) -> int:
        return len(self.boxes)

    def is_prefix_of(self, boxes: Sequence[BoxCondition]) -> bool:
        """Whether this checkpoint covers a prefix of ``boxes``."""
        if len(self.boxes) > len(boxes):
            return False
        return all(mine == theirs for mine, theirs in zip(self.boxes, boxes))


@dataclass
class RegionPartitioner:
    """Builds the region partition of one relation's value space.

    Parameters
    ----------
    discrete:
        Map ``column -> bool`` marking integer-valued columns (used for the
        no-integer-point emptiness check).
    domain:
        Optional bounding box of the relation's value space (for instance the
        observed min/max of each column from the client metadata, and
        ``[0, |referenced|)`` for foreign-key columns).  Constraining the
        initial region to the domain keeps representatives realisable and is
        also how referential bounds enter the formulation.
    max_regions:
        Safety budget; exceeding it raises :class:`RegionExplosionError`
        rather than silently building an intractable LP.
    """

    discrete: Mapping[str, bool] | None = None
    domain: BoxCondition | None = None
    max_regions: int = 200_000

    def partition(self, constraint_boxes: Sequence[BoxCondition]) -> list[Region]:
        """Partition the space induced by the given predicate boxes."""
        return self.resume(None, constraint_boxes)

    def resume(
        self, checkpoint: PartitionCheckpoint | None, appended_boxes: Sequence[BoxCondition]
    ) -> list[Region]:
        """Continue a checkpointed partition with appended predicate boxes.

        Bit-identical to ``partition(checkpoint.boxes + appended_boxes)``:
        splitting consumes boxes strictly left to right, so resuming replays
        exactly the suffix of that computation.
        """
        state = self.advance(checkpoint, appended_boxes)
        return [
            Region(index=index, signature=frozenset(signature), boxes=pieces)
            for index, (signature, pieces) in enumerate(sorted(state.regions, key=itemgetter(0)))
        ]

    def advance(
        self, checkpoint: PartitionCheckpoint | None, boxes: Sequence[BoxCondition]
    ) -> PartitionCheckpoint:
        """Consume boxes and return the checkpoint, without finalising regions.

        The one splitting body (``checkpoint=None`` starts from the domain
        box); :meth:`partition` and :meth:`resume` sort and materialise its
        result.  Every box of every region is classified against each cut
        (:func:`_cut`); a region whose boxes all land on one side is passed
        on, or re-signed, as it is.
        """
        if checkpoint is None:
            domain = self.domain if self.domain is not None else BoxCondition({})
            checkpoint = PartitionCheckpoint(boxes=(), regions=(((), (domain,)),))
        regions = checkpoint.regions
        visited, split = checkpoint.boxes_visited, checkpoint.boxes_split
        start = checkpoint.num_boxes
        if start == 0 and boxes:
            # Only the domain box can be empty (every later box is checked
            # when it is cut); the first cut, whatever it is, drops it.
            regions = tuple(r for r in regions if not box_is_empty(r[1][0], self.discrete))
        for index, box in enumerate(boxes, start):
            cut = _prepare(box, self.discrete)
            result: list[_WorkingRegion] = []
            for region in regions:
                signature, pieces = region
                inside: list[BoxCondition] = []
                outside: list[BoxCondition] = []
                whole = True
                for piece in pieces:
                    kept, was_cut = _cut(piece, cut, outside)
                    if kept is not None:
                        inside.append(kept)
                    if was_cut:
                        whole = False
                        split += 1
                visited += len(pieces)
                if inside:
                    kept_pieces = pieces if whole and not outside else tuple(inside)
                    result.append((signature + (index,), kept_pieces))
                if outside:
                    result.append(region if whole and not inside else (signature, tuple(outside)))
            regions = tuple(result)
            if len(regions) > self.max_regions:
                raise RegionExplosionError(
                    f"region partitioning exceeded {self.max_regions} regions "
                    f"after {index + 1} of {start + len(boxes)} predicates"
                )
        return PartitionCheckpoint(checkpoint.boxes + tuple(boxes), regions, visited, split)

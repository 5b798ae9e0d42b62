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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..sql.predicates import BoxCondition, Interval, IntervalSet
from .errors import RegionExplosionError

__all__ = [
    "Region",
    "PartitionCheckpoint",
    "RegionPartitioner",
    "box_is_empty",
    "box_difference",
]


def _condition_is_empty(intervals: IntervalSet, discrete: bool) -> bool:
    """True if no admissible point exists in the interval set."""
    if intervals.is_empty:
        return True
    if not discrete:
        return False
    for interval in intervals:
        if math.isinf(interval.low) or math.isinf(interval.high):
            return False
        if interval.count_integers() > 0:
            return False
    return True


def box_is_empty(box: BoxCondition, discrete: Mapping[str, bool] | None = None) -> bool:
    """True if the box contains no admissible point."""
    if not box.satisfiable:
        return True
    for column, intervals in box.conditions.items():
        is_discrete = True if discrete is None else discrete.get(column, True)
        if _condition_is_empty(intervals, is_discrete):
            return True
    return False


def box_difference(box: BoxCondition, cut: BoxCondition) -> list[BoxCondition]:
    """Decompose ``box \\ cut`` into disjoint boxes.

    Standard column-by-column decomposition: for the k-th constrained column
    of ``cut``, emit the part of ``box`` that lies outside the cut on that
    column while being inside the cut on all previously processed columns.
    """
    if not box.satisfiable:
        return []
    if not cut.satisfiable:
        # Subtracting the falsum box removes nothing; iterating its (empty
        # or vestigial) per-column conditions would instead drop ``box``.
        return [box]
    pieces: list[BoxCondition] = []
    current = box
    for column in sorted(cut.conditions):
        box_intervals = current.condition_for(column)
        cut_intervals = cut.conditions[column]
        outside = box_intervals.subtract(cut_intervals)
        if not outside.is_empty:
            piece_conditions = dict(current.conditions)
            piece_conditions[column] = outside
            pieces.append(BoxCondition(piece_conditions))
        inside = box_intervals.intersect(cut_intervals)
        if inside.is_empty:
            return pieces
        next_conditions = dict(current.conditions)
        next_conditions[column] = inside
        current = BoxCondition(next_conditions)
    return pieces


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
            # The falsum box contains nothing; its (empty) per-column
            # conditions must not read as unconstrained.
            return False
        for piece in self.boxes:
            for column, required in box.conditions.items():
                piece_intervals = piece.condition_for(column)
                if not required.contains_set(piece_intervals):
                    return False
        return True

    def overlaps(self, box: BoxCondition) -> bool:
        """Whether any part of the region intersects the box."""
        for piece in self.boxes:
            intersection = piece.intersect(box)
            if not box_is_empty(intersection):
                return True
        return False

    def representative_box(self) -> BoxCondition:
        """The first box of the region (used to pick representative values)."""
        return self.boxes[0]

    def columns(self) -> set[str]:
        names: set[str] = set()
        for piece in self.boxes:
            names |= piece.columns()
        return names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        signature = ",".join(str(i) for i in sorted(self.signature))
        return f"Region(#{self.index} sig={{{signature}}} boxes={len(self.boxes)})"


@dataclass
class _MutableRegion:
    signature: set[int]
    boxes: list[BoxCondition]


@dataclass(frozen=True)
class PartitionCheckpoint:
    """Resumable partitioning state after consuming a prefix of predicates.

    The incremental-maintenance pipeline stores the checkpoint of every
    relation's partition so that a delta workload which *appends* predicate
    boxes can resume the splitting exactly where the previous build stopped
    (:meth:`RegionPartitioner.resume`) instead of re-splitting from the
    domain box.  Resuming is bit-identical to a fresh
    :meth:`RegionPartitioner.partition` over the concatenated box sequence,
    because partitioning consumes boxes strictly left to right.
    """

    boxes: tuple[BoxCondition, ...]
    regions: tuple[_MutableRegion, ...]

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
        initial_box = self.domain if self.domain is not None else BoxCondition({})
        regions: list[_MutableRegion] = [
            _MutableRegion(signature=set(), boxes=[initial_box])
        ]
        regions = self._consume(regions, constraint_boxes, 0, len(constraint_boxes))
        return self._finalize(regions)

    def advance(
        self,
        checkpoint: PartitionCheckpoint | None,
        boxes: Sequence[BoxCondition],
    ) -> PartitionCheckpoint:
        """Consume boxes and return the checkpoint, without finalising regions.

        The checkpoint-only sibling of :meth:`partition`/:meth:`resume` for
        callers that need an *intermediate* resumable state (the incremental
        pipeline checkpoints the grounded/tracking boundary of every
        relation): it skips the sort-and-materialise finalisation, which
        would be thrown away anyway.  ``checkpoint=None`` starts from the
        domain box.
        """
        if checkpoint is None:
            initial_box = self.domain if self.domain is not None else BoxCondition({})
            state: list[_MutableRegion] = [
                _MutableRegion(signature=set(), boxes=[initial_box])
            ]
            consumed: tuple[BoxCondition, ...] = ()
        else:
            state = list(checkpoint.regions)
            consumed = checkpoint.boxes
        total = len(consumed) + len(boxes)
        state = self._consume(state, boxes, len(consumed), total)
        return PartitionCheckpoint(boxes=consumed + tuple(boxes), regions=tuple(state))

    def resume(
        self,
        checkpoint: PartitionCheckpoint,
        appended_boxes: Sequence[BoxCondition],
    ) -> list[Region]:
        """Continue a checkpointed partition with appended predicate boxes.

        Bit-identical to ``partition(checkpoint.boxes + appended_boxes)``:
        splitting consumes boxes strictly left to right, so resuming from the
        stored mutable state replays exactly the suffix of that computation.
        The checkpoint itself is never mutated and stays valid for further
        resumes.
        """
        total = checkpoint.num_boxes + len(appended_boxes)
        regions = self._consume(
            list(checkpoint.regions), appended_boxes, checkpoint.num_boxes, total
        )
        return self._finalize(regions)

    # -- internals --------------------------------------------------------

    def _consume(
        self,
        regions: list[_MutableRegion],
        boxes: Sequence[BoxCondition],
        start_index: int,
        total_boxes: int,
    ) -> list[_MutableRegion]:
        for offset, constraint_box in enumerate(boxes):
            regions = self._split(regions, start_index + offset, constraint_box)
            if len(regions) > self.max_regions:
                raise RegionExplosionError(
                    f"region partitioning exceeded {self.max_regions} regions "
                    f"after {start_index + offset + 1} of {total_boxes} predicates"
                )
        return regions

    def _finalize(self, regions: list[_MutableRegion]) -> list[Region]:
        ordered = sorted(regions, key=lambda region: tuple(sorted(region.signature)))
        return [
            Region(
                index=i,
                signature=frozenset(region.signature),
                boxes=tuple(region.boxes),
            )
            for i, region in enumerate(ordered)
        ]

    def _split(
        self,
        regions: list[_MutableRegion],
        constraint_index: int,
        constraint_box: BoxCondition,
    ) -> list[_MutableRegion]:
        result: list[_MutableRegion] = []
        for region in regions:
            inside: list[BoxCondition] = []
            outside: list[BoxCondition] = []
            for box in region.boxes:
                intersection = box.intersect(constraint_box)
                if not box_is_empty(intersection, self.discrete):
                    inside.append(intersection)
                for piece in box_difference(box, constraint_box):
                    if not box_is_empty(piece, self.discrete):
                        outside.append(piece)
            if inside:
                result.append(
                    _MutableRegion(signature=region.signature | {constraint_index}, boxes=inside)
                )
            if outside:
                result.append(
                    _MutableRegion(signature=set(region.signature), boxes=outside)
                )
        return result


def regions_satisfying(regions: Iterable[Region], box: BoxCondition) -> list[Region]:
    """Regions entirely contained in an arbitrary box condition.

    When ``box`` is (equal to) one of the predicates the partition was built
    from, containment coincides with signature membership and the result is
    exact; the method is also used for borrowed predicates, which the
    pipeline registers as partition predicates precisely so this holds.
    """
    return [region for region in regions if region.contained_in(box)]


def domain_box_from_bounds(bounds: Mapping[str, tuple[float, float]]) -> BoxCondition:
    """Convenience: build a domain box from per-column ``(low, high)`` bounds."""
    return BoxCondition(
        {column: IntervalSet([Interval(low, high)]) for column, (low, high) in bounds.items()}
    )

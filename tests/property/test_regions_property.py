"""Property-based tests for region partitioning: it must be a true partition."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import RegionExplosionError
from repro.core.grid import grid_variable_count
from repro.core.regions import RegionPartitioner, box_is_empty
from repro.sql.predicates import BoxCondition, Interval, IntervalSet

COLUMNS = ("a", "b", "c")


@st.composite
def constraint_boxes(draw):
    """A conjunctive box over a random subset of the columns."""
    chosen = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    conditions = {}
    for column in chosen:
        low = draw(st.integers(min_value=0, max_value=80))
        width = draw(st.integers(min_value=1, max_value=40))
        conditions[column] = IntervalSet([Interval(float(low), float(low + width))])
    return BoxCondition(conditions)


@st.composite
def workloads(draw):
    return draw(st.lists(constraint_boxes(), min_size=1, max_size=5))


@st.composite
def sample_points(draw):
    return {column: float(draw(st.integers(min_value=-5, max_value=130))) for column in COLUMNS}


class TestRegionPartitionProperties:
    @given(workloads(), st.lists(sample_points(), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_partition_is_exhaustive_and_disjoint(self, boxes, points):
        """Every point lies in exactly one region, whose signature is exactly
        the set of constraints the point satisfies."""
        regions = RegionPartitioner().partition(boxes)
        for point in points:
            covering = [
                region
                for region in regions
                if any(piece.contains_point(point) for piece in region.boxes)
            ]
            assert len(covering) == 1
            expected = frozenset(
                index for index, box in enumerate(boxes) if box.contains_point(point)
            )
            assert covering[0].signature == expected

    @given(workloads())
    @settings(max_examples=100, deadline=None)
    def test_signatures_are_unique(self, boxes):
        regions = RegionPartitioner().partition(boxes)
        signatures = [region.signature for region in regions]
        assert len(signatures) == len(set(signatures))

    @given(workloads())
    @settings(max_examples=100, deadline=None)
    def test_region_count_never_exceeds_grid_count(self, boxes):
        """Regions are the minimal formulation; the grid can only be larger."""
        regions = RegionPartitioner().partition(boxes)
        # Exclude the unconstrained remainder region for a fair comparison
        # (the grid count also covers the whole space).
        assert len(regions) <= max(grid_variable_count(boxes), len(regions))
        assert len(regions) <= 2 ** len(boxes) + 1

    @given(workloads())
    @settings(max_examples=50, deadline=None)
    def test_partition_is_deterministic(self, boxes):
        first = RegionPartitioner().partition(boxes)
        second = RegionPartitioner().partition(boxes)
        assert [r.signature for r in first] == [r.signature for r in second]

    @given(workloads())
    @settings(max_examples=50, deadline=None)
    def test_containment_agrees_with_signature(self, boxes):
        regions = RegionPartitioner().partition(boxes)
        for region in regions:
            for index, box in enumerate(boxes):
                assert region.contained_in(box) == (index in region.signature)


# -- differential oracle ------------------------------------------------------
#
# The split the partitioner shipped with before classify-then-cut, kept here as
# the reference: per box an ``intersect`` plus a column-by-column difference,
# every resulting box re-checked for emptiness on every column.  It allocates
# for every box x cut pair, which is why it left ``src/``; it is obviously
# right, which is why it stays here.


def _reference_difference(box, cut):
    if not box.satisfiable:
        return []
    if not cut.satisfiable:
        return [box]
    pieces = []
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


def _reference_partition(boxes, discrete=None, domain=None, max_regions=200_000):
    regions = [(set(), [domain if domain is not None else BoxCondition({})])]
    for index, cut in enumerate(boxes):
        result = []
        for signature, pieces in regions:
            inside, outside = [], []
            for box in pieces:
                intersection = box.intersect(cut)
                if not box_is_empty(intersection, discrete):
                    inside.append(intersection)
                for piece in _reference_difference(box, cut):
                    if not box_is_empty(piece, discrete):
                        outside.append(piece)
            if inside:
                result.append((signature | {index}, inside))
            if outside:
                result.append((set(signature), outside))
        regions = result
        if len(regions) > max_regions:
            raise RegionExplosionError(
                f"region partitioning exceeded {max_regions} regions "
                f"after {index + 1} of {len(boxes)} predicates"
            )
    regions.sort(key=lambda region: tuple(sorted(region[0])))
    return [(tuple(sorted(signature)), _rendered(pieces)) for signature, pieces in regions]


def _rendered(pieces):
    """Boxes as their wire form: pins column order and every endpoint."""
    return [json.dumps(piece.to_dict()) for piece in pieces]


def _listing(regions):
    assert [region.index for region in regions] == list(range(len(regions)))
    return [(tuple(sorted(region.signature)), _rendered(region.boxes)) for region in regions]


DISCRETE = {"a": True, "b": True, "c": False}  # "c" is the float column

# Half-integer endpoints: cuts leave integer-free slivers on "a" and "b".
endpoints = st.integers(min_value=-4, max_value=40).map(lambda value: value / 2)


@st.composite
def interval_sets(draw, allow_empty=False):
    """One to three intervals (an IN-list when several), possibly touching."""
    pieces = []
    for _ in range(draw(st.integers(min_value=0 if allow_empty else 1, max_value=3))):
        low = draw(endpoints)
        pieces.append(Interval(low, low + draw(st.integers(min_value=1, max_value=12)) / 2))
    return IntervalSet(pieces)


@st.composite
def cuts(draw):
    """A predicate box on 1-3 columns; now and then the falsum box."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return BoxCondition.never()
    chosen = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    return BoxCondition({column: draw(interval_sets(allow_empty=True)) for column in chosen})


@st.composite
def domains(draw):
    """No domain, a bounding box, or a degenerate one (empty / integer-free)."""
    kind = draw(st.sampled_from(["none", "box", "box", "empty", "integer-free", "never"]))
    if kind == "none":
        return None
    if kind == "never":
        return BoxCondition.never()
    chosen = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    conditions = {column: draw(interval_sets()) for column in chosen}
    if kind == "empty":
        conditions[chosen[0]] = IntervalSet.empty()
    if kind == "integer-free":
        conditions["a"] = IntervalSet([Interval(2.25, 2.75)])
    return BoxCondition(conditions)


@st.composite
def single_intervals(draw):
    """One interval: the box side of almost every ``_cut``."""
    low = draw(endpoints)
    return IntervalSet([Interval(low, low + draw(st.integers(min_value=1, max_value=12)) / 2)])


@st.composite
def in_lists(draw):
    """Two or three separate intervals: an IN-list."""
    pieces, low = [], draw(endpoints)
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        high = low + draw(st.integers(min_value=1, max_value=6)) / 2
        pieces.append(Interval(low, high))
        low = high + draw(st.integers(min_value=1, max_value=6)) / 2
    return IntervalSet(pieces)


def boxes_of(interval_sets, columns=None):
    """Boxes whose every constrained column draws from ``interval_sets``."""
    if columns is None:
        columns = st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True)
    return columns.flatmap(
        lambda chosen: st.tuples(*(interval_sets for _ in chosen)).map(
            lambda sets: BoxCondition(dict(zip(chosen, sets)))
        )
    )


class TestSplitAgainstReference:
    """Classify-then-cut yields exactly what intersect + difference yielded."""

    @given(st.lists(cuts(), min_size=0, max_size=6), domains())
    @example(
        [BoxCondition({"a": IntervalSet([Interval(0, 4.5)])})],
        BoxCondition({"a": IntervalSet([Interval(0, 5)])}),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_ordered_regions(self, boxes, domain):
        regions = RegionPartitioner(discrete=DISCRETE, domain=domain).partition(boxes)
        assert _listing(regions) == _reference_partition(boxes, DISCRETE, domain)

    @given(
        st.lists(boxes_of(in_lists()), min_size=1, max_size=5),
        boxes_of(single_intervals(), st.just(list(COLUMNS))),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_interval_boxes_against_in_list_cuts(self, boxes, domain):
        regions = RegionPartitioner(discrete=DISCRETE, domain=domain).partition(boxes)
        assert _listing(regions) == _reference_partition(boxes, DISCRETE, domain)

    @given(
        st.lists(boxes_of(single_intervals()), min_size=1, max_size=5),
        boxes_of(in_lists(), st.just(list(COLUMNS))),
    )
    @settings(max_examples=200, deadline=None)
    def test_multi_interval_boxes_against_one_interval_cuts(self, boxes, domain):
        regions = RegionPartitioner(discrete=DISCRETE, domain=domain).partition(boxes)
        assert _listing(regions) == _reference_partition(boxes, DISCRETE, domain)

    @given(st.lists(cuts(), min_size=1, max_size=6), domains())
    @settings(max_examples=100, deadline=None)
    def test_every_column_discrete_when_unmarked(self, boxes, domain):
        regions = RegionPartitioner(domain=domain).partition(boxes)
        assert _listing(regions) == _reference_partition(boxes, None, domain)

    def test_integer_free_sliver_trims_the_inside_box(self):
        """``[0,5)`` cut by ``[0,4.5)``: ``[4.5,5)`` holds no integer and is
        dropped, but the inside box is the cut one, not the original."""
        domain = BoxCondition({"a": IntervalSet([Interval(0, 5)])})
        cut = BoxCondition({"a": IntervalSet([Interval(0, 4.5)])})
        (only,) = RegionPartitioner(discrete={"a": True}, domain=domain).partition([cut])
        assert only.signature == frozenset({0})
        assert only.boxes == (cut,)
        # On a float column the sliver is a region of its own.
        outside, inside = RegionPartitioner(discrete={"a": False}, domain=domain).partition([cut])
        assert (outside.signature, inside.signature) == (frozenset(), frozenset({0}))

    def test_untouched_boxes_are_shared_not_copied(self):
        domain = BoxCondition({"a": IntervalSet([Interval(0, 10)])})
        partitioner = RegionPartitioner(domain=domain)
        base = partitioner.advance(None, [BoxCondition({"a": IntervalSet([Interval(0, 5)])})])
        disjoint = BoxCondition({"a": IntervalSet([Interval(20, 30)])})
        covering = BoxCondition({"a": IntervalSet([Interval(-5, 50)])})
        passed_on = partitioner.advance(base, [disjoint]).regions
        assert len(passed_on) == len(base.regions) == 2
        assert all(new is old for new, old in zip(passed_on, base.regions))
        resigned = partitioner.advance(base, [covering]).regions
        assert [signature for signature, _ in resigned] == [(0, 1), (1,)]
        assert all(new[1] is old[1] for new, old in zip(resigned, base.regions))

    @given(st.lists(cuts(), min_size=1, max_size=7), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_overflow_raises_at_the_same_predicate(self, boxes, budget):
        try:
            expected = _reference_partition(boxes, DISCRETE, None, budget)
        except RegionExplosionError as error:
            with pytest.raises(RegionExplosionError) as raised:
                RegionPartitioner(discrete=DISCRETE, max_regions=budget).partition(boxes)
            assert str(raised.value) == str(error)
        else:
            regions = RegionPartitioner(discrete=DISCRETE, max_regions=budget).partition(boxes)
            assert _listing(regions) == expected


class TestCheckpoints:
    @given(st.lists(cuts(), max_size=4), st.lists(cuts(), max_size=4), domains())
    @settings(max_examples=150, deadline=None)
    def test_resume_equals_partition_of_the_concatenation(self, first, second, domain):
        partitioner = RegionPartitioner(discrete=DISCRETE, domain=domain)
        checkpoint = partitioner.advance(None, first)
        assert checkpoint.is_prefix_of(first + second)
        assert partitioner.resume(checkpoint, second) == partitioner.partition(first + second)

    @given(st.lists(cuts(), max_size=4), st.lists(cuts(), min_size=1, max_size=4), domains())
    @settings(max_examples=100, deadline=None)
    def test_resuming_twice_leaves_the_checkpoint_alone(self, first, second, domain):
        partitioner = RegionPartitioner(discrete=DISCRETE, domain=domain)
        checkpoint = partitioner.advance(None, first)
        snapshot = [(signature, _rendered(pieces)) for signature, pieces in checkpoint.regions]
        once = partitioner.resume(checkpoint, second)
        twice = partitioner.resume(checkpoint, second)
        assert once == twice
        assert [
            (signature, _rendered(pieces)) for signature, pieces in checkpoint.regions
        ] == snapshot
        assert checkpoint.boxes == tuple(first)

"""Property-based tests for the interval algebra (hypothesis)."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from interval_reference import reference_intersect, reference_side_of, reference_subtract

from repro.sql.predicates import Interval, IntervalSet


@st.composite
def intervals(draw):
    low = draw(st.integers(min_value=-1000, max_value=1000))
    width = draw(st.integers(min_value=0, max_value=200))
    return Interval(float(low), float(low + width))


@st.composite
def interval_sets(draw):
    return IntervalSet(draw(st.lists(intervals(), min_size=0, max_size=6)))


points = st.integers(min_value=-1300, max_value=1300).map(float)


class TestIntervalSetAlgebra:
    @given(interval_sets(), interval_sets(), points)
    @settings(max_examples=200)
    def test_intersection_membership(self, a, b, x):
        assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))

    @given(interval_sets(), interval_sets(), points)
    @settings(max_examples=200)
    def test_union_membership(self, a, b, x):
        assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))

    @given(interval_sets(), interval_sets(), points)
    @settings(max_examples=200)
    def test_difference_membership(self, a, b, x):
        assert a.subtract(b).contains(x) == (a.contains(x) and not b.contains(x))

    @given(interval_sets(), points)
    @settings(max_examples=200)
    def test_complement_membership(self, a, x):
        assert a.complement().contains(x) == (not a.contains(x))

    @given(interval_sets())
    @settings(max_examples=100)
    def test_normalisation_produces_disjoint_sorted_intervals(self, a):
        for left, right in zip(a.intervals, a.intervals[1:]):
            assert left.high < right.low  # strictly disjoint, not even adjacent

    @given(interval_sets(), interval_sets())
    @settings(max_examples=100)
    def test_subset_relation(self, a, b):
        intersection = a.intersect(b)
        assert a.contains_set(intersection)
        assert b.contains_set(intersection)

    @given(interval_sets(), interval_sets())
    @settings(max_examples=100)
    def test_difference_disjoint_from_cut(self, a, b):
        difference = a.subtract(b)
        assert difference.intersect(b).is_empty

    @given(interval_sets(), interval_sets())
    @settings(max_examples=300)
    def test_side_of_agrees_with_the_set_algebra(self, a, b):
        """The endpoint-only classification is what subtract/intersect say."""
        if a.intersect(b).is_empty:
            assert a.side_of(b) == -1
        elif a.subtract(b).is_empty:
            assert a.side_of(b) == 1
        else:
            assert a.side_of(b) == 0

    @given(interval_sets())
    @settings(max_examples=100)
    def test_serialisation_roundtrip(self, a):
        assert IntervalSet.from_dict(a.to_dict()) == a

    @given(interval_sets())
    @settings(max_examples=100)
    def test_count_integers_matches_enumeration(self, a):
        if a.is_empty:
            assert a.count_integers() == 0
            return
        low, high = a.bounds()
        enumerated = sum(1 for v in range(int(low) - 1, int(high) + 2) if a.contains(v))
        assert a.count_integers() == enumerated

    @given(interval_sets())
    @settings(max_examples=100)
    def test_representative_is_member(self, a):
        if a.count_integers() == 0:
            return
        representative = a.representative(discrete=True)
        assert a.contains(representative)
        assert representative == int(representative)


# -- split against the algebra it replaced -------------------------------------
#
# The references (``tests/interval_reference.py``) are ``intersect`` and
# ``subtract`` as they were before they became views of ``split``.


def _endpoints(interval_set):
    """Every endpoint by ``repr``: tells ``-0.0`` from ``0.0``."""
    return [(repr(interval.low), repr(interval.high)) for interval in interval_set.intervals]


# A small pool of endpoints, so sets nest, touch and share ends; signed zeros
# and unbounded ends included.
edge_points = st.one_of(
    st.integers(min_value=-6, max_value=6).map(lambda value: value / 2),
    st.sampled_from([-0.0, 0.0, -math.inf, math.inf]),
)


@st.composite
def edge_interval_sets(draw):
    pieces = [
        Interval(draw(edge_points), draw(edge_points))  # empty ones are dropped
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    ]
    return IntervalSet(pieces)


any_interval_sets = st.one_of(interval_sets(), edge_interval_sets())

SIGNED_ZEROS = (
    IntervalSet([Interval(-0.0, 1.0), Interval(2.0, 3.0)]),
    IntervalSet([Interval(0.0, 2.5)]),
)


class TestSplit:
    @given(any_interval_sets, any_interval_sets)
    @example(*SIGNED_ZEROS)
    @example(SIGNED_ZEROS[1], SIGNED_ZEROS[0])
    @settings(max_examples=500)
    def test_split_is_the_reference_intersect_and_subtract(self, a, b):
        inside, outside = a.split(b)
        assert _endpoints(inside) == _endpoints(reference_intersect(a, b))
        assert _endpoints(outside) == _endpoints(reference_subtract(a, b))
        assert _endpoints(a.intersect(b)) == _endpoints(inside)
        assert _endpoints(a.subtract(b)) == _endpoints(outside)

    @given(any_interval_sets, any_interval_sets)
    @example(*SIGNED_ZEROS)
    @settings(max_examples=300)
    def test_side_of_is_the_reference_classification(self, a, b):
        assert a.side_of(b) == reference_side_of(a, b)

    @given(any_interval_sets, any_interval_sets)
    @settings(max_examples=300)
    def test_both_halves_are_already_normalised(self, a, b):
        for half in a.split(b):
            assert IntervalSet(half.intervals).intervals == half.intervals
            for left, right in zip(half.intervals, half.intervals[1:]):
                assert left.low < left.high < right.low

    @given(any_interval_sets, any_interval_sets)
    @example(*SIGNED_ZEROS)
    @settings(max_examples=300)
    def test_an_interval_left_whole_is_the_same_object(self, a, b):
        inside, outside = a.split(b)
        for interval in a.intervals:
            if any(cut.low <= interval.low and interval.high <= cut.high for cut in b):
                assert any(piece is interval for piece in inside.intervals)
            if not any(interval.overlaps(cut) for cut in b):
                assert any(piece is interval for piece in outside.intervals)

    def test_signed_zero_ties_keep_the_left_operands_endpoint(self):
        low_zero, cut = SIGNED_ZEROS
        inside, outside = low_zero.split(cut)
        assert _endpoints(inside) == [("-0.0", "1.0"), ("2.0", "2.5")]
        assert inside.intervals[0] is low_zero.intervals[0]
        assert _endpoints(outside) == [("2.5", "3.0")]
        inside, outside = cut.split(low_zero)
        assert _endpoints(inside) == [("0.0", "1.0"), ("2.0", "2.5")]
        assert _endpoints(outside) == [("1.0", "2.0")]

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_a_nan_bound_still_raises(self, bounds):
        with pytest.raises(ValueError, match="NaN"):
            Interval(*bounds)
        # An interval that skipped its own check is still refused by the set.
        forged = object.__new__(Interval)
        object.__setattr__(forged, "low", bounds[0])
        object.__setattr__(forged, "high", bounds[1])
        with pytest.raises(ValueError, match="NaN"):
            IntervalSet([Interval(0.0, 1.0), forged])

    def test_sets_are_immutable_and_everything_is_shared(self):
        everything = IntervalSet.everything()
        assert everything is IntervalSet.everything() and everything.is_everything
        with pytest.raises(AttributeError):
            everything.intervals = ()
        with pytest.raises(AttributeError):
            del everything.intervals
        assert everything.is_everything

"""Property-based tests for the interval algebra (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

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

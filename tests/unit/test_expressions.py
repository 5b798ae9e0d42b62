"""Unit tests for the predicate algebra (intervals, interval sets, predicates)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sql.predicates import (
    And,
    BoxCondition,
    Comparison,
    InList,
    Interval,
    IntervalSet,
    Not,
    Or,
    TruePredicate,
    predicate_from_dict,
)


class TestInterval:
    def test_empty_when_high_le_low(self):
        assert Interval(5, 5).is_empty
        assert Interval(5, 4).is_empty
        assert not Interval(4, 5).is_empty

    def test_contains_half_open(self):
        interval = Interval(2, 5)
        assert interval.contains(2)
        assert interval.contains(4.9)
        assert not interval.contains(5)

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
        assert Interval(0, 5).intersect(Interval(5, 10)).is_empty

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_count_integers(self):
        assert Interval(2, 5).count_integers() == 3
        assert Interval(2.5, 5).count_integers() == 2
        assert Interval(2, 2).count_integers() == 0

    def test_count_integers_unbounded_raises(self):
        with pytest.raises(ValueError):
            Interval(-math.inf, 5).count_integers()

    def test_representative_discrete(self):
        assert Interval(2.3, 5).representative(discrete=True) == 3

    def test_representative_empty_raises(self):
        with pytest.raises(ValueError):
            Interval(3, 3).representative()

    def test_representative_no_integer_point_raises(self):
        with pytest.raises(ValueError):
            Interval(2.2, 2.8).representative(discrete=True)

    def test_point_constructor_discrete(self):
        interval = Interval.point(7)
        assert interval.contains(7)
        assert not interval.contains(8)
        assert interval.count_integers() == 1

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_serialisation_roundtrip(self):
        interval = Interval(1.5, 9.5)
        assert Interval.from_dict(interval.to_dict()) == interval


class TestIntervalSet:
    def test_normalisation_merges_overlaps(self):
        merged = IntervalSet([Interval(0, 5), Interval(3, 8), Interval(10, 12)])
        assert len(merged) == 2
        assert merged.intervals[0] == Interval(0, 8)

    def test_normalisation_merges_adjacent(self):
        merged = IntervalSet([Interval(0, 5), Interval(5, 8)])
        assert len(merged) == 1

    def test_empty_and_everything(self):
        assert IntervalSet.empty().is_empty
        assert IntervalSet.everything().is_everything
        assert not IntervalSet.single(0, 1).is_everything

    def test_contains(self):
        interval_set = IntervalSet([Interval(0, 2), Interval(5, 7)])
        assert interval_set.contains(1)
        assert not interval_set.contains(3)
        assert interval_set.contains(5)
        assert not interval_set.contains(7)

    def test_intersect(self):
        a = IntervalSet([Interval(0, 10)])
        b = IntervalSet([Interval(5, 15), Interval(20, 25)])
        assert a.intersect(b) == IntervalSet([Interval(5, 10)])

    def test_union(self):
        a = IntervalSet([Interval(0, 2)])
        b = IntervalSet([Interval(4, 6)])
        assert len(a.union(b)) == 2

    def test_subtract(self):
        a = IntervalSet([Interval(0, 10)])
        b = IntervalSet([Interval(3, 5)])
        result = a.subtract(b)
        assert result == IntervalSet([Interval(0, 3), Interval(5, 10)])

    def test_subtract_everything_leaves_empty(self):
        assert IntervalSet.single(0, 5).subtract(IntervalSet.everything()).is_empty

    def test_complement_roundtrip(self):
        a = IntervalSet([Interval(0, 5)])
        assert a.complement().complement() == a

    def test_contains_set(self):
        big = IntervalSet([Interval(0, 100)])
        small = IntervalSet([Interval(5, 10), Interval(20, 30)])
        assert big.contains_set(small)
        assert not small.contains_set(big)

    def test_membership_mask(self):
        interval_set = IntervalSet([Interval(0, 3), Interval(10, 12)])
        values = np.array([0, 2, 3, 10, 11, 12, -1])
        mask = interval_set.membership_mask(values)
        assert list(mask) == [True, True, False, True, True, False, False]

    def test_count_integers(self):
        interval_set = IntervalSet([Interval(0, 3), Interval(10, 12)])
        assert interval_set.count_integers() == 5

    def test_points_constructor(self):
        interval_set = IntervalSet.points([1, 3, 5])
        assert interval_set.count_integers() == 3
        assert interval_set.contains(3)
        assert not interval_set.contains(2)

    def test_bounds(self):
        interval_set = IntervalSet([Interval(2, 4), Interval(8, 9)])
        assert interval_set.bounds() == (2, 9)
        with pytest.raises(ValueError):
            IntervalSet.empty().bounds()

    def test_equality_and_hash(self):
        a = IntervalSet([Interval(0, 5), Interval(7, 9)])
        b = IntervalSet([Interval(7, 9), Interval(0, 5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_serialisation_roundtrip(self):
        a = IntervalSet([Interval(0, 5), Interval(7, 9)])
        assert IntervalSet.from_dict(a.to_dict()) == a


class TestPredicates:
    def _columns(self):
        return {"a": np.array([1.0, 5.0, 10.0, 20.0]), "b": np.array([0.0, 1.0, 2.0, 3.0])}

    def test_true_predicate(self):
        mask = TruePredicate().evaluate(self._columns())
        assert mask.all()

    def test_comparison_operators(self):
        columns = self._columns()
        assert list(Comparison("a", "=", 5).evaluate(columns)) == [False, True, False, False]
        assert list(Comparison("a", "!=", 5).evaluate(columns)) == [True, False, True, True]
        assert list(Comparison("a", "<", 10).evaluate(columns)) == [True, True, False, False]
        assert list(Comparison("a", ">=", 10).evaluate(columns)) == [False, False, True, True]

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("a", "~", 5)

    def test_in_list(self):
        mask = InList("a", (1.0, 20.0)).evaluate(self._columns())
        assert list(mask) == [True, False, False, True]

    def test_and_or_not(self):
        columns = self._columns()
        predicate = And([Comparison("a", ">=", 5), Comparison("b", "<", 3)])
        assert list(predicate.evaluate(columns)) == [False, True, True, False]
        predicate = Or([Comparison("a", "<", 5), Comparison("b", ">=", 3)])
        assert list(predicate.evaluate(columns)) == [True, False, False, True]
        predicate = Not(Comparison("a", "<", 5))
        assert list(predicate.evaluate(columns)) == [False, True, True, True]

    def test_evaluate_row(self):
        predicate = And([Comparison("a", ">=", 5), Comparison("b", "<", 3)])
        assert predicate.evaluate_row({"a": 6, "b": 2})
        assert not predicate.evaluate_row({"a": 6, "b": 5})

    def test_columns(self):
        predicate = And([Comparison("a", ">=", 5), InList("b", (1.0,))])
        assert predicate.columns() == {"a", "b"}

    def test_serialisation_roundtrip(self):
        predicate = And(
            [Comparison("a", ">=", 5), Or([InList("b", (1.0, 2.0)), Comparison("b", "=", 9)])]
        )
        restored = predicate_from_dict(predicate.to_dict())
        columns = self._columns()
        assert list(restored.evaluate(columns)) == list(predicate.evaluate(columns))


class TestBoxConversion:
    def test_comparison_to_box(self):
        box = Comparison("a", ">=", 5).to_box()
        assert box.condition_for("a").contains(5)
        assert not box.condition_for("a").contains(4)

    def test_less_equal_discrete(self):
        box = Comparison("a", "<=", 5).to_box({"a": True})
        assert box.condition_for("a").contains(5)
        assert not box.condition_for("a").contains(6)

    def test_equality_discrete_point(self):
        box = Comparison("a", "=", 5).to_box({"a": True})
        assert box.condition_for("a").count_integers() == 1

    def test_and_to_box_intersects(self):
        predicate = And([Comparison("a", ">=", 5), Comparison("a", "<", 10)])
        box = predicate.to_box()
        assert box.condition_for("a") == IntervalSet([Interval(5, 10)])

    def test_multi_column_and(self):
        predicate = And([Comparison("a", ">=", 5), Comparison("b", "<", 2)])
        box = predicate.to_box()
        assert box.columns() == {"a", "b"}

    def test_single_column_or_to_box(self):
        predicate = Or([Comparison("a", "<", 2), Comparison("a", ">=", 8)])
        box = predicate.to_box()
        assert box.condition_for("a").contains(1)
        assert not box.condition_for("a").contains(5)
        assert box.condition_for("a").contains(8)

    def test_multi_column_or_rejected(self):
        predicate = Or([Comparison("a", "<", 2), Comparison("b", ">=", 8)])
        with pytest.raises(ValueError):
            predicate.to_box()

    def test_not_single_column(self):
        box = Not(Comparison("a", "<", 5)).to_box()
        assert not box.condition_for("a").contains(4)
        assert box.condition_for("a").contains(5)

    def test_box_evaluation_matches_predicate(self):
        predicate = And([Comparison("a", ">=", 5), Comparison("b", "<", 3)])
        columns = {"a": np.array([1.0, 5.0, 10.0, 20.0]), "b": np.array([0.0, 1.0, 2.0, 3.0])}
        assert list(predicate.to_box().evaluate(columns)) == list(predicate.evaluate(columns))

    def test_box_to_predicate_roundtrip(self):
        predicate = And([Comparison("a", ">=", 5), Comparison("a", "<", 10), Comparison("b", "=", 1)])
        box = predicate.to_box({"a": True, "b": True})
        columns = {"a": np.array([4.0, 5.0, 9.0, 10.0]), "b": np.array([1.0, 1.0, 1.0, 2.0])}
        regenerated = box.to_predicate()
        assert list(regenerated.evaluate(columns)) == list(predicate.evaluate(columns))


class TestBoxCondition:
    def test_unconstrained(self):
        assert BoxCondition({}).is_unconstrained
        assert BoxCondition({"a": IntervalSet.everything()}).is_unconstrained

    def test_is_empty(self):
        assert BoxCondition({"a": IntervalSet.empty()}).is_empty
        assert not BoxCondition({"a": IntervalSet.single(0, 1)}).is_empty

    def test_intersect(self):
        a = BoxCondition({"x": IntervalSet.single(0, 10)})
        b = BoxCondition({"x": IntervalSet.single(5, 20), "y": IntervalSet.single(0, 1)})
        merged = a.intersect(b)
        assert merged.condition_for("x") == IntervalSet.single(5, 10)
        assert merged.condition_for("y") == IntervalSet.single(0, 1)

    def test_replacing_sets_one_column_and_keeps_the_sorted_order(self):
        box = BoxCondition({"b": IntervalSet.single(0, 10), "d": IntervalSet.single(5, 6)})
        narrowed = box.replacing("b", IntervalSet.single(2, 3))
        assert narrowed == BoxCondition({"b": IntervalSet.single(2, 3), "d": box.conditions["d"]})
        for column in ("a", "c", "e"):  # unconstrained so far: slots in, sorted
            added = box.replacing(column, IntervalSet.single(0, 1))
            assert added == box.intersect(BoxCondition({column: IntervalSet.single(0, 1)}))
            assert list(added.conditions) == sorted(added.conditions)
            assert hash(added) == hash(BoxCondition(added.conditions))
        assert list(box.conditions) == ["b", "d"]  # the original is left alone

    def test_contains_point(self):
        box = BoxCondition({"x": IntervalSet.single(0, 10), "y": IntervalSet.single(5, 6)})
        assert box.contains_point({"x": 3, "y": 5})
        assert not box.contains_point({"x": 30, "y": 5})
        assert not box.contains_point({"x": 3})

    def test_equality_and_hash(self):
        a = BoxCondition({"x": IntervalSet.single(0, 10)})
        b = BoxCondition({"x": IntervalSet.single(0, 10)})
        assert a == b
        assert hash(a) == hash(b)

    def test_serialisation_roundtrip(self):
        box = BoxCondition({"x": IntervalSet.single(0, 10), "y": IntervalSet.points([1, 5])})
        assert BoxCondition.from_dict(box.to_dict()) == box

"""Tests for the predicate algebra in :mod:`repro.sql.predicates`.

Covers the ``AbstractPredicate`` hierarchy introduced by the
expression-layer refactor: join/filter classification, column iteration,
evaluation, serialisation, and the NaN guards on ``Interval``/``IntervalSet``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sql.predicates import (
    AbstractPredicate,
    And,
    BasePredicate,
    BinaryPredicate,
    ColumnComparison,
    ColumnRef,
    Comparison,
    CompoundPredicate,
    InList,
    Interval,
    IntervalSet,
    Not,
    Or,
    Predicate,
    TruePredicate,
    predicate_from_dict,
)

A_LT = Comparison("A", "<", 10.0)
B_GE = Comparison("B", ">=", 3.0)
JOIN = ColumnComparison(ColumnRef("R", "S_fk"), "=", ColumnRef("S", "S_pk"))

COLUMNS = {
    "A": np.asarray([1.0, 10.0, 25.0, 5.0]),
    "B": np.asarray([3.0, 2.0, 7.0, 0.0]),
}


def _rows(columns):
    length = len(next(iter(columns.values())))
    return [{name: values[i] for name, values in columns.items()} for i in range(length)]


class TestColumnRef:
    def test_qualified_and_str(self):
        ref = ColumnRef("R", "S_fk")
        assert ref.qualified
        assert str(ref) == "R.S_fk"

    def test_unqualified(self):
        ref = ColumnRef(None, "A")
        assert not ref.qualified
        assert str(ref) == "A"


class TestClassification:
    def test_comparison_is_filter(self):
        assert A_LT.is_filter()
        assert not A_LT.is_join()
        assert A_LT.tables() == set()

    def test_column_comparison_across_tables_is_join(self):
        assert JOIN.is_join()
        assert not JOIN.is_filter()
        assert JOIN.tables() == {"R", "S"}

    def test_same_table_column_comparison_is_filter(self):
        same = ColumnComparison(ColumnRef("R", "a"), "<", ColumnRef("R", "b"))
        assert same.is_filter()
        assert not same.is_join()

    def test_compound_inherits_children_tables(self):
        mixed = And([A_LT, JOIN])
        assert mixed.is_join()
        assert mixed.tables() == {"R", "S"}

    def test_family_bases(self):
        assert isinstance(A_LT, BasePredicate)
        assert isinstance(JOIN, BinaryPredicate)
        assert isinstance(And([A_LT]), CompoundPredicate)
        assert Predicate is AbstractPredicate

    def test_itercolumns_order(self):
        pred = And([A_LT, Or([B_GE, JOIN])])
        refs = list(pred.itercolumns())
        assert [str(ref) for ref in refs] == ["A", "B", "R.S_fk", "S.S_pk"]
        assert pred.columns() == {"A", "B", "S_fk", "S_pk"}


class TestEvaluation:
    def test_operator_sugar_matches_numpy(self):
        pred = (A_LT & B_GE) | ~Comparison("A", "=", 25.0)
        expected = ((COLUMNS["A"] < 10.0) & (COLUMNS["B"] >= 3.0)) | ~(
            COLUMNS["A"] == 25.0
        )
        assert np.array_equal(pred.evaluate(COLUMNS), expected)

    def test_evaluate_row_agrees_with_vectorised(self):
        pred = Or([And([A_LT, B_GE]), Comparison("B", "=", 7.0)])
        mask = pred.evaluate(COLUMNS)
        for row, expected in zip(_rows(COLUMNS), mask):
            assert pred.evaluate_row(row) == bool(expected)

    def test_inlist_membership(self):
        pred = InList("A", (5.0, 25.0))
        assert np.array_equal(
            pred.evaluate(COLUMNS), np.asarray([False, False, True, True])
        )

    def test_empty_compound_constants(self):
        assert np.array_equal(And(()).evaluate(COLUMNS), np.ones(4, dtype=bool))
        assert np.array_equal(Or(()).evaluate(COLUMNS), np.zeros(4, dtype=bool))


class TestSerialisation:
    @pytest.mark.parametrize(
        "pred",
        [
            TruePredicate(),
            A_LT,
            InList("A", (1.0, 2.0)),
            JOIN,
            Not(A_LT),
            And([A_LT, Or([B_GE, JOIN])]),
        ],
    )
    def test_round_trip(self, pred):
        assert predicate_from_dict(pred.to_dict()) == pred

    def test_str_names_the_predicate(self):
        assert str(JOIN) == "R.S_fk = S.S_pk"
        assert str(A_LT) == "A < 10.0"


class TestNaNGuards:
    @pytest.mark.parametrize("low,high", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_interval_rejects_nan_bounds(self, low, high):
        with pytest.raises(ValueError, match="must not be NaN"):
            Interval(low, high)

    def test_interval_set_normalise_rejects_nan_bounds(self):
        # Forge an interval that bypassed __post_init__ (e.g. a corrupted
        # pickle) and check the set-level guard still catches it.
        broken = object.__new__(Interval)
        object.__setattr__(broken, "low", math.nan)
        object.__setattr__(broken, "high", 1.0)
        with pytest.raises(ValueError, match="must not be NaN"):
            IntervalSet([broken])

    def test_interval_from_dict_rejects_nan(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            Interval.from_dict({"low": math.nan, "high": 2.0})


class TestLegacyAliases:
    def test_predicate_alias_is_the_abstract_base(self):
        from repro.sql import predicates

        assert predicates.Predicate is AbstractPredicate

"""Property-based tests for the predicate algebra (hypothesis).

Random predicate trees over a small column vocabulary check that an exact
box lowering agrees with the predicate row for row (column-free predicates
always have one), that join/filter classification partitions every
conjunct, and that join-graph edges classify what their conditions say.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plans.joingraph import classify_fk_edge
from repro.sql.predicates import (
    And,
    Comparison,
    ColumnComparison,
    ColumnRef,
    InList,
    Not,
    Or,
    TruePredicate,
    box_semantics_exact,
    predicate_from_dict,
)
from repro.sql.query import (
    DisjunctiveJoinCondition,
    JoinCondition,
    join_condition_from_dict,
)
from repro.workload.toy import toy_schema

FILTER_COLUMNS = ("a", "b", "c")
OPS = ("=", "!=", "<", "<=", ">", ">=")
VALUES = st.integers(min_value=-5, max_value=5).map(float)

TABLE_COLUMNS = {
    "R": ("R_pk", "S_fk", "T_fk"),
    "S": ("S_pk", "A", "B"),
    "T": ("T_pk", "C"),
}


@st.composite
def comparisons(draw):
    return Comparison(draw(st.sampled_from(FILTER_COLUMNS)), draw(st.sampled_from(OPS)), draw(VALUES))


@st.composite
def in_lists(draw):
    values = draw(st.lists(VALUES, min_size=1, max_size=4))
    return InList(draw(st.sampled_from(FILTER_COLUMNS)), tuple(values))


@st.composite
def column_comparisons(draw):
    left_table = draw(st.sampled_from(sorted(TABLE_COLUMNS)))
    right_table = draw(st.sampled_from(sorted(TABLE_COLUMNS)))
    left = ColumnRef(left_table, draw(st.sampled_from(TABLE_COLUMNS[left_table])))
    right = ColumnRef(right_table, draw(st.sampled_from(TABLE_COLUMNS[right_table])))
    return ColumnComparison(left, draw(st.sampled_from(OPS)), right)


def predicates():
    leaves = st.one_of(comparisons(), in_lists(), st.just(TruePredicate()))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=0, max_size=3).map(lambda cs: And(cs)),
            st.lists(children, min_size=0, max_size=3).map(lambda cs: Or(cs)),
            children.map(Not),
        ),
        max_leaves=12,
    )


rows = st.fixed_dictionaries({column: VALUES for column in FILTER_COLUMNS})


class TestBoxLowering:
    @given(predicates(), rows)
    @settings(max_examples=300)
    def test_exact_box_agrees_with_the_predicate(self, pred, row):
        """Where ``exact_predicate_box`` answers, the box *is* the predicate."""
        discrete = {column: True for column in FILTER_COLUMNS}
        if not box_semantics_exact(pred, discrete):
            return
        try:
            box = pred.to_box(discrete)
        except ValueError:
            assert pred.columns()  # only multi-column shapes have no box
            return
        assert box.contains_point(row) == pred.evaluate_row(row)
        if not pred.columns():
            # A column-free predicate has a constant verdict: match-all or falsum.
            assert not box.conditions
            assert box.is_empty != box.is_unconstrained

    @given(predicates())
    @settings(max_examples=200)
    def test_serialisation_round_trip(self, pred):
        assert predicate_from_dict(pred.to_dict()) == pred


class TestClassificationPartition:
    @given(st.lists(st.one_of(comparisons(), column_comparisons()), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_conjuncts_are_joins_xor_filters(self, conjuncts):
        for conjunct in And(conjuncts).children:
            assert conjunct.is_join() != conjunct.is_filter()
            assert conjunct.is_join() == (len(conjunct.tables()) > 1)


@st.composite
def join_conditions(draw):
    left_table, right_table = draw(
        st.sampled_from([("R", "S"), ("R", "T"), ("S", "T"), ("S", "R")])
    )
    return JoinCondition(
        left_table=left_table,
        left_column=draw(st.sampled_from(TABLE_COLUMNS[left_table])),
        right_table=right_table,
        right_column=draw(st.sampled_from(TABLE_COLUMNS[right_table])),
    )


@st.composite
def disjunctive_conditions(draw):
    base = draw(join_conditions())
    alternatives = [
        JoinCondition(
            left_table=base.left_table,
            left_column=draw(st.sampled_from(TABLE_COLUMNS[base.left_table])),
            right_table=base.right_table,
            right_column=draw(st.sampled_from(TABLE_COLUMNS[base.right_table])),
        )
        for _ in range(draw(st.integers(min_value=2, max_value=3)))
    ]
    return DisjunctiveJoinCondition(tuple(alternatives))


class TestJoinConditionClassification:
    @given(st.one_of(join_conditions(), disjunctive_conditions()))
    @settings(max_examples=200)
    def test_edge_is_a_join_over_its_tables_and_conditions_round_trip(self, condition):
        tables = (condition.left_table, condition.right_table)
        assert condition.as_predicate().is_join()
        assert condition.as_predicate().tables() == frozenset(tables)
        assert all(condition.involves(table) for table in tables)
        edge = classify_fk_edge(condition, toy_schema())
        assert edge is None or {edge[0], edge[2]} == set(tables)
        assert join_condition_from_dict(condition.to_dict()) == condition

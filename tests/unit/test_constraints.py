"""Unit tests for symbolic predicates and cardinality constraints."""

from __future__ import annotations

import pytest

from repro.core.constraints import (
    CardinalityConstraint,
    ReferencedPredicate,
    RelationConstraints,
    SymbolicPredicate,
)
from repro.sql.predicates import BoxCondition, Interval, IntervalSet


def box(**conditions: tuple[float, float]) -> BoxCondition:
    return BoxCondition(
        {column: IntervalSet([Interval(low, high)]) for column, (low, high) in conditions.items()}
    )


class TestSymbolicPredicate:
    def test_trivial(self):
        assert SymbolicPredicate.make().is_trivial
        assert not SymbolicPredicate.make(box=box(a=(0, 1))).is_trivial

    def test_conjoin_boxes(self):
        left = SymbolicPredicate.make(box=box(a=(0, 10)))
        right = SymbolicPredicate.make(box=box(a=(5, 20), b=(0, 3)))
        merged = left.conjoin(right)
        assert merged.box.condition_for("a") == IntervalSet([Interval(5, 10)])
        assert merged.box.condition_for("b") == IntervalSet([Interval(0, 3)])

    def test_conjoin_references_merges_nested(self):
        ref_a = ReferencedPredicate("dim", SymbolicPredicate.make(box=box(x=(0, 10))))
        ref_b = ReferencedPredicate("dim", SymbolicPredicate.make(box=box(x=(5, 20))))
        left = SymbolicPredicate.make(references={"fk": ref_a})
        right = SymbolicPredicate.make(references={"fk": ref_b})
        merged = left.conjoin(right)
        nested = merged.reference_map["fk"].predicate.box.condition_for("x")
        assert nested == IntervalSet([Interval(5, 10)])

    def test_conjoin_conflicting_reference_tables_rejected(self):
        left = SymbolicPredicate.make(
            references={"fk": ReferencedPredicate("dim1", SymbolicPredicate.make())}
        )
        right = SymbolicPredicate.make(
            references={"fk": ReferencedPredicate("dim2", SymbolicPredicate.make())}
        )
        with pytest.raises(ValueError):
            left.conjoin(right)

    def test_equality_and_hashing(self):
        a = SymbolicPredicate.make(
            box=box(a=(0, 10)),
            references={"fk": ReferencedPredicate("dim", SymbolicPredicate.make(box=box(x=(1, 2))))},
        )
        b = SymbolicPredicate.make(
            box=box(a=(0, 10)),
            references={"fk": ReferencedPredicate("dim", SymbolicPredicate.make(box=box(x=(1, 2))))},
        )
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_serialisation_roundtrip(self):
        predicate = SymbolicPredicate.make(
            box=box(a=(0, 10)),
            references={
                "fk": ReferencedPredicate(
                    "dim",
                    SymbolicPredicate.make(
                        box=box(x=(1, 2)),
                        references={"fk2": ReferencedPredicate("dim2", SymbolicPredicate.make())},
                    ),
                )
            },
        )
        restored = SymbolicPredicate.from_dict(predicate.to_dict())
        assert restored == predicate


class TestCardinalityConstraint:
    def test_roundtrip(self):
        constraint = CardinalityConstraint(
            relation="fact",
            predicate=SymbolicPredicate.make(box=box(a=(0, 10))),
            cardinality=42,
            source="q001#filter",
        )
        restored = CardinalityConstraint.from_dict(constraint.to_dict())
        assert restored == constraint


class TestRelationConstraints:
    def test_add_wrong_relation_rejected(self):
        constraints = RelationConstraints(relation="fact", row_count=10)
        with pytest.raises(ValueError):
            constraints.add(
                CardinalityConstraint("dim", SymbolicPredicate.make(), 1)
            )

    def test_deduplication(self):
        constraints = RelationConstraints(relation="fact", row_count=10)
        predicate = SymbolicPredicate.make(box=box(a=(0, 10)))
        constraints.add(CardinalityConstraint("fact", predicate, 5, source="q1"))
        constraints.add(CardinalityConstraint("fact", predicate, 5, source="q2"))
        constraints.add(CardinalityConstraint("fact", predicate, 7, source="q3"))
        unique = constraints.deduplicated()
        assert len(unique) == 2  # (predicate, 5) and (predicate, 7)

"""Per-relation cardinality constraints and their symbolic predicates.

The preprocessor (see :mod:`repro.core.preprocessor`) decomposes every AQP
into constraints of the form *"the number of tuples of relation R satisfying
predicate P is k"*.  Because P may refer to attributes of relations that R
references through foreign keys (the filter on a joined dimension), the
predicate is kept *symbolic*: a box condition on R's own columns plus, for
each foreign-key column, a nested symbolic predicate that the referenced
tuples must satisfy.  The nested parts are *grounded* into plain interval
conditions on the FK column only after the referenced relation's summary has
been aligned (deterministic alignment), at which point "referenced tuples
satisfying Q" is a union of contiguous primary-key index intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..sql.predicates import BoxCondition

__all__ = [
    "SymbolicPredicate",
    "ReferencedPredicate",
    "CardinalityConstraint",
    "RelationConstraints",
]


@dataclass(frozen=True)
class ReferencedPredicate:
    """A condition on the tuples referenced through one foreign-key column."""

    table: str
    predicate: "SymbolicPredicate"

    def to_dict(self) -> dict[str, Any]:
        return {"table": self.table, "predicate": self.predicate.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReferencedPredicate":
        return cls(
            table=payload["table"],
            predicate=SymbolicPredicate.from_dict(payload["predicate"]),
        )


@dataclass(frozen=True)
class SymbolicPredicate:
    """A conjunctive predicate over a relation, possibly crossing FK edges.

    ``box`` constrains the relation's own columns; ``references`` maps a
    foreign-key column name to the condition the referenced tuples must
    satisfy (recursively symbolic, to support snowflake chains).
    """

    box: BoxCondition = field(default_factory=lambda: BoxCondition({}))
    references: tuple[tuple[str, ReferencedPredicate], ...] = ()

    # ``references`` is stored as a sorted tuple of pairs so the predicate is
    # hashable and two structurally equal predicates compare equal — the
    # preprocessor relies on this for de-duplication.

    @classmethod
    def make(
        cls,
        box: BoxCondition | None = None,
        references: Mapping[str, ReferencedPredicate] | None = None,
    ) -> "SymbolicPredicate":
        pairs = tuple(sorted((references or {}).items()))
        return cls(box=box or BoxCondition({}), references=pairs)

    @property
    def reference_map(self) -> dict[str, ReferencedPredicate]:
        return dict(self.references)

    @property
    def is_trivial(self) -> bool:
        return self.box.is_unconstrained and not self.references

    def conjoin(self, other: "SymbolicPredicate") -> "SymbolicPredicate":
        """Conjunction of two symbolic predicates over the same relation."""
        merged_box = self.box.intersect(other.box)
        merged_refs = dict(self.references)
        for column, referenced in other.references:
            if column in merged_refs:
                existing = merged_refs[column]
                if existing.table != referenced.table:
                    raise ValueError(
                        f"foreign-key column {column!r} references both "
                        f"{existing.table!r} and {referenced.table!r}"
                    )
                merged_refs[column] = ReferencedPredicate(
                    table=existing.table,
                    predicate=existing.predicate.conjoin(referenced.predicate),
                )
            else:
                merged_refs[column] = referenced
        return SymbolicPredicate.make(box=merged_box, references=merged_refs)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "box": self.box.to_dict(),
            "references": {
                column: referenced.to_dict() for column, referenced in self.references
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SymbolicPredicate":
        return cls.make(
            box=BoxCondition.from_dict(payload.get("box", {})),
            references={
                column: ReferencedPredicate.from_dict(item)
                for column, item in payload.get("references", {}).items()
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [repr(self.box)]
        for column, referenced in self.references:
            parts.append(f"{column}→{referenced.table}[{referenced.predicate!r}]")
        return "SymbolicPredicate(" + " ∧ ".join(parts) + ")"


@dataclass(frozen=True)
class CardinalityConstraint:
    """``|σ_P(relation)| = cardinality`` extracted from one AQP edge."""

    relation: str
    predicate: SymbolicPredicate
    cardinality: int
    source: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "relation": self.relation,
            "predicate": self.predicate.to_dict(),
            "cardinality": self.cardinality,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CardinalityConstraint":
        return cls(
            relation=payload["relation"],
            predicate=SymbolicPredicate.from_dict(payload["predicate"]),
            cardinality=int(payload["cardinality"]),
            source=payload.get("source", ""),
        )


@dataclass
class RelationConstraints:
    """All cardinality constraints collected for one relation.

    ``tracking`` holds predicates that carry no cardinality of their own but
    must still shape the relation's region partition: they are the conditions
    other relations borrow through foreign keys (e.g. the ``orders`` half of a
    ``lineitem → orders → customer`` chain).  Registering them guarantees that
    every borrowed predicate is a union of whole regions, which is what makes
    the deterministic alignment exact.
    """

    relation: str
    row_count: int
    constraints: list[CardinalityConstraint] = field(default_factory=list)
    tracking: list[SymbolicPredicate] = field(default_factory=list)

    def add(self, constraint: CardinalityConstraint) -> None:
        if constraint.relation != self.relation:
            raise ValueError(
                f"constraint on {constraint.relation!r} added to {self.relation!r}"
            )
        self.constraints.append(constraint)

    def add_tracking(self, predicate: SymbolicPredicate) -> None:
        """Register a borrowed predicate (idempotent, trivial ones skipped)."""
        if predicate.is_trivial:
            return
        if predicate not in self.tracking:
            self.tracking.append(predicate)

    def deduplicated(self) -> list[CardinalityConstraint]:
        """Constraints with exact duplicates (same predicate & count) removed.

        Conflicting duplicates (same predicate, different counts) are all
        kept: the solver's soft mode will then spread the discrepancy, which
        mirrors how HYDRA absorbs inconsistent what-if annotations.
        """
        seen: set[tuple[SymbolicPredicate, int]] = set()
        unique: list[CardinalityConstraint] = []
        for constraint in self.constraints:
            key = (constraint.predicate, constraint.cardinality)
            if key in seen:
                continue
            seen.add(key)
            unique.append(constraint)
        return unique

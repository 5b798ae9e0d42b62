"""SQL layer: predicate algebra, SPJ query model and a small SQL parser."""

from .predicates import (
    AbstractPredicate,
    And,
    BasePredicate,
    BinaryPredicate,
    BoxCondition,
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
from .parser import SQLParseError, parse_query
from .query import DisjunctiveJoinCondition, JoinCondition, Query, join_condition_from_dict

__all__ = [
    "AbstractPredicate",
    "And",
    "BasePredicate",
    "BinaryPredicate",
    "BoxCondition",
    "ColumnComparison",
    "ColumnRef",
    "Comparison",
    "CompoundPredicate",
    "DisjunctiveJoinCondition",
    "InList",
    "Interval",
    "IntervalSet",
    "JoinCondition",
    "Not",
    "Or",
    "Predicate",
    "Query",
    "SQLParseError",
    "TruePredicate",
    "join_condition_from_dict",
    "parse_query",
    "predicate_from_dict",
]

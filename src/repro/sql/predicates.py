"""Predicate algebra: intervals, boxes and the filter/join expression AST.

This module is the canonical home of HYDRA's predicate layer.  It has three
floors, bottom to top:

* **Interval machinery** — :class:`Interval` and :class:`IntervalSet` implement
  the half-open interval arithmetic over the internal numeric domain that the
  region-partitioning algorithm (``repro.core.regions``) and the grid baseline
  operate on.
* **Box conditions** — :class:`BoxCondition` is the conjunctive normal form
  every selection predicate is lowered to for LP formulation and summary
  arithmetic: a mapping ``column -> IntervalSet`` (columns absent are
  unconstrained), rich enough for the SPJ workloads of the paper plus the
  disjunctions that arise when a referenced relation's matching regions are
  projected onto a foreign-key column.
* **The predicate AST** — an :class:`AbstractPredicate` hierarchy with three
  families: *base* predicates (:class:`TruePredicate`, :class:`Comparison`,
  :class:`InList`) compare one column against constants, the *binary*
  predicate (:class:`ColumnComparison`) compares two columns — the shape of a
  join condition — and *compound* predicates (:class:`And`, :class:`Or`,
  :class:`Not`) combine children.  Every node supports vectorised evaluation,
  column traversal (:meth:`AbstractPredicate.itercolumns`), join/filter
  classification (:meth:`AbstractPredicate.is_join`) and lowering to a box
  (:meth:`AbstractPredicate.to_box`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Interval",
    "IntervalSet",
    "ColumnRef",
    "AbstractPredicate",
    "Predicate",
    "BasePredicate",
    "BinaryPredicate",
    "CompoundPredicate",
    "TruePredicate",
    "Comparison",
    "InList",
    "ColumnComparison",
    "And",
    "Or",
    "Not",
    "BoxCondition",
    "box_semantics_exact",
    "columns_with_dependencies",
    "predicate_from_dict",
]


def columns_with_dependencies(
    requested: Sequence[str], dependencies: Iterable[str]
) -> list[str]:
    """Return ``requested`` plus any filter-dependency columns not already in it.

    Shared by every filtered-scan layer (tuple generator, datagen relation,
    execution engine) so the column-augmentation rule — requested order
    preserved, missing dependencies appended in sorted order — cannot drift
    between them.
    """
    requested = list(requested)
    present = set(requested)
    return requested + [name for name in sorted(dependencies) if name not in present]


_EPSILON_SCALE = 1e-9


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[low, high)`` over the internal numeric domain."""

    low: float
    high: float

    def __post_init__(self) -> None:
        """Reject NaN bounds and normalise both bounds to ``float``."""
        if math.isnan(self.low) or math.isnan(self.high):
            raise ValueError(
                f"interval bounds must not be NaN (got [{self.low}, {self.high}))"
            )
        # Normalise to float so serialisation is canonical regardless of
        # whether bounds were provided as ints or floats.
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))

    @property
    def is_empty(self) -> bool:
        """Whether the interval contains no point (``high <= low``)."""
        return self.high <= self.low

    @property
    def width(self) -> float:
        """The interval's length (0 for empty intervals)."""
        return max(0.0, self.high - self.low)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside ``[low, high)``."""
        return self.low <= value < self.high

    def intersect(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection with ``other``."""
        return Interval(max(self.low, other.low), min(self.high, other.high))

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point."""
        return max(self.low, other.low) < min(self.high, other.high)

    def representative(self, discrete: bool = True) -> float:
        """A concrete value inside the interval (the lowest usable point)."""
        if self.is_empty:
            raise ValueError("empty interval has no representative")
        if math.isinf(self.low):
            candidate = self.high - 1.0 if not math.isinf(self.high) else 0.0
        else:
            candidate = self.low
        if discrete:
            candidate = math.ceil(candidate)
            if candidate >= self.high:
                raise ValueError(
                    f"interval [{self.low}, {self.high}) contains no integer point"
                )
        return float(candidate)

    def count_integers(self) -> int:
        """Number of integer points inside the interval (may be 0)."""
        if self.is_empty:
            return 0
        low = math.ceil(self.low) if not math.isinf(self.low) else None
        high = math.ceil(self.high) if not math.isinf(self.high) else None
        if low is None or high is None:
            raise ValueError("cannot count integers of an unbounded interval")
        return max(0, high - low)

    def sum_integers(self) -> int:
        """Sum of the integer points inside the interval (0 when empty).

        Evaluated as an arithmetic series in exact integer arithmetic, so the
        summary fast path can sum a primary-key column over a pk window
        without enumerating indices or rounding.
        """
        count = self.count_integers()
        if count == 0:
            return 0
        first = math.ceil(self.low)
        return (2 * first + count - 1) * count // 2

    def to_dict(self) -> dict[str, float]:
        """Serialise to a ``{"low": ..., "high": ...}`` mapping."""
        return {"low": self.low, "high": self.high}

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "Interval":
        """Reconstruct an interval from :meth:`to_dict` output."""
        return cls(float(payload["low"]), float(payload["high"]))

    @classmethod
    def everything(cls) -> "Interval":
        """The unbounded interval covering the whole domain."""
        return cls(-math.inf, math.inf)

    @classmethod
    def point(cls, value: float, discrete: bool = True) -> "Interval":
        """Interval containing exactly one value (``[v, v+1)`` for discrete)."""
        if discrete:
            return cls(float(value), float(value) + 1.0)
        eps = max(abs(value), 1.0) * _EPSILON_SCALE
        return cls(float(value), float(value) + eps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Render as ``[low, high)``."""
        return f"[{self.low}, {self.high})"


def _trusted_interval(low: float, high: float) -> Interval:
    """``Interval(low, high)`` without the checks, for endpoints already checked.

    Only :meth:`IntervalSet.split` calls it, with endpoints copied from
    validated intervals: floats, never NaN, and ``low < high``.
    """
    interval = object.__new__(Interval)
    object.__setattr__(interval, "low", low)
    object.__setattr__(interval, "high", high)
    return interval


class IntervalSet:
    """A union of disjoint, sorted, half-open intervals.

    Supports the set algebra (intersection, union, difference) needed to split
    the value space into regions, plus point membership and vectorised
    membership tests for predicate evaluation.  Immutable: every operation
    returns a new set, so sets (and :meth:`everything`) are shared freely.
    """

    __slots__ = ("intervals",)

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        """Normalise ``intervals`` into a sorted, disjoint, merged tuple."""
        object.__setattr__(self, "intervals", self._normalise(intervals))

    @classmethod
    def _trusted(cls, intervals: tuple[Interval, ...]) -> "IntervalSet":
        """A set over ``intervals`` as they are: already sorted, disjoint, non-touching."""
        result = object.__new__(cls)
        object.__setattr__(result, "intervals", intervals)
        return result

    def __setattr__(self, name: str, value: object) -> None:
        """Refuse: a set is shared, so it must never change."""
        raise AttributeError(f"IntervalSet is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        """Refuse: a set is shared, so it must never change."""
        raise AttributeError(f"IntervalSet is immutable (cannot delete {name!r})")

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle as the interval tuple (the slot is not settable after creation)."""
        return (IntervalSet, (self.intervals,))

    @staticmethod
    def _normalise(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
        """Drop empty intervals, then sort and merge overlapping ones.

        NaN bounds are rejected with a :class:`ValueError`: a NaN interval is
        neither empty nor ordered, so letting one through would silently
        produce an unsatisfiable (and unmergeable) set.
        """
        items = []
        for interval in intervals:
            if math.isnan(interval.low) or math.isnan(interval.high):
                raise ValueError(
                    f"interval bounds must not be NaN (got {interval!r})"
                )
            if not interval.is_empty:
                items.append(interval)
        items.sort(key=lambda iv: (iv.low, iv.high))
        merged: list[Interval] = []
        for interval in items:
            if merged and interval.low <= merged[-1].high:
                last = merged[-1]
                merged[-1] = Interval(last.low, max(last.high, interval.high))
            else:
                merged.append(interval)
        return tuple(merged)

    # -- constructors ----------------------------------------------------

    @classmethod
    def everything(cls) -> "IntervalSet":
        """The set covering the whole domain (one shared instance)."""
        return _EVERYTHING

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return cls([])

    @classmethod
    def single(cls, low: float, high: float) -> "IntervalSet":
        """The set of one interval ``[low, high)``."""
        return cls([Interval(low, high)])

    @classmethod
    def point(cls, value: float, discrete: bool = True) -> "IntervalSet":
        """The set containing exactly one value."""
        return cls([Interval.point(value, discrete=discrete)])

    @classmethod
    def points(cls, values: Iterable[float], discrete: bool = True) -> "IntervalSet":
        """The set containing exactly the given values."""
        return cls([Interval.point(v, discrete=discrete) for v in values])

    # -- predicates ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the set contains no interval."""
        return not self.intervals

    @property
    def is_everything(self) -> bool:
        """Whether the set is the single unbounded interval."""
        return (
            len(self.intervals) == 1
            and math.isinf(self.intervals[0].low)
            and self.intervals[0].low < 0
            and math.isinf(self.intervals[0].high)
            and self.intervals[0].high > 0
        )

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside any interval of the set."""
        for interval in self.intervals:
            if interval.contains(value):
                return True
            if value < interval.low:
                return False
        return False

    def contains_set(self, other: "IntervalSet") -> bool:
        """True if ``other`` is a subset of this set."""
        return other.subtract(self).is_empty

    def side_of(self, other: "IntervalSet") -> int:
        """Where this set lies relative to ``other``, from endpoints alone.

        ``1`` when every point of this set is in ``other``, ``-1`` when the
        two share no point (in particular when either is empty), ``0`` when
        ``other`` cuts through this set.  Allocates nothing.
        """
        theirs = other.intervals
        contained = disjoint = True
        position = 0
        for interval in self.intervals:
            while position < len(theirs) and theirs[position].high <= interval.low:
                position += 1
            if position < len(theirs) and theirs[position].low < interval.high:
                disjoint = False
                covering = theirs[position]
                if covering.low > interval.low or covering.high < interval.high:
                    return 0
            else:
                contained = False
            if not (contained or disjoint):
                return 0
        return -1 if disjoint else 1

    def membership_mask(self, values: NDArray[Any]) -> NDArray[Any]:
        """Vectorised membership test over an array of values."""
        values = np.asarray(values, dtype=np.float64)
        mask = np.zeros(values.shape, dtype=bool)
        for interval in self.intervals:
            mask |= (values >= interval.low) & (values < interval.high)
        return mask

    # -- algebra ---------------------------------------------------------

    def split(self, other: "IntervalSet") -> tuple["IntervalSet", "IntervalSet"]:
        """``(self & other, self - other)`` in one merge walk over both sets.

        Both halves come out sorted, disjoint and non-touching, so neither is
        re-normalised.  An interval of ``self`` that ``other`` leaves whole —
        inside one interval of ``other``, or apart from all of them — is
        passed on as the same object; a cut piece takes each endpoint from
        ``self`` unless ``other``'s lies strictly inside (so ``-0.0`` vs
        ``0.0`` ties keep ``self``'s).  O(n + m + pieces).
        """
        theirs = other.intervals
        count = len(theirs)
        inside: list[Interval] = []
        outside: list[Interval] = []
        position = 0
        for interval in self.intervals:
            low, high = interval.low, interval.high
            # Cuts wholly left of this interval are left of every later one.
            while position < count and theirs[position].high <= low:
                position += 1
            index = position
            cursor = low  # where the part not yet inside a cut starts
            while index < count:
                cut = theirs[index]
                if cut.low >= high:
                    break
                if cut.low > cursor:
                    outside.append(_trusted_interval(cursor, cut.low))
                piece_low = cut.low if cut.low > low else low
                piece_high = cut.high if cut.high < high else high
                if piece_low is low and piece_high is high:
                    inside.append(interval)
                else:
                    inside.append(_trusted_interval(piece_low, piece_high))
                cursor = cut.high
                index += 1
            if index == position:
                outside.append(interval)
            elif cursor < high:
                outside.append(_trusted_interval(cursor, high))
        return IntervalSet._trusted(tuple(inside)), IntervalSet._trusted(tuple(outside))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """The intersection with ``other`` (the inside half of :meth:`split`)."""
        return self.split(other)[0]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The union with ``other``."""
        return IntervalSet(list(self.intervals) + list(other.intervals))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """The set difference ``self - other`` (the outside half of :meth:`split`)."""
        return self.split(other)[1]

    def complement(self) -> "IntervalSet":
        """The complement with respect to the whole domain."""
        return _EVERYTHING.subtract(self)

    # -- measurements ----------------------------------------------------

    def count_integers(self) -> int:
        """Number of integer points inside the set."""
        return sum(interval.count_integers() for interval in self.intervals)

    def sum_integers(self) -> int:
        """Sum of the integer points inside the set (intervals are disjoint)."""
        return sum(interval.sum_integers() for interval in self.intervals)

    def representative(self, discrete: bool = True) -> float:
        """A concrete value inside the set (the lowest usable point)."""
        for interval in self.intervals:
            try:
                return interval.representative(discrete=discrete)
            except ValueError:
                continue
        raise ValueError("interval set has no representative point")

    def bounds(self) -> tuple[float, float]:
        """The overall ``(low, high)`` envelope of the set."""
        if self.is_empty:
            raise ValueError("empty interval set has no bounds")
        return self.intervals[0].low, self.intervals[-1].high

    # -- serialisation / dunder -----------------------------------------

    def to_dict(self) -> list[dict[str, float]]:
        """Serialise to a list of interval mappings."""
        return [interval.to_dict() for interval in self.intervals]

    @classmethod
    def from_dict(cls, payload: Sequence[Mapping[str, float]]) -> "IntervalSet":
        """Reconstruct a set from :meth:`to_dict` output."""
        return cls([Interval.from_dict(item) for item in payload])

    def __eq__(self, other: object) -> bool:
        """Structural equality on the normalised interval tuples."""
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        """Hash of the normalised interval tuple."""
        return hash(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        """Iterate over the member intervals in order."""
        return iter(self.intervals)

    def __len__(self) -> int:
        """Number of disjoint intervals in the set."""
        return len(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Render as a union of intervals."""
        if self.is_empty:
            return "IntervalSet(∅)"
        return "IntervalSet(" + " ∪ ".join(repr(iv) for iv in self.intervals) + ")"


#: The whole domain, shared by :meth:`IntervalSet.everything` and every
#: unconstrained column of :meth:`BoxCondition.condition_for`.
_EVERYTHING = IntervalSet([Interval.everything()])


# ---------------------------------------------------------------------------
# Column references
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A (possibly table-qualified) column reference inside a predicate.

    Base predicates compare an *unqualified* column (``table`` is ``None``;
    the owning table is implied by where the predicate is attached), while
    the binary :class:`ColumnComparison` — the join shape — references two
    qualified columns.  :meth:`AbstractPredicate.tables` and the join/filter
    classification are derived from the qualified references.
    """

    table: str | None
    column: str

    @property
    def qualified(self) -> bool:
        """Whether the reference names its table."""
        return self.table is not None

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a ``{"table": ..., "column": ...}`` mapping."""
        return {"table": self.table, "column": self.column}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ColumnRef":
        """Reconstruct a reference from :meth:`to_dict` output."""
        return cls(payload.get("table"), payload["column"])

    def __str__(self) -> str:
        """Render as ``table.column`` (or bare ``column`` when unqualified)."""
        return f"{self.table}.{self.column}" if self.table else self.column


# ---------------------------------------------------------------------------
# Predicate AST
# ---------------------------------------------------------------------------


class AbstractPredicate:
    """Root of the predicate AST.

    Concrete nodes fall into three families — :class:`BasePredicate` leaves,
    the :class:`BinaryPredicate` column-to-column comparison, and
    :class:`CompoundPredicate` combinators — and share this interface:
    vectorised evaluation, column/table traversal, join vs filter
    classification and box normalisation.
    """

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Return a boolean mask for each row of the given column arrays."""
        raise NotImplementedError

    def evaluate_row(self, row: Mapping[str, float]) -> bool:
        """Evaluate against a single row (mapping column -> encoded value)."""
        columns = {name: np.asarray([value], dtype=np.float64) for name, value in row.items()}
        return bool(self.evaluate(columns)[0])

    def columns(self) -> set[str]:
        """The set of unqualified column names referenced by the predicate."""
        return {ref.column for ref in self.itercolumns()}

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield every column reference of the predicate, leaves first."""
        raise NotImplementedError

    def tables(self) -> frozenset[str]:
        """All tables named by qualified column references in the predicate."""
        return frozenset(
            ref.table for ref in self.itercolumns() if ref.table is not None
        )

    def is_join(self) -> bool:
        """Whether the predicate relates columns of more than one table.

        Mirrors the PostBOUND ``qal`` classification: a predicate is a join
        exactly when its qualified column references span at least two
        distinct tables; everything else — including column-free constants —
        is a filter.
        """
        return len(self.tables()) > 1

    def is_filter(self) -> bool:
        """Whether the predicate restricts (at most) a single table."""
        return not self.is_join()

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Normalise to a conjunctive box condition.

        Raises :class:`ValueError` when the predicate is not expressible as a
        conjunction of per-column interval-set conditions (the workloads the
        paper targets always are).
        """
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        """Serialise the node to a JSON-compatible mapping."""
        raise NotImplementedError

    # -- sugar ------------------------------------------------------------

    def __and__(self, other: "AbstractPredicate") -> "AbstractPredicate":
        """Conjunction sugar: ``a & b`` builds ``And([a, b])``."""
        return And([self, other])

    def __or__(self, other: "AbstractPredicate") -> "AbstractPredicate":
        """Disjunction sugar: ``a | b`` builds ``Or([a, b])``."""
        return Or([self, other])

    def __invert__(self) -> "AbstractPredicate":
        """Negation sugar: ``~a`` builds ``Not(a)``."""
        return Not(self)

    def __str__(self) -> str:
        """A human-readable SQL-flavoured rendering (defaults to ``repr``)."""
        return repr(self)


#: Backwards-compatible alias — the pre-refactor name of the AST root.
Predicate = AbstractPredicate


class BasePredicate(AbstractPredicate):
    """A leaf predicate: one (unqualified) column against constants."""


class BinaryPredicate(AbstractPredicate):
    """A predicate relating two column references — the join shape."""


class CompoundPredicate(AbstractPredicate):
    """A predicate combining child predicates (``And``/``Or``/``Not``)."""


@dataclass(frozen=True)
class TruePredicate(BasePredicate):
    """The always-true predicate (no filter)."""

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Return an all-true mask of the input length."""
        length = len(next(iter(columns.values()))) if columns else 0
        return np.ones(length, dtype=bool)

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield nothing: the constant references no column."""
        return iter(())

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Normalise to the unconstrained (match-all) box."""
        return BoxCondition({})

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": "true"}``."""
        return {"op": "true"}

    def __repr__(self) -> str:
        """Render as ``TRUE``."""
        return "TRUE"


_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison(BasePredicate):
    """``column <op> constant`` with a numeric (encoded) constant."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        """Validate the comparison operator."""
        if self.op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Compare the column array element-wise against the constant."""
        values = np.asarray(columns[self.column], dtype=np.float64)
        if self.op == "=":
            return values == self.value
        if self.op == "!=":
            return values != self.value
        if self.op == "<":
            return values < self.value
        if self.op == "<=":
            return values <= self.value
        if self.op == ">":
            return values > self.value
        return values >= self.value

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield the single (unqualified) column reference."""
        yield ColumnRef(None, self.column)

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Lower the comparison to a single-column interval-set condition."""
        discrete = True
        if discrete_columns is not None:
            discrete = discrete_columns.get(self.column, True)
        step = 1.0 if discrete else max(abs(self.value), 1.0) * _EPSILON_SCALE
        if self.op == "=":
            interval_set = IntervalSet.point(self.value, discrete=discrete)
        elif self.op == "!=":
            interval_set = IntervalSet.point(self.value, discrete=discrete).complement()
        elif self.op == "<":
            interval_set = IntervalSet.single(-math.inf, self.value)
        elif self.op == "<=":
            interval_set = IntervalSet.single(-math.inf, self.value + step)
        elif self.op == ">":
            interval_set = IntervalSet.single(self.value + step, math.inf)
        else:  # >=
            interval_set = IntervalSet.single(self.value, math.inf)
        return BoxCondition({self.column: interval_set})

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": <op>, "column": ..., "value": ...}``."""
        return {"op": self.op, "column": self.column, "value": self.value}

    def __repr__(self) -> str:
        """Render as ``column <op> value``."""
        return f"{self.column} {self.op} {self.value}"


@dataclass(frozen=True)
class InList(BasePredicate):
    """``column IN (v1, v2, ...)`` over encoded constants."""

    column: str
    values: tuple[float, ...]

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Test column membership in the constant list element-wise."""
        values = np.asarray(columns[self.column], dtype=np.float64)
        return np.isin(values, np.asarray(self.values, dtype=np.float64))

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield the single (unqualified) column reference."""
        yield ColumnRef(None, self.column)

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Lower the IN-list to a union of point intervals on the column."""
        discrete = True
        if discrete_columns is not None:
            discrete = discrete_columns.get(self.column, True)
        return BoxCondition({self.column: IntervalSet.points(self.values, discrete=discrete)})

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": "in", "column": ..., "values": [...]}``."""
        return {"op": "in", "column": self.column, "values": list(self.values)}

    def __repr__(self) -> str:
        """Render as ``column IN (...)``."""
        return f"{self.column} IN {self.values}"


@dataclass(frozen=True)
class ColumnComparison(BinaryPredicate):
    """``left <op> right`` between two (qualified) column references.

    This is the algebraic shape of a join condition: when the two references
    name different tables, :meth:`AbstractPredicate.is_join` classifies the
    predicate as a join edge and the join graph
    (:mod:`repro.plans.joingraph`) consumes it directly.
    """

    left: ColumnRef
    op: str
    right: ColumnRef

    def __post_init__(self) -> None:
        """Validate the comparison operator."""
        if self.op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def _resolve(self, columns: Mapping[str, NDArray[Any]], ref: ColumnRef) -> NDArray[Any]:
        """Fetch one operand array by qualified, then bare, column name."""
        if ref.table is not None:
            qualified = f"{ref.table}.{ref.column}"
            if qualified in columns:
                return np.asarray(columns[qualified], dtype=np.float64)
        return np.asarray(columns[ref.column], dtype=np.float64)

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Compare the two referenced column arrays element-wise."""
        left = self._resolve(columns, self.left)
        right = self._resolve(columns, self.right)
        if self.op == "=":
            return left == right
        if self.op == "!=":
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        return left >= right

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield the left then the right column reference."""
        yield self.left
        yield self.right

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Column-to-column comparisons have no per-column box form."""
        raise ValueError(
            f"column comparison {self} cannot be normalised to a box condition"
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": "colcmp", "cmp": ..., "left": ..., "right": ...}``."""
        return {
            "op": "colcmp",
            "cmp": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    def __repr__(self) -> str:
        """Render as ``left <op> right`` with qualified names."""
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(CompoundPredicate):
    """Conjunction of child predicates."""

    children: tuple[AbstractPredicate, ...]

    def __init__(self, children: Iterable[AbstractPredicate]) -> None:
        """Freeze the child iterable into a tuple."""
        object.__setattr__(self, "children", tuple(children))

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """AND the child masks (the empty conjunction is all-true)."""
        if not self.children:
            return TruePredicate().evaluate(columns)
        mask = self.children[0].evaluate(columns)
        for child in self.children[1:]:
            mask = mask & child.evaluate(columns)
        return mask

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield every child's column references in order."""
        for child in self.children:
            yield from child.itercolumns()

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Intersect the children's boxes."""
        box = BoxCondition({})
        for child in self.children:
            box = box.intersect(child.to_box(discrete_columns))
        return box

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": "and", "children": [...]}``."""
        return {"op": "and", "children": [child.to_dict() for child in self.children]}

    def __repr__(self) -> str:
        """Render as a parenthesised AND chain."""
        return "(" + " AND ".join(repr(child) for child in self.children) + ")"


@dataclass(frozen=True)
class Or(CompoundPredicate):
    """Disjunction of child predicates.

    Only single-column disjunctions (which normalise to an interval-set on
    that column) can be converted to a box condition.  The empty disjunction
    ``Or(())`` is the canonical *false* predicate.
    """

    children: tuple[AbstractPredicate, ...]

    def __init__(self, children: Iterable[AbstractPredicate]) -> None:
        """Freeze the child iterable into a tuple."""
        object.__setattr__(self, "children", tuple(children))

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """OR the child masks (the empty disjunction is all-false)."""
        if not self.children:
            length = len(next(iter(columns.values()))) if columns else 0
            return np.zeros(length, dtype=bool)
        mask = self.children[0].evaluate(columns)
        for child in self.children[1:]:
            mask = mask | child.evaluate(columns)
        return mask

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield every child's column references in order."""
        for child in self.children:
            yield from child.itercolumns()

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Union the children's single-column boxes.

        The empty disjunction lowers to the unsatisfiable box (``BoxCondition
        ({})`` would be the match-all box, silently flipping the semantics
        for every box-routed consumer), and unsatisfiable disjuncts
        contribute nothing.
        """
        if not self.children:
            return BoxCondition.never()
        referenced = self.columns()
        if len(referenced) > 1:
            raise ValueError(
                "disjunctions across multiple columns cannot be normalised to a box"
            )
        column = next(iter(referenced)) if referenced else None
        if column is None:
            # Column-free children have constant verdicts (TruePredicate,
            # nested empty disjunctions): the disjunction holds iff any child
            # normalises to a satisfiable box.
            if any(not child.to_box(discrete_columns).is_empty for child in self.children):
                return BoxCondition({})
            return BoxCondition.never()
        combined = IntervalSet.empty()
        for child in self.children:
            child_box = child.to_box(discrete_columns)
            if child_box.is_empty:
                # An unsatisfiable disjunct (e.g. a nested empty disjunction)
                # contributes nothing; asking it for the column's condition
                # would return the unconstrained interval set and silently
                # flip the disjunction to match-all.
                continue
            combined = combined.union(child_box.condition_for(column))
        return BoxCondition({column: combined})

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": "or", "children": [...]}``."""
        return {"op": "or", "children": [child.to_dict() for child in self.children]}

    def __repr__(self) -> str:
        """Render as a parenthesised OR chain."""
        return "(" + " OR ".join(repr(child) for child in self.children) + ")"


@dataclass(frozen=True)
class Not(CompoundPredicate):
    """Negation of a child predicate."""

    child: AbstractPredicate

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Invert the child's mask."""
        return ~self.child.evaluate(columns)

    def itercolumns(self) -> Iterator[ColumnRef]:
        """Yield the child's column references."""
        return self.child.itercolumns()

    def to_box(self, discrete_columns: Mapping[str, bool] | None = None) -> "BoxCondition":
        """Complement the child box (at most one column, or a constant verdict)."""
        referenced = self.child.columns()
        if len(referenced) > 1:
            raise ValueError("only single-column negations can be normalised to a box")
        child_box = self.child.to_box(discrete_columns)
        if not child_box.satisfiable:
            # NOT of a flag-unsatisfiable child (e.g. AND with an empty
            # disjunction) holds everywhere; the child's per-column intervals
            # are irrelevant and complementing them would be unsound.
            return BoxCondition({})
        if not referenced:
            return BoxCondition.never()  # NOT of a column-free truth
        column = next(iter(referenced))
        return BoxCondition({column: child_box.condition_for(column).complement()})

    def to_dict(self) -> dict[str, Any]:
        """Serialise as ``{"op": "not", "child": ...}``."""
        return {"op": "not", "child": self.child.to_dict()}

    def __repr__(self) -> str:
        """Render as ``NOT (child)``."""
        return f"NOT ({self.child!r})"


# ---------------------------------------------------------------------------
# Conjunctive box conditions
# ---------------------------------------------------------------------------


class BoxCondition:
    """A conjunctive condition: each constrained column limited to an interval set.

    Columns not present are unconstrained.  This is the canonical constraint
    form consumed by the LP formulator: every workload predicate, and every
    predicate borrowed across a key/foreign-key join, ends up as one of these.

    ``satisfiable=False`` marks the *falsum* box (no tuple can ever match) —
    needed because a column-free contradiction such as the empty disjunction
    has no per-column interval set to carry its emptiness.
    """

    __slots__ = ("conditions", "satisfiable")

    def __init__(self, conditions: Mapping[str, IntervalSet], satisfiable: bool = True) -> None:
        """Store the constrained columns, dropping unconstrained entries."""
        cleaned = {
            column: interval_set
            for column, interval_set in conditions.items()
            if not interval_set.is_everything
        }
        self.conditions: dict[str, IntervalSet] = dict(sorted(cleaned.items()))
        self.satisfiable: bool = bool(satisfiable)

    @classmethod
    def never(cls) -> "BoxCondition":
        """The unsatisfiable box: matches no tuple on any relation."""
        return cls({}, satisfiable=False)

    # -- basic accessors -------------------------------------------------

    @property
    def is_unconstrained(self) -> bool:
        """Whether the box matches every tuple."""
        return self.satisfiable and not self.conditions

    @property
    def is_empty(self) -> bool:
        """Whether no tuple can satisfy the box."""
        return not self.satisfiable or any(
            interval_set.is_empty for interval_set in self.conditions.values()
        )

    def columns(self) -> set[str]:
        """The constrained column names."""
        return set(self.conditions)

    def condition_for(self, column: str) -> IntervalSet:
        """The interval set of one column (everything when unconstrained)."""
        return self.conditions.get(column, _EVERYTHING)

    # -- algebra ---------------------------------------------------------

    def intersect(self, other: "BoxCondition") -> "BoxCondition":
        """Column-wise intersection of two boxes."""
        conditions: dict[str, IntervalSet] = dict(self.conditions)
        for column, interval_set in other.conditions.items():
            if column in conditions:
                conditions[column] = conditions[column].intersect(interval_set)
            else:
                conditions[column] = interval_set
        return BoxCondition(conditions, satisfiable=self.satisfiable and other.satisfiable)

    def with_condition(self, column: str, intervals: IntervalSet) -> "BoxCondition":
        """A copy with ``column`` further restricted to ``intervals``."""
        conditions = dict(self.conditions)
        conditions[column] = self.condition_for(column).intersect(intervals)
        return BoxCondition(conditions, satisfiable=self.satisfiable)

    def replacing(self, column: str, intervals: IntervalSet) -> "BoxCondition":
        """A copy whose ``column`` condition *is* ``intervals``, not re-cleaned.

        Trusted: the caller guarantees ``intervals`` is not the whole domain,
        so the copy only has to keep the sorted column order — which it does
        for free unless ``column`` was unconstrained.
        """
        conditions = dict(self.conditions)
        known = column in conditions
        conditions[column] = intervals
        box = BoxCondition.__new__(BoxCondition)
        box.conditions = conditions if known else dict(sorted(conditions.items()))
        box.satisfiable = self.satisfiable
        return box

    # -- evaluation ------------------------------------------------------

    def evaluate(self, columns: Mapping[str, NDArray[Any]]) -> NDArray[Any]:
        """Vectorised membership test over column arrays."""
        length = len(next(iter(columns.values()))) if columns else 0
        if not self.satisfiable:
            return np.zeros(length, dtype=bool)
        mask = np.ones(length, dtype=bool)
        for column, interval_set in self.conditions.items():
            mask &= interval_set.membership_mask(np.asarray(columns[column]))
        return mask

    def contains_point(self, point: Mapping[str, float]) -> bool:
        """Whether a single point satisfies every column condition."""
        if not self.satisfiable:
            return False
        for column, interval_set in self.conditions.items():
            if column not in point:
                return False
            if not interval_set.contains(point[column]):
                return False
        return True

    # -- serialisation / dunder -----------------------------------------

    def to_predicate(self) -> AbstractPredicate:
        """Convert back to a predicate AST (for execution / verification)."""
        if not self.satisfiable:
            return Or(())
        children: list[AbstractPredicate] = []
        for column, interval_set in self.conditions.items():
            column_children: list[AbstractPredicate] = []
            for interval in interval_set:
                parts: list[AbstractPredicate] = []
                if not math.isinf(interval.low):
                    parts.append(Comparison(column, ">=", interval.low))
                if not math.isinf(interval.high):
                    parts.append(Comparison(column, "<", interval.high))
                if not parts:
                    parts.append(TruePredicate())
                column_children.append(And(parts) if len(parts) > 1 else parts[0])
            if len(column_children) == 1:
                children.append(column_children[0])
            else:
                children.append(Or(column_children))
        if not children:
            return TruePredicate()
        if len(children) == 1:
            return children[0]
        return And(children)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a column -> interval-list mapping."""
        payload: dict[str, Any] = {
            column: interval_set.to_dict()
            for column, interval_set in self.conditions.items()
        }
        if not self.satisfiable:
            payload["__unsatisfiable__"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BoxCondition":
        """Reconstruct a box from :meth:`to_dict` output."""
        return cls(
            {
                column: IntervalSet.from_dict(item)
                for column, item in payload.items()
                if column != "__unsatisfiable__"
            },
            satisfiable=not payload.get("__unsatisfiable__", False),
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality on satisfiability and per-column conditions."""
        if not isinstance(other, BoxCondition):
            return NotImplemented
        return self.satisfiable == other.satisfiable and self.conditions == other.conditions

    def __hash__(self) -> int:
        """Hash consistent with :meth:`__eq__`."""
        return hash((self.satisfiable, tuple(self.conditions.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Render the constrained columns (or TRUE/FALSE)."""
        if not self.satisfiable:
            return "BoxCondition(FALSE)"
        if self.is_unconstrained:
            return "BoxCondition(TRUE)"
        parts = [f"{column} ∈ {interval_set!r}" for column, interval_set in self.conditions.items()]
        return "BoxCondition(" + " ∧ ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Box-conversion exactness
# ---------------------------------------------------------------------------


def box_semantics_exact(
    predicate: AbstractPredicate, discrete_columns: Mapping[str, bool]
) -> bool:
    """Whether ``predicate.to_box(discrete_columns)`` is *exactly* equivalent.

    ``discrete_columns`` maps every known column of the relation to whether
    its internal domain is discrete (integral); a column absent from the
    mapping is unknown and makes the predicate inexact, so that unknown
    columns surface as errors on every execution route instead of being
    silently counted against a summary default value.

    Exactness composes: intersections/unions/complements of exact per-column
    interval sets stay exact, so only the leaves matter.  A comparison on a
    discrete column is exact only for integral constants (``qty = 2.5``
    matches nothing, but its box ``[2.5, 3.5)`` matches 3); on a continuous
    column only ``<`` and ``>=`` avoid the epsilon approximation.  Column
    comparisons (join predicates) have no box form at all.
    """
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        if predicate.column not in discrete_columns:
            return False
        if predicate.op in ("<", ">="):
            return True
        # =, !=, <= and > round the bound to the next representable point.
        return (
            discrete_columns[predicate.column]
            and float(predicate.value).is_integer()
        )
    if isinstance(predicate, InList):
        return (
            predicate.column in discrete_columns
            and discrete_columns[predicate.column]
            and all(float(value).is_integer() for value in predicate.values)
        )
    if isinstance(predicate, And):
        return all(box_semantics_exact(child, discrete_columns) for child in predicate.children)
    if isinstance(predicate, Or):
        # The empty disjunction normalises to the unsatisfiable box, which is
        # exactly its all-false evaluation semantics.
        return all(box_semantics_exact(child, discrete_columns) for child in predicate.children)
    if isinstance(predicate, Not):
        return box_semantics_exact(predicate.child, discrete_columns)
    return False


# ---------------------------------------------------------------------------
# Deserialisation
# ---------------------------------------------------------------------------


def predicate_from_dict(payload: Mapping[str, Any]) -> AbstractPredicate:
    """Inverse of :meth:`AbstractPredicate.to_dict` for every AST node type."""
    op = payload["op"]
    if op == "true":
        return TruePredicate()
    if op == "in":
        return InList(payload["column"], tuple(float(v) for v in payload["values"]))
    if op == "and":
        return And([predicate_from_dict(child) for child in payload["children"]])
    if op == "or":
        return Or([predicate_from_dict(child) for child in payload["children"]])
    if op == "not":
        return Not(predicate_from_dict(payload["child"]))
    if op == "colcmp":
        return ColumnComparison(
            ColumnRef.from_dict(payload["left"]),
            payload["cmp"],
            ColumnRef.from_dict(payload["right"]),
        )
    if op in _COMPARISON_OPS:
        return Comparison(payload["column"], op, float(payload["value"]))
    raise ValueError(f"unknown predicate op {op!r}")

"""The column view of a relation summary: its rows as arrays, classified in one pass.

The summary route answers aggregates in O(#summary rows) and reads few
columns of every row, so it reads the rows column-wise: tuple counts,
one float64 array per value column and, per foreign-key column, every
row's flattened target pieces concatenated.  A
:class:`~repro.core.summary.RelationSummary` derives the view on first use
(:attr:`~repro.core.summary.RelationSummary.columns`) and never serialises
it.  Each constrained column of a box is then one array pass over all rows,
built on one primitive, :func:`integer_prefix`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from ..sql.predicates import BoxCondition, IntervalSet

if TYPE_CHECKING:
    from .summary import SummaryRow

__all__ = ["FKColumn", "RowMatches", "SummaryColumns", "integer_prefix"]


def integer_prefix(
    intervals: IntervalSet, low: int, high: int
) -> Callable[[NDArray[np.int64]], NDArray[np.int64]]:
    """``F(x)``: how many integers of ``intervals`` lie in ``[low, x)``, for ``low <= x <= high``.

    ``[a, b)`` holds the integers ``ceil(a) .. ceil(b) - 1``, so the ceiled
    endpoints clipped to ``[low, high]`` (which bounds an infinite end) and
    their cumulative counts fix ``F``; one ``np.searchsorted`` evaluates it
    over an int64 array.  The set's integers in ``[x, y)`` number
    ``F(y) - F(x)``.
    """
    ends = np.array(
        [(low, low)]
        + [
            (math.ceil(min(max(piece.low, low), high)), math.ceil(min(max(piece.high, low), high)))
            for piece in intervals
        ],
        dtype=np.int64,
    )
    starts, stops = ends[:, 0], ends[:, 1]
    # F(x) = integers of the pieces before x's piece + x's offset into it.
    base = (stops - starts).cumsum() - stops

    def prefix(x: NDArray[np.int64]) -> NDArray[np.int64]:
        piece = starts.searchsorted(x, side="right") - 1
        return base[piece] + np.minimum(x, stops[piece])

    return prefix


def _members(intervals: IntervalSet, values: NDArray[np.float64]) -> NDArray[np.bool_]:
    """``intervals.contains(v)`` for every ``v`` of ``values``: one search into the endpoints."""
    edges = np.array([end for piece in intervals for end in (piece.low, piece.high)])
    return edges.searchsorted(values, side="right") % 2 == 1


class FKColumn:
    """One FK column, as arrays: every row's :attr:`~repro.core.summary.FKReference.flat` pieces.

    ``spread`` marks the rows holding a round-robin spread (the others store
    a constant in ``values``) and ``total`` their target counts.  Piece
    ``i`` belongs to row ``row[i]``, holds the targets ``first[i] ..
    stop[i] - 1`` at spread positions from ``position[i]``; the pieces of
    row ``r`` are ``bounds[r]:bounds[r + 1]``, all inside pks ``[low, high)``.
    """

    def __init__(self, rows: Sequence[SummaryRow], column: str) -> None:
        flats = [row.fk_refs[column].flat if column in row.fk_refs else None for row in rows]
        self.spread = np.array([flat is not None for flat in flats], dtype=bool)
        self.every_row = bool(self.spread.all())
        pieces = [
            (position, first, flat[2][i + 1] - flat[2][i], flat[2][i])
            for position, flat in enumerate(flats)
            if flat is not None
            for i, first in enumerate(flat[1])
        ]
        table = np.array(pieces, dtype=np.int64).reshape(-1, 4)
        self.row, self.first, self.size, self.position = table.T
        self.stop = self.first + self.size
        self.total = np.array(
            [0 if flat is None else flat[2][-1] for flat in flats], dtype=np.int64
        )
        self.bounds = self.row.searchsorted(np.arange(len(rows) + 1))
        self.low = int(self.first.min(initial=0))
        self.high = int(self.stop.max(initial=0))

    def matched(
        self, allowed: IntervalSet, counts: NDArray[np.int64]
    ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Per spread row: ``(matched, reachable)`` against ``allowed``.

        ``matched`` counts the row's offsets ``0..count-1`` whose target is in
        ``allowed`` (:meth:`~repro.core.summary.FKReference.count_matching_offsets`):
        ``cycles × G(total) + G(rest)`` for ``cycles, rest = divmod(count,
        total)``, where ``G(x)`` counts the spread positions below ``x``
        hitting ``allowed``, summed over the row's pieces from the integer
        prefix of ``allowed``.  ``reachable = G(total)`` counts the
        admissible targets in ``allowed``.
        """
        cycles, rest = np.divmod(counts, np.maximum(self.total, 1))
        take = np.minimum(np.maximum(rest[self.row] - self.position, 0), self.size)
        at = integer_prefix(allowed, self.low, self.high)(
            np.concatenate((self.first, self.stop, self.first + take))
        )
        pieces = len(self.first)
        # Per piece: its allowed targets, and those among its first ``take``.
        hits = at[pieces:].reshape(2, pieces) - at[:pieces]
        summed = np.zeros((2, pieces + 1), dtype=np.int64)
        hits.cumsum(axis=1, out=summed[:, 1:])
        reachable, head = summed[:, self.bounds[1:]] - summed[:, self.bounds[:-1]]
        return cycles * reachable + head, reachable


class SummaryColumns:
    """The column view of a summary's rows: derived on first use, never serialised.

    ``offsets`` are the rows' cumulative pk offsets, ``counts`` their tuple
    counts and ``fk_columns`` the FK columns some row spreads over targets.
    A column's arrays are built the first time a box reads it.
    """

    def __init__(self, rows: Sequence[SummaryRow], offsets: NDArray[np.int64]) -> None:
        self.rows = rows
        self.offsets = offsets
        self.counts = offsets[1:] - offsets[:-1]
        self.fk_columns = frozenset(column for row in rows for column in row.fk_refs)
        self._values: dict[str, NDArray[np.float64]] = {}
        self._fks: dict[str, FKColumn] = {}

    def value(self, column: str) -> NDArray[np.float64]:
        """Column ``column``'s float64 value per row (``row.values.get(column, 0.0)``)."""
        array = self._values.get(column)
        if array is None:
            array = self._values[column] = np.array(
                [row.values.get(column, 0.0) for row in self.rows], dtype=np.float64
            )
        return array

    def fk(self, column: str) -> FKColumn | None:
        """FK column ``column`` of the rows that spread it (``None`` when no row does)."""
        if column not in self.fk_columns:
            return None
        fk = self._fks.get(column)
        if fk is None:
            fk = self._fks[column] = FKColumn(self.rows, column)
        return fk

    def spread(self, column: str) -> NDArray[np.bool_]:
        """The rows that spread FK column ``column`` over targets instead of storing a value."""
        fk = self.fk(column)
        return np.zeros(len(self.counts), dtype=bool) if fk is None else fk.spread

    def column_counts(
        self, box: BoxCondition, pk_column: str | None
    ) -> Iterator[tuple[str, NDArray[np.int64], NDArray[np.bool_]]]:
        """Per constrained column of ``box``: each row's matching tuples, and the rows none can.

        The pk matches a row's integers of the box in its segment; an FK
        column a row spreads matches the offsets :meth:`FKColumn.matched`
        counts, and no tuple can match when no admissible target is in the
        box; any other column — a value column, or an FK column a row stores
        as a constant — matches all or none of the row's tuples.
        """
        for column, intervals in box.conditions.items():
            if pk_column is not None and column == pk_column:
                at = integer_prefix(intervals, 0, int(self.offsets[-1]))(self.offsets)
                matched = at[1:] - at[:-1]
                yield column, matched, matched == 0
                continue
            fk = self.fk(column)
            if fk is None:
                member = _members(intervals, self.value(column))
                yield column, np.where(member, self.counts, 0), ~member
                continue
            matched, reachable = fk.matched(intervals, self.counts)
            excluded = reachable == 0
            if not fk.every_row:  # a row storing a constant target is all or nothing
                member = _members(intervals, self.value(column))
                matched = np.where(fk.spread, matched, np.where(member, self.counts, 0))
                excluded = np.where(fk.spread, excluded, ~member)
            yield column, matched, excluded


class RowMatches(NamedTuple):
    """How every row of a relation summary relates to one box condition.

    Produced by :meth:`~repro.core.summary.RelationSummary.classify`.
    ``alive`` marks the rows some tuple of which can satisfy the box;
    ``matched`` is each row's exact number of matching tuples (0 off
    ``alive``), ``-1`` where two partially matching FK spreads correlate
    through the tuple offset.  ``partial[c]`` marks the alive rows whose
    spread of FK column ``c`` matches partially, ``spreads`` counts them per
    row, and ``windowed`` marks the alive rows a pk condition cuts into a
    window.
    """

    matched: NDArray[np.int64]
    alive: NDArray[np.bool_]
    partial: Mapping[str, NDArray[np.bool_]]
    spreads: NDArray[np.int64]
    windowed: NDArray[np.bool_]

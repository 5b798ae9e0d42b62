"""The column view of a relation summary: its rows as arrays, a box's tuples counted by one fold.

The summary route answers aggregates in O(#summary rows) and reads few
columns of every row, so it reads the rows column-wise: tuple counts,
one float64 array per value column and, per foreign-key column, every
row's flattened target pieces concatenated.  A
:class:`~repro.core.summary.RelationSummary` derives the view on first use
(:attr:`~repro.core.summary.RelationSummary.columns`) and never serialises
it.  Each constrained column of a box is then one array pass over all rows,
built on one primitive, :func:`integer_prefix` — which an FK spread reads
through :meth:`FKColumn.matched`, as it reads the :class:`Prefix` a join's
fold gives the relation it references.  :meth:`SummaryColumns.fold` is the
one counter of a box: the summary route, the per-row counts
(:meth:`SummaryColumns.matched`) and the pk runs a box may hold all read it,
and it alone decides which counts are exact.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from ..sql.predicates import BoxCondition, Interval, IntervalSet

if TYPE_CHECKING:
    from .summary import SummaryRow

__all__ = ["FKColumn", "Prefix", "SummaryColumns", "integer_prefix"]

#: Weighs the targets below each pk ``x``: ``F(x)``, one row (or one count) per ``x``.
Weigh = Callable[[NDArray[Any]], NDArray[Any]]
#: ``(lo, hi, row)``: pk runs ``[lo, hi)``, each inside summary row ``row``.
Runs = tuple[NDArray[Any], NDArray[Any], NDArray[Any]]
#: :class:`Prefix` arrays that are never read (no run has a partial spread).
_UNREAD: NDArray[np.int64] = np.zeros(0, dtype=np.int64)
_UNREAD_MASK: NDArray[np.bool_] = np.zeros(0, dtype=bool)


def integer_prefix(intervals: IntervalSet, low: int, high: int) -> Weigh:
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
    ``key`` numbers every spread position of every row consecutively, and an
    empty last piece past every row gives each key a piece at or below it.
    """

    def __init__(self, rows: Sequence[SummaryRow], column: str) -> None:
        flats = [row.fk_refs[column].flat if column in row.fk_refs else None for row in rows]
        self.spread = np.array([flat is not None for flat in flats], dtype=bool)
        pieces = [
            (position, first, flat[1][i + 1] - flat[1][i], flat[1][i])
            for position, flat in enumerate(flats)
            if flat is not None
            for i, first in enumerate(flat[0])
        ]
        table = np.array(pieces + [(len(rows), 0, 0, 0)], dtype=np.int64)
        self.row, self.first, self.size, self.position = table.T
        self.stop = self.first + self.size
        self.total = np.array(
            [0 if flat is None else flat[1][-1] for flat in flats], dtype=np.int64
        )
        self.period, self.every = np.maximum(self.total, 1), np.arange(len(rows))
        self.bounds = self.row.searchsorted(np.arange(len(rows) + 1))
        self.origin = np.concatenate(([0], self.total.cumsum()))
        self.key = self.origin[self.row] + self.position
        self.low = int(self.first.min())
        self.high = int(self.stop.max())

    def matched(
        self, prefix: Weigh, counts: NDArray[Any], rows: NDArray[Any] | None = None
    ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """``(matched, reachable)``: the weight of offsets ``0..counts[i]-1`` of row ``rows[i]``.

        ``prefix(x)`` weighs the targets below pk ``x`` — the integer prefix
        of an allowed set, or the :class:`Prefix` of the referenced relation
        (a trailing weight axis is kept).  Offset ``k`` reaches the spread's
        ``(k mod total)``-th target, so ``matched`` is ``cycles × G(total) +
        G(rest)`` for ``cycles, rest = divmod(count, total)``, where ``G(y)``
        weighs the spread positions below ``y``: the pieces before ``y``'s
        (one cumulative sum) plus the head of its own.  ``reachable =
        G(total)`` per row.  ``rows`` defaults to every row once; a row that
        does not spread matches nothing.
        """
        rows = self.every if rows is None else rows
        cycles, rest = np.divmod(counts, self.period[rows])
        piece = self.key.searchsorted(self.origin[rows] + rest, side="right") - 1
        pieces = len(self.first)
        at = prefix(
            np.concatenate((self.first, self.stop, self.first[piece] + rest - self.position[piece]))
        )
        summed = np.zeros((pieces + 1,) + at.shape[1:], dtype=np.int64)
        np.cumsum(at[pieces : 2 * pieces] - at[:pieces], axis=0, out=summed[1:])
        reachable = summed[self.bounds[1:]] - summed[self.bounds[:-1]]
        head = summed[piece] - summed[self.bounds[rows]] + at[2 * pieces :] - at[piece]
        return reachable[rows] * cycles.reshape((-1,) + (1,) * (at.ndim - 1)) + head, reachable


class Prefix:
    """``F(x)`` of one relation of an FK out-tree: the weight of its joining tuples below pk ``x``.

    Built by :meth:`SummaryColumns.fold` over pk runs ``[lo, hi)``, run
    ``i`` inside summary row ``row[i]``.  A run weighs ``gained``:
    ``factor`` per tuple or, where ``chosen`` (per run; ``-1`` for none)
    indexes the one spread of ``spreads`` that matches the run partially,
    ``factor`` times its tuples' targets' weight — :meth:`FKColumn.matched`
    at the tuples' offsets into their row (which starts at ``offsets[row]``)
    less ``begun``, its value at ``lo``.  ``inexact`` marks the runs with
    weight that two partial spreads (``chosen == -2``) weigh through the
    same tuple offsets: their ``gained`` is no count.  ``chosen``,
    ``begun``, ``offsets`` and ``inexact`` are read only when ``spreads``
    is non-empty.
    ``total`` is ``F`` past the last pk; a weight has one entry per owner
    row of a ``SUM``, else one.
    """

    def __init__(
        self,
        runs: Runs,
        factor: NDArray[np.int64],
        gained: NDArray[np.int64],
        spreads: Sequence[tuple[FKColumn, Weigh]] = (),
        chosen: NDArray[np.int64] = _UNREAD,
        begun: NDArray[np.int64] = _UNREAD,
        offsets: NDArray[np.int64] = _UNREAD,
        inexact: NDArray[np.bool_] = _UNREAD_MASK,
    ) -> None:
        self.lo, self.hi, self.row = runs
        self.factor, self.gained = factor, gained
        self.spreads, self.chosen, self.begun, self.offsets = spreads, chosen, begun, offsets
        self.inexact = inexact
        self.cumulative = np.zeros((len(gained) + 1, gained.shape[1]), dtype=np.int64)
        gained.cumsum(axis=0, out=self.cumulative[1:])
        self.total = self.cumulative[-1]

    @property
    def exact(self) -> bool:
        """Whether every run's weight is a count: no run is ``inexact``."""
        return not (self.spreads and self.inexact.any())

    @property
    def scattered(self) -> bool:
        """Whether a partial spread picks some run's weighed tuples one by one, off a pk range."""
        return bool(self.spreads) and bool((self.gained.any(axis=1) & (self.chosen != -1)).any())

    def __call__(self, x: NDArray[np.int64]) -> NDArray[np.int64]:
        if not len(self.lo):
            return np.zeros((len(x), self.gained.shape[1]), dtype=np.int64)
        # The run at or below x; below the first run, the first run's start.
        run = np.maximum(self.lo.searchsorted(x, side="right") - 1, 0)
        upto = np.minimum(np.maximum(x, self.lo[run]), self.hi[run])
        value = self.cumulative[run] + self.factor[run] * (upto - self.lo[run])[:, None]
        for index, (fk, prefix) in enumerate(self.spreads):
            mine = np.flatnonzero(self.chosen[run] == index)
            if len(mine):
                at, row = run[mine], self.row[run[mine]]
                weighed = fk.matched(prefix, upto[mine] - self.offsets[row], row)[0]
                value[mine] = self.cumulative[at] + self.factor[at] * (weighed - self.begun[at])
        return value

    def ranges(self) -> list[Interval]:
        """The pk runs that may hold weighed tuples: exactly theirs unless :attr:`scattered`."""
        hit = self.gained.any(axis=1)
        if self.spreads:
            hit |= self.inexact
        return list(map(Interval, self.lo[hit].tolist(), self.hi[hit].tolist()))


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
        self.nonempty, self.unit = self.counts > 0, np.ones((len(rows), 1), dtype=np.int64)
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

    def runs(self, intervals: IntervalSet) -> Runs:
        """The pk runs of ``intervals``, cut at the rows' ends."""
        offsets = self.offsets
        total = int(offsets[-1])
        counted = integer_prefix(intervals, 0, total)
        at = counted(offsets)
        matched = at[1:] - at[:-1]
        if ((matched == 0) | (matched == self.counts)).all():  # whole rows, as a decided box
            row = np.flatnonzero(matched)
            return offsets[row], offsets[row + 1], row
        ends = [math.ceil(min(max(end, 0), total)) for p in intervals for end in (p.low, p.high)]
        cuts = np.union1d(offsets, np.array(ends, dtype=np.int64))
        at = counted(cuts)
        inside = np.flatnonzero(at[1:] > at[:-1])
        lo = cuts[inside]
        return lo, cuts[inside + 1], offsets.searchsorted(lo, side="right") - 1

    def fold(
        self,
        box: BoxCondition,
        pk_column: str | None,
        refs: Mapping[str, Prefix],
        weights: NDArray[np.int64] | None,
    ) -> Prefix:
        """This relation's :class:`Prefix`: its tuples matching ``box`` whose FKs in ``refs`` join.

        ``refs`` maps an FK column to the prefix of the relation it references
        (whose box holds ``box``'s condition on the column); another FK column
        of ``box`` references its allowed set (:func:`integer_prefix`).  A
        tuple weighs ``weights[row]`` (1 for ``None``) times its targets'
        weights: a constant target ``t`` reads ``F(t + 1) - F(t)``.  A
        target weighs 0 or one unit vector (an FK–PK join pairs a tuple with
        at most one tuple below), so each pk run decides, once, here, how a
        spread weighs it: one whose tuples all reach targets of the same
        weight scales the run by it (0 when none joins), one matching the run
        partially weighs each tuple by its own.  A run with weight that two
        partial spreads weigh is inexact: they correlate through the tuple
        offset.
        """
        factor = self.unit if weights is None else weights
        if box.is_empty:
            return self._no_run(factor, refs)
        live = self.nonempty & box.satisfiable
        prefixes: dict[str, Weigh] = dict(refs)
        for column, intervals in box.conditions.items():
            if column == pk_column or column in refs:
                continue
            fk = self.fk(column)
            member = _members(intervals, self.value(column))
            live &= member if fk is None else fk.spread | member
            if fk is not None:
                counted = integer_prefix(intervals, fk.low, fk.high)
                prefixes[column] = lambda x, counted=counted: counted(x)[:, None]
        intervals = None if pk_column is None else box.conditions.get(pk_column)
        if intervals is None:
            row = np.flatnonzero(live)
            lo, hi = self.offsets[row], self.offsets[row + 1]
        else:
            lo, hi, row = self.runs(intervals)
            keep = live[row]
            lo, hi, row = lo[keep], hi[keep], row[keep]
        if not len(row):
            return self._no_run(factor, refs)
        span = length = (hi - lo)[:, None]
        if weights is None and not prefixes:
            return Prefix((lo, hi, row), self.unit[: len(row)], span)
        factor = factor[row]
        chosen: Any = -1  # per run, its one partial spread; -2: two of them
        spreads: list[tuple[FKColumn, Weigh]] = []
        begun = np.zeros_like(span)
        for column, prefix in prefixes.items():
            fk = self.fk(column)
            mine = np.zeros(len(row), dtype=bool) if fk is None else fk.spread[row]
            if column in refs and not mine.all():  # a constant target t
                target = self.value(column)[row].astype(np.int64)
                factor = factor * np.where(mine[:, None], 1, prefix(target + 1) - prefix(target))
            if fk is None:
                continue
            twice = np.concatenate((row, row))
            at = fk.matched(prefix, np.concatenate((lo, hi)) - self.offsets[twice], twice)[0]
            at = at.reshape(2, len(row), at.shape[1])
            gained = at[1] - at[0]
            partial = mine & gained.any(axis=1) & (gained.max(axis=1) != length[:, 0])
            factor = factor * np.where((mine & ~partial)[:, None], gained // length, 1)
            if partial.any():
                chosen = np.where(partial, np.where(chosen == -1, len(spreads), -2), chosen)
                span = np.where(partial[:, None], gained, span)
                begun = np.where(partial[:, None], at[0], begun)
                spreads.append((fk, prefix))
        if not spreads:
            return Prefix((lo, hi, row), factor, factor * span)
        inexact = (chosen == -2) & factor.any(axis=1)
        return Prefix(
            (lo, hi, row), factor, factor * span, spreads, chosen, begun, self.offsets, inexact
        )

    def _no_run(self, factor: NDArray[np.int64], refs: Mapping[str, Prefix]) -> Prefix:
        """The prefix of a box no tuple matches: no run, as wide as the weights below."""
        width = max([factor.shape[1]] + [len(ref.total) for ref in refs.values()])
        none, nothing = self.offsets[:0], np.zeros((0, width), dtype=np.int64)
        return Prefix((none, none, none), nothing, nothing)

    def matched(self, box: BoxCondition, pk_column: str | None) -> NDArray[np.int64]:
        """Each row's tuples matching ``box``: its :meth:`fold` runs summed, or -1 if inexact."""
        folded = self.fold(box, pk_column, {}, None)
        matched = np.zeros(len(self.counts), dtype=np.int64)
        np.add.at(matched, folded.row, folded.gained[:, 0])
        if not folded.exact:
            matched[folded.row[folded.inexact]] = -1
        return matched

    def excluded(self, box: BoxCondition, pk_column: str | None) -> NDArray[np.bool_]:
        """The rows no tuple of which can satisfy one of ``box``'s conditions, as one mask.

        Deliberately looser than a zero :meth:`matched`, as skipping is not
        counting: each column is read alone, a row spreading an FK column is
        excluded only when none of its targets is in the box, whatever its
        count, and a row storing a value (or a constant target) when the
        value is not.
        """
        mask = np.zeros(len(self.counts), dtype=bool)
        for column, intervals in box.conditions.items():
            if column == pk_column:
                at = integer_prefix(intervals, 0, int(self.offsets[-1]))(self.offsets)
                mask |= at[1:] == at[:-1]
                continue
            fk, member = self.fk(column), _members(intervals, self.value(column))
            if fk is not None:
                reachable = fk.matched(integer_prefix(intervals, fk.low, fk.high), self.counts)[1]
                member = np.where(fk.spread, reachable > 0, member)
            mask |= ~member
        return mask

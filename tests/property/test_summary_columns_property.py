"""Property tests: the column view's one-pass classification equals the per-row methods.

``RelationSummary.classify`` / ``excluded`` / ``count_matching`` /
``matching_pk_intervals`` read every summary row in one array pass over the
column view.  The per-row methods they replaced (``classify_row``,
``count_matching_row``, ``row_excluded`` and the loops over them) are kept
below as oracles, and a brute-force ``TupleGenerator`` expansion of every
tuple is the ground truth both must agree with.  The view is never part of
what a summary serialises, pickles or fingerprints, and rows are read-only.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import FLOAT, INTEGER
from repro.core.summary import DatabaseSummary, FKReference, RelationSummary, SummaryRow
from repro.core.tuplegen import TupleGenerator
from repro.sql.predicates import BoxCondition, Interval, IntervalSet

PK = "t_pk"
TABLE = Table(
    name="t",
    columns=[
        Column(PK, INTEGER),
        Column("a", FLOAT),
        Column("f", INTEGER),
        Column("g", INTEGER),
    ],
    primary_key=PK,
    foreign_keys=[ForeignKey("f", "r", "r_pk"), ForeignKey("g", "r", "r_pk")],
)
REFERENCED = Table(name="r", columns=[Column("r_pk", INTEGER)], primary_key="r_pk")

_FRACTIONS = st.sampled_from([0.0, 0.0, 0.3, 0.5])
_VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])


# -- the per-row methods the column view replaced ---------------------------


def _pk_window(intervals: IntervalSet, start: int, end: int) -> IntervalSet:
    pieces = intervals.intervals
    index = bisect.bisect_right(pieces, start, key=lambda piece: piece.high)
    window = []
    while index < len(pieces) and pieces[index].low < end:
        window.append(Interval(max(pieces[index].low, start), min(pieces[index].high, end)))
        index += 1
    return IntervalSet(window)


def _offsets_hitting(ref, start, stop, allowed):
    """How many offsets ``start..stop-1`` of ``ref``'s spread reach a target in ``allowed``."""
    return sum(allowed.contains(float(ref.kth_target(k))) for k in range(start, stop))


def row_excluded(summary, position, box, pk_column):
    if box.is_empty:
        return True
    row = summary.rows[position]
    start, end = summary.pk_interval_of_row(position)
    for column, intervals in box.conditions.items():
        if pk_column is not None and column == pk_column:
            if _pk_window(intervals, start, end).count_integers() == 0:
                return True
        elif column in row.fk_refs:
            if row.fk_refs[column].intervals.intersect(intervals).count_integers() == 0:
                return True
        elif not intervals.contains(float(row.values.get(column, 0.0))):
            return True
    return False


def classify_row(summary, position, box, pk_column):
    """``None`` when no tuple can match, else ``(count, pk_window, partial_fks)``."""
    row = summary.rows[position]
    count = max(0, int(row.count))
    if count == 0 or box.is_empty:
        return None
    start, end = summary.pk_interval_of_row(position)
    pk_window, partial_fks = None, {}
    for column, intervals in box.conditions.items():
        if pk_column is not None and column == pk_column:
            window = _pk_window(intervals, start, end)
            matched = window.count_integers()
            if matched < count:
                pk_window = window
        elif column in row.fk_refs:
            matched = _offsets_hitting(row.fk_refs[column], 0, count, intervals)
            if matched < count:
                partial_fks[column] = (intervals, matched)
        else:
            matched = count if intervals.contains(float(row.values.get(column, 0.0))) else 0
        if matched == 0:
            return None
    return count, pk_window, partial_fks


def count_matching_row(summary, position, box, pk_column):
    match = classify_row(summary, position, box, pk_column)
    if match is None:
        return 0
    count, pk_window, partial_fks = match
    if not partial_fks:
        return count if pk_window is None else pk_window.count_integers()
    if len(partial_fks) > 1:
        return None
    ((column, (allowed, matched)),) = partial_fks.items()
    if pk_window is None:
        return matched
    ref = summary.rows[position].fk_refs[column]
    start, _end = summary.pk_interval_of_row(position)
    counted = 0
    for piece in pk_window:
        low = int(math.ceil(piece.low)) - start
        high = low + piece.count_integers()
        counted += _offsets_hitting(ref, low, high, allowed)
    return counted


def count_matching(summary, box, pk_column):
    if box.is_empty:
        return 0
    total = 0
    for position in range(len(summary.rows)):
        matched = count_matching_row(summary, position, box, pk_column)
        if matched is None:
            return None
        total += matched
    return total


def matching_pk_intervals(summary, box, pk_column):
    if box.is_empty:
        return IntervalSet.empty()
    pieces = []
    for position in range(len(summary.rows)):
        match = classify_row(summary, position, box, pk_column)
        if match is None:
            continue
        _count, pk_window, _partial_fks = match
        if pk_window is not None:
            pieces.extend(pk_window.intervals)
        else:
            start, end = summary.pk_interval_of_row(position)
            pieces.append(Interval(float(start), float(end)))
    return IntervalSet(pieces)


# -- strategies ---------------------------------------------------------------


@st.composite
def spreads(draw) -> FKReference:
    """1–3 pieces in ``[0, 20)``, fractional ends, some holding no integer."""
    pieces, cursor = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        low = cursor + draw(st.integers(0, 4)) + draw(_FRACTIONS)
        high = low + draw(st.integers(0, 6)) + draw(_FRACTIONS)
        pieces.append(Interval(low, min(high, 20.0)))
        cursor = math.ceil(high) + 1
    return FKReference("r", IntervalSet(pieces))


@st.composite
def summary_rows(draw) -> SummaryRow:
    """A row with an optional value (missing reads 0.0) and FK columns spread or constant."""
    values, fk_refs = {}, {}
    if draw(st.booleans()):
        values["a"] = draw(_VALUES)
    for column in ("f", "g"):
        kind = draw(st.sampled_from(["spread", "spread", "constant", "default"]))
        if kind == "spread":
            fk_refs[column] = draw(spreads())
        elif kind == "constant":
            values[column] = float(draw(st.integers(0, 19)))
    count = draw(st.integers(0, 14))  # below and above the 0–20 target totals
    if len(fk_refs) == 2 and draw(st.booleans()):  # fewer tuples than either spread's targets
        count = min(count, min(ref.target_count() for ref in fk_refs.values()) - 1)
    if count <= 0 or any(ref.target_count() == 0 for ref in fk_refs.values()):
        count = 0
    return SummaryRow(count=count, values=values, fk_refs=fk_refs)


@st.composite
def interval_sets(draw, low: int, high: int) -> IntervalSet:
    """0–4 ranges with fractional and unbounded ends around ``[low, high)``."""
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(low - 2, high)) + draw(_FRACTIONS)
        end = start + draw(st.integers(0, 8)) + draw(_FRACTIONS)
        if draw(st.integers(0, 7)) == 0:
            start = -math.inf
        if draw(st.integers(0, 7)) == 0:
            end = math.inf
        pieces.append(Interval(start, end))
    return IntervalSet(pieces)


@st.composite
def boxes(draw, total: int) -> BoxCondition:
    kind = draw(st.sampled_from(["box", "box", "box", "unconstrained", "falsum"]))
    if kind == "unconstrained":
        return BoxCondition({})
    if kind == "falsum":
        return BoxCondition.never()
    domains = {"a": (0, 4), PK: (0, total), "f": (0, 20), "g": (0, 20)}
    columns = draw(st.sets(st.sampled_from(sorted(domains)), min_size=1))
    return BoxCondition({column: draw(interval_sets(*domains[column])) for column in columns})


@st.composite
def cases(draw) -> tuple[RelationSummary, BoxCondition]:
    summary = RelationSummary(table="t", rows=draw(st.lists(summary_rows(), max_size=6)))
    box = draw(boxes(summary.total_rows))
    both = [row for row in summary.rows if len(row.fk_refs) == 2 and row.count]
    if both and draw(st.booleans()):
        # Admit on each spread the targets one row's tuples reach: both then
        # match all of that row's tuples, though maybe few of its targets.
        row = draw(st.sampled_from(both))
        for column, ref in row.fk_refs.items():
            reached = {ref.kth_target(k) for k in range(row.count)}
            box = box.replacing(column, IntervalSet(Interval(t, t + 1) for t in reached))
    return summary, box


def _tuples_matching(summary: RelationSummary, box: BoxCondition) -> np.ndarray:
    """Brute force: generate every tuple, evaluate the box on it."""
    block = TupleGenerator(table=TABLE, summary=summary).generate_block(0, summary.total_rows)
    return box.evaluate(block)


# -- properties ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_one_pass_equals_the_per_row_methods_and_brute_force(case):
    summary, box = case
    matched = summary.columns.matched(box, PK)
    excluded = summary.excluded(box, PK)
    mask = _tuples_matching(summary, box)
    for position in range(len(summary.rows)):
        start, end = summary.pk_interval_of_row(position)
        oracle = count_matching_row(summary, position, box, PK)
        brute = int(mask[start:end].sum())
        # The fold answers every row the per-row method does; it gives up
        # (-1) only where two spreads each match partially.
        assert matched[position] in ((brute, -1) if oracle is None else (oracle,))
        assert matched[position] in (brute, -1)
        assert excluded[position] == row_excluded(summary, position, box, PK)
        assert brute == 0 or not excluded[position]

    counted = summary.count_matching(box, PK)
    assert counted is None or counted == int(mask.sum())
    assert counted == (None if (matched < 0).any() else int(matched.sum()))
    oracle = count_matching(summary, box, PK)
    assert oracle is None or counted == oracle
    pks = np.arange(summary.total_rows, dtype=np.float64)
    projected = summary.matching_pk_intervals(box, PK).membership_mask(pks)
    assert (projected >= mask).all()  # sound: every matching pk
    assert (projected <= matching_pk_intervals(summary, box, PK).membership_mask(pks)).all()


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_the_view_is_never_serialised_pickled_or_fingerprinted(case):
    summary, box = case
    database = DatabaseSummary(schema=Schema.from_tables([TABLE, REFERENCED]))
    database.add_relation(summary)
    database.add_relation(RelationSummary(table="r", rows=[SummaryRow(count=20)]))
    before = (
        pickle.dumps(summary),
        database.to_dict(),
        database.fingerprint(),
        database.size_bytes(),
    )
    summary.count_matching(box, PK)
    summary.matching_pk_intervals(box, PK)
    summary.excluded(box, PK)
    after = (
        pickle.dumps(summary),
        database.to_dict(),
        database.fingerprint(),
        database.size_bytes(),
    )
    assert after == before
    restored = pickle.loads(before[0])
    assert restored == summary
    assert restored.count_matching(box, PK) == summary.count_matching(box, PK)


def test_rows_are_read_only():
    row = SummaryRow(
        count=3,
        values={"a": 1.0},
        fk_refs={"f": FKReference("r", IntervalSet([Interval(0, 4)]))},
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.count = 4  # type: ignore[misc]
    with pytest.raises(TypeError):
        row.values["a"] = 2.0  # type: ignore[index]
    with pytest.raises(TypeError):
        row.fk_refs["g"] = FKReference("r", IntervalSet([Interval(0, 1)]))  # type: ignore[index]
    values = {"a": 1.0}
    copied = SummaryRow(count=1, values=values)
    values["a"] = 5.0
    assert copied.values == {"a": 1.0}  # the row holds a copy of its input
    assert pickle.loads(pickle.dumps(row)) == row
    assert pickle.loads(pickle.dumps(row)).values == {"a": 1.0}

"""Property tests: the run fill of a foreign-key column equals the per-offset gather.

``FKReference.fill_targets`` writes a block's FK column as at most
``#intervals + 1`` ``arange`` runs, repeated with period = target count.
The gather it replaced (one binary search per offset, the
``fk_targets_oracle`` fixture) is the oracle: every cell, every dtype
``generate_block`` passes, offsets up to 10¹² and blocks up to three
periods long.  The vectorised count the summary route reads,
``FKColumn.matched`` (the ``fk_matched`` fixture), is checked against the
same gather; its per-referenced-row split — a prefix with one weight per
row, as the route's fold weighs a ``SUM``'s owner rows — against the gather
binned by row, and its row counts against the one-number count they split.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.summary import FKReference
from repro.sql.predicates import Interval, IntervalSet

_FRACTIONS = st.sampled_from([0.0, 0.2, 0.5, 0.7])


@st.composite
def references(draw) -> FKReference:
    """1–4 intervals with fractional bounds; some hold no integer (``[3.2, 3.7)``)."""
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        low = draw(st.integers(min_value=-20, max_value=300)) + draw(_FRACTIONS)
        width = draw(st.integers(min_value=0, max_value=40)) + draw(_FRACTIONS)
        pieces.append(Interval(low, low + width))
    reference = FKReference("dim", IntervalSet(pieces))
    assume(reference.target_count() > 0)
    return reference


@given(
    reference=references(),
    offset=st.integers(min_value=0, max_value=10**12),
    data=st.data(),
    dtype=st.sampled_from([np.int64, np.float64]),
    margins=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=300, deadline=None)
def test_fill_targets_matches_the_per_offset_gather(
    fk_targets_oracle, reference, offset, data, dtype, margins
):
    take = data.draw(st.integers(min_value=0, max_value=3 * reference.target_count()))
    before, after = margins
    column = np.full(before + take + after, -1, dtype=dtype)
    # A slice of a larger column, as ``generate_block`` passes it.
    reference.fill_targets(column[before : before + take], offset)
    expected = np.full_like(column, -1)
    expected[before : before + take] = fk_targets_oracle(
        reference, np.arange(offset, offset + take, dtype=np.int64)
    )
    assert np.array_equal(column, expected)
    if take:
        assert reference.kth_target(offset) == column[before]


@given(reference=references())
@settings(max_examples=200, deadline=None)
def test_kth_target_is_the_gather_at_every_position(fk_targets_oracle, reference):
    positions = np.arange(2 * reference.target_count(), dtype=np.int64)
    assert [reference.kth_target(k) for k in positions] == (
        fk_targets_oracle(reference, positions).tolist()
    )


@given(
    reference=references(),
    allowed_low=st.integers(min_value=-30, max_value=340),
    allowed_width=st.integers(min_value=0, max_value=120),
    fraction=_FRACTIONS,
    num_offsets=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=200, deadline=None)
def test_fk_matched_skips_integer_free_pieces(
    fk_targets_oracle, fk_matched, reference, allowed_low, allowed_width, fraction, num_offsets
):
    allowed = IntervalSet([Interval(allowed_low + fraction, allowed_low + allowed_width)])
    targets = fk_targets_oracle(reference, np.arange(num_offsets, dtype=np.int64))
    expected = int(allowed.membership_mask(targets.astype(np.float64)).sum())
    assert fk_matched(reference, 0, num_offsets, allowed) == expected


@st.composite
def allowed_sets(draw) -> IntervalSet:
    """0–5 allowed intervals with fractional ends, optionally unbounded on one side."""
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        low = draw(st.integers(min_value=-30, max_value=340)) + draw(_FRACTIONS)
        pieces.append(Interval(low, low + draw(st.integers(0, 80)) + draw(_FRACTIONS)))
    if draw(st.booleans()):
        pieces.append(Interval(-np.inf, draw(st.integers(-30, 340)) + draw(_FRACTIONS)))
    return IntervalSet(pieces)


@st.composite
def row_bounds(draw) -> list[int]:
    """Cumulative pk offsets of a referenced relation; zero-count rows included."""
    first = draw(st.integers(min_value=-25, max_value=60))
    counts = draw(st.lists(st.integers(min_value=0, max_value=90), min_size=1, max_size=8))
    bounds = [first]
    for count in counts:
        bounds.append(bounds[-1] + count)
    return bounds


@given(
    reference=references(),
    allowed=allowed_sets(),
    bounds=row_bounds(),
    start=st.integers(min_value=0, max_value=300),
    length=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=300, deadline=None)
def test_fk_matched_by_row_is_the_gather_binned_by_row(
    fk_targets_oracle, fk_matched, reference, allowed, bounds, start, length
):
    counts = fk_matched(reference, start, start + length, allowed, bounds)
    targets = fk_targets_oracle(reference, np.arange(start, start + length, dtype=np.int64))
    hits = targets[allowed.membership_mask(targets.astype(np.float64))]
    hits = hits[(hits >= bounds[0]) & (hits < bounds[-1])]
    rows = np.searchsorted(np.asarray(bounds), hits, side="right") - 1
    assert counts == np.bincount(rows, minlength=len(counts)).tolist()


@given(
    reference=references(),
    allowed=allowed_sets(),
    cuts=st.lists(st.integers(min_value=-20, max_value=400), max_size=8),
    start=st.integers(min_value=0, max_value=10**12),
    length=st.integers(min_value=0, max_value=10**12),
)
@settings(max_examples=300, deadline=None)
def test_fk_matched_by_row_adds_up_to_the_one_count(
    fk_count_oracle, fk_matched, reference, allowed, cuts, start, length
):
    # Rows covering every admissible target: the per-row counts over
    # offsets [start, stop) add up to the prefix difference of the
    # one-number count, at offset counts no enumeration can reach.
    bounds = sorted({-21, 401, *cuts})
    stop = start + length
    counts = fk_matched(reference, start, stop, allowed, bounds)
    assert min(counts) >= 0
    assert sum(counts) == fk_matched(reference, start, stop, allowed) == (
        fk_count_oracle(reference, stop, allowed) - fk_count_oracle(reference, start, allowed)
    )

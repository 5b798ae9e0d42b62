"""The interval algebra ``IntervalSet.split`` replaced, kept as an oracle.

``intersect`` and ``subtract`` before they became views of ``split``: a
nested loop over every pair of intervals, and one pass over the remainder per
cut interval, each re-normalised through the checking constructor.  O(n*m)
and allocating, which is why they left ``src/``; obviously right, which is
why they stay here as the reference.  ``reference_side_of`` classifies by
them.  The property tests compare ``split`` with them; the partition identity
test runs a whole vendor cycle on them.
"""

from __future__ import annotations

from repro.sql.predicates import Interval, IntervalSet


def reference_intersect(a, b):
    result = []
    for mine in a.intervals:
        for theirs in b.intervals:
            piece = mine.intersect(theirs)
            if not piece.is_empty:
                result.append(piece)
    return IntervalSet(result)


def reference_subtract(a, b):
    remaining = list(a.intervals)
    for cut in b.intervals:
        next_remaining = []
        for interval in remaining:
            if not interval.overlaps(cut):
                next_remaining.append(interval)
                continue
            left = Interval(interval.low, min(interval.high, cut.low))
            right = Interval(max(interval.low, cut.high), interval.high)
            if not left.is_empty:
                next_remaining.append(left)
            if not right.is_empty:
                next_remaining.append(right)
        remaining = next_remaining
    return IntervalSet(remaining)


def reference_side_of(a, b):
    """``IntervalSet.side_of`` by the set algebra: -1 disjoint, 1 inside, 0 cut."""
    if reference_intersect(a, b).is_empty:
        return -1
    if reference_subtract(a, b).is_empty:
        return 1
    return 0

"""Property tests: the unique-key join lookup equals the sort-merge join.

``_index_pairs`` finds a join's partners by position when its one build key
column is strictly increasing (``_BuildKey.of`` observes it): one
``searchsorted`` plus an equality test — or, when the integer key is also
contiguous, the probe key minus the first build key.  The sort-merge path it
skips (a stable argsort, two ``searchsorted`` runs, ``repeat``), the
``searchsorted`` lookup the subtraction skips and a nested loop over Python
values are the oracles, on contiguous (from 0, from a non-zero value, one
row), gapped and empty build keys, probe keys that are negative, out of range
or at the ends of their dtype, every int64 / uint64 / float64 mix, and a
build column with one duplicate, which must fall back to the sort-merge.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.engine import _BuildKey, _index_pairs

_DTYPES = st.sampled_from([np.int64, np.uint64, np.float64])


@st.composite
def build_columns(draw) -> tuple[np.ndarray, str]:
    """A build key column and its shape: contiguous, gapped, empty or duplicated."""
    shape = draw(st.sampled_from(["contiguous", "gapped", "empty", "duplicate"]))
    dtype = draw(_DTYPES)
    if shape == "empty":
        return np.empty(0, dtype=dtype), shape
    if shape == "contiguous":
        first = draw(st.integers(min_value=0, max_value=50))
        values = first + np.arange(draw(st.integers(min_value=1, max_value=40)))
    else:
        values = np.array(
            sorted(draw(st.sets(st.integers(min_value=0, max_value=120), min_size=1, max_size=40)))
        )
        if shape == "duplicate":
            at = draw(st.integers(min_value=0, max_value=len(values) - 1))
            values = np.insert(values, at, values[at])
    return values.astype(dtype), shape


@st.composite
def probe_columns(draw) -> np.ndarray:
    """Probe keys around the build range; negative unless the dtype is unsigned."""
    dtype = draw(_DTYPES)
    low = 0 if dtype is np.uint64 else -30
    keys = draw(st.lists(st.integers(min_value=low, max_value=200), max_size=60))
    return np.array(keys, dtype=dtype)


def _nested_loop(keys: np.ndarray, build: np.ndarray) -> list[tuple[int, int]]:
    """Every ``(probe row, build row)`` whose Python values are equal."""
    return [
        (i, j)
        for i, key in enumerate(keys.tolist())
        for j, value in enumerate(build.tolist())
        if key == value
    ]


def _sort_merge(build: np.ndarray) -> _BuildKey:
    """The build key as the sort-merge path prepares a non-unique column."""
    order = np.argsort(build, kind="stable")
    return _BuildKey(build[order], order)


def _pairs(keys: np.ndarray, build_key: _BuildKey, rows: int) -> list[tuple[int, int]]:
    selector, positions = _index_pairs([keys], [build_key], rows)
    assert positions.dtype == np.int64
    probe = np.arange(len(keys), dtype=np.int64)
    if selector is not None:
        assert selector.dtype in (np.bool_, np.int64)
        probe = probe[selector]
    assert len(probe) == len(positions)
    return list(zip(probe.tolist(), positions.tolist()))


@settings(max_examples=300, deadline=None)
@given(column=build_columns(), keys=probe_columns())
def test_unique_lookup_equals_sort_merge_and_nested_loop(column, keys):
    build, shape = column
    prepared = _BuildKey.of(build, keys.dtype)
    expected = _nested_loop(keys, build)
    assert _pairs(keys, prepared, len(build)) == expected
    assert _pairs(keys, _sort_merge(build), len(build)) == expected
    # A duplicate is observed from the data: the column is not unique.
    assert (prepared.order is None) == (shape != "duplicate")


def test_every_probe_row_hitting_passes_the_batch_through():
    build = np.arange(10, 20, dtype=np.int64)
    keys = np.array([19, 10, 15, 15], dtype=np.int64)
    selector, positions = _index_pairs([keys], [_BuildKey.of(build, keys.dtype)], len(build))
    assert selector is None
    assert positions.tolist() == [9, 0, 5, 5]
    gapped = np.array([2, 3, 7, 11], dtype=np.int64)
    selector, positions = _index_pairs([gapped[::-1]], [_BuildKey.of(gapped, keys.dtype)], 4)
    assert selector is None and positions.tolist() == [3, 2, 1, 0]


def test_uint64_against_int64_never_yields_float_positions():
    build = np.arange(5, 9, dtype=np.uint64)
    keys = np.array([-1, 5, 8, 9, 2**40], dtype=np.int64)
    for build_key in (_BuildKey.of(build, keys.dtype), _sort_merge(build)):
        selector, positions = _index_pairs([keys], [build_key], len(build))
        assert positions.dtype == np.int64
        assert np.arange(len(keys))[selector].tolist() == [1, 2]
        assert positions.tolist() == [0, 3]
    selector, positions = _index_pairs(
        [build], [_BuildKey.of(keys, build.dtype)], len(keys)
    )
    assert positions.dtype == np.int64 and positions.tolist() == [1, 2]


_BOUNDS = {np.int64: (-(2**63), 2**63 - 1), np.uint64: (0, 2**64 - 1)}


@st.composite
def contiguous_builds(draw) -> np.ndarray:
    """An auto-numbered key from 0 or a non-zero value (negative if signed); one row, or none."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    low = -(2**40) if dtype is np.int64 else 1
    first = draw(st.just(0) | st.integers(min_value=low, max_value=2**40))
    rows = draw(st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=40))
    return np.array([first + offset for offset in range(rows)], dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(
    build=contiguous_builds(), probe_dtype=st.sampled_from([np.int64, np.uint64]), data=st.data()
)
def test_contiguous_lookup_equals_searchsorted_and_nested_loop(build, probe_dtype, data):
    lowest, highest = _BOUNDS[probe_dtype]
    first = int(build[0]) if len(build) else 0
    low, high = max(lowest, first - 30), min(highest, first + len(build) + 30)
    near = st.integers(min_value=low, max_value=max(low, high))
    extremes = st.sampled_from(sorted({lowest, highest, max(lowest, -1), 0}))
    keys = np.array(data.draw(st.lists(near | extremes, max_size=60), "keys"), dtype=probe_dtype)
    prepared = _BuildKey.of(build, keys.dtype)
    # int64 against uint64 compares in float64: never the contiguous path.
    integral = np.result_type(build.dtype, keys.dtype).kind in "iu"
    assert (prepared.first is not None) == (integral and len(build) > 0)
    expected = _nested_loop(keys, build)
    assert _pairs(keys, prepared, len(build)) == expected
    searchsorted = _BuildKey(prepared.values, None)
    assert _pairs(keys, searchsorted, len(build)) == expected
    assert _pairs(keys, _sort_merge(build), len(build)) == expected


def test_a_gapped_or_float_key_is_not_contiguous():
    assert _BuildKey.of(np.array([3, 4, 6], dtype=np.int64), np.dtype(np.int64)).first is None
    floats = np.arange(3, dtype=np.float64)
    assert _BuildKey.of(floats, np.dtype(np.int64)).first is None
    assert _BuildKey.of(np.arange(5, 9, dtype=np.int64), np.dtype(np.int64)).first == 5

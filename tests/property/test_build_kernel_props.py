"""The integer-code prefix-distinct kernel against the stacked-unique
kernel it replaced, and the counting column summary against the float64
sort it short-cuts (both kept here as the oracles)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import builder, histogram
from repro.stats.builder import prefix_distinct_counts, summarize_column


def reference_prefix_density(arrays) -> float:
    """``repro.stats.builder._prefix_density`` as it was before the
    integer-code kernel: 1 / (number of distinct tuples) by a comparison
    sort of the stacked float64 tuples."""
    if not arrays or arrays[0].shape[0] == 0:
        return 1.0
    stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    distinct = np.unique(stacked, axis=1).shape[1]
    return 1.0 / max(1, distinct)


def kernel_prefix_densities(arrays):
    counts = prefix_distinct_counts([summarize_column(a) for a in arrays])
    return [1.0 / max(1, count) for count in counts]


def reference_prefix_densities(arrays):
    return [
        reference_prefix_density(arrays[: i + 1]) for i in range(len(arrays))
    ]


_BIG = 2**53  # float64 holds every integer up to here and not beyond

_ELEMENTS = (
    (np.int64, st.integers(-3, 3)),
    (np.int64, st.integers(-(2**40), 2**40)),
    # neighbours collide once cast to float64, identically in both kernels
    (np.int64, st.integers(_BIG - 4, _BIG + 8)),
    (np.int64, st.sampled_from([np.iinfo(np.int64).min, -1, 0, 1,
                                np.iinfo(np.int64).max])),
    (np.float64, st.floats(allow_nan=False, width=64)),
    (np.float64, st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1e300, -1e300])),
    (np.int64, st.just(7)),  # all-equal column
)


@st.composite
def parallel_columns(draw):
    rows = draw(st.integers(min_value=0, max_value=40))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dtype, elements = draw(st.sampled_from(_ELEMENTS))
        values = draw(st.lists(elements, min_size=rows, max_size=rows))
        columns.append(np.asarray(values, dtype=dtype))
    return columns


@given(parallel_columns())
@settings(max_examples=300, deadline=None)
def test_kernel_equals_stacked_unique(arrays):
    assert kernel_prefix_densities(arrays) == reference_prefix_densities(
        arrays
    )


@given(parallel_columns(), st.integers(min_value=0, max_value=12))
@settings(max_examples=300, deadline=None)
def test_overflow_fallback_equals_stacked_unique(arrays, limit):
    """With the mixed-radix limit forced low, prefixes whose product
    exceeds it take the lexsort path; the counts do not change."""
    with mock.patch.object(builder, "_MAX_GROUP_CODE", limit):
        forced = kernel_prefix_densities(arrays)
    assert forced == reference_prefix_densities(arrays)


@pytest.mark.parametrize(
    "columns, expected",
    [
        ([[]], [0]),
        ([[], []], [0, 0]),
        ([[5]], [1]),
        ([[5], [6], [7]], [1, 1, 1]),
        ([[1, 1, 1], [2, 2, 2]], [1, 1]),
        ([[1, 1, 2, 2], [1, 2, 1, 2], [0, 0, 0, 1]], [2, 4, 4]),
        ([[_BIG, _BIG + 1], [0, 0]], [1, 1]),
        ([[-1.5, -1.5, 2.0], [-3, 4, -3]], [2, 3]),
    ],
)
def test_prefix_distinct_counts_examples(columns, expected):
    summaries = [summarize_column(np.asarray(c)) for c in columns]
    assert prefix_distinct_counts(summaries) == expected


def test_real_product_overflow_takes_the_fallback():
    """Cardinalities whose product exceeds int64 cannot be allocated in a
    test, so check the guard's arithmetic instead: it is done in Python
    integers and cannot itself wrap."""
    groups = np.array([0, 1, 1], dtype=np.int64)
    codes = np.array([2, 0, 0], dtype=np.int64)
    ids, count = builder._regroup(groups, 2**40, codes, 2**40, True)
    assert count == 2
    assert ids.tolist() == [0, 1, 1]


# ----------------------------------------------------------------------
# the counting summary against the float64 sort
# ----------------------------------------------------------------------


def sorted_summary(values, with_codes):
    """``summarize_column`` as it was before dense integer columns were
    counted: always one float64 ``np.unique``."""
    as_float = np.asarray(values, dtype=np.float64)
    if not with_codes:
        return (*np.unique(as_float, return_counts=True), None)
    distinct, codes, freqs = np.unique(
        as_float, return_inverse=True, return_counts=True
    )
    return distinct, freqs, codes.astype(np.int64, copy=False)


def assert_same_summary(values, with_codes):
    actual = summarize_column(values, with_codes)
    expected = sorted_summary(values, with_codes)
    for got, want in zip(actual, expected):
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def took_counting_path(values) -> bool:
    return histogram._count_column(np.asarray(values), False) is not None


_INT_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)


@st.composite
def integer_columns(draw):
    dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
    info = np.iinfo(dtype)
    rows = draw(st.integers(min_value=0, max_value=60))
    # a window somewhere in the dtype's range, negative minima included;
    # narrow windows are dense, wide ones fail the guard
    width = draw(st.sampled_from([0, 1, 5, 300, 1500, 10**6, 2**60]))
    low = draw(st.integers(info.min, info.max))
    high = min(info.max, low + width)
    values = draw(
        st.lists(st.integers(low, high), min_size=rows, max_size=rows)
    )
    return np.asarray(values, dtype=dtype)


@given(integer_columns(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_counting_summary_equals_float_sort(values, with_codes):
    assert_same_summary(values, with_codes)


@pytest.mark.parametrize("with_codes", [False, True])
def test_counting_guard_boundaries(with_codes):
    rows = 10
    at_guard = 4 * rows + 1024  # span allowed for this many rows
    for low in (-7, 0, 2**40):
        inside = np.full(rows, low, dtype=np.int64)
        inside[-1] = low + at_guard - 1
        assert took_counting_path(inside)
        assert_same_summary(inside, with_codes)
        past = inside.copy()
        past[-1] += 1
        assert not took_counting_path(past)
        assert_same_summary(past, with_codes)
    # a single value, and nothing at all
    assert took_counting_path(np.array([5], dtype=np.int16))
    assert_same_summary(np.array([5], dtype=np.int16), with_codes)
    assert not took_counting_path(np.array([], dtype=np.int64))
    assert_same_summary(np.array([], dtype=np.int64), with_codes)
    # floats are sorted however dense
    assert not took_counting_path(np.array([1.0, 2.0, 2.0]))


@pytest.mark.parametrize("with_codes", [False, True])
def test_counting_stops_where_float64_stops_being_exact(with_codes):
    exact = np.array([_BIG - 2, _BIG, _BIG - 2, _BIG - 1], dtype=np.int64)
    for values in (exact, -exact, exact.astype(np.uint64)):
        assert took_counting_path(values)
        assert_same_summary(values, with_codes)
    # one past 2**53 neighbours collide as floats: must be sorted
    beyond = np.array([_BIG - 1, _BIG + 1, _BIG], dtype=np.int64)
    for values in (beyond, -beyond, beyond.astype(np.uint64)):
        assert not took_counting_path(values)
        assert_same_summary(values, with_codes)
    huge = np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    assert not took_counting_path(huge)
    assert_same_summary(huge, with_codes)


@st.composite
def integer_key_columns(draw):
    """2-4 parallel integer columns; small cardinalities keep the
    mixed-radix product under the counting guard, wide ones over it."""
    rows = draw(st.integers(min_value=1, max_value=50))
    columns = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        high = draw(st.sampled_from([1, 3, 40, 10**9]))
        values = draw(
            st.lists(st.integers(-2, high), min_size=rows, max_size=rows)
        )
        columns.append(np.asarray(values, dtype=np.int64))
    return columns


@given(integer_key_columns())
@settings(max_examples=300, deadline=None)
def test_counted_regroup_equals_sorted_regroup(arrays):
    """``_regroup``'s count-only branch counts when the guard allows and
    sorts otherwise; with the guard forced shut it always sorts."""
    expected = reference_prefix_densities(arrays)
    assert kernel_prefix_densities(arrays) == expected
    with mock.patch.object(builder, "counting_pays", lambda span, rows: False):
        assert kernel_prefix_densities(arrays) == expected

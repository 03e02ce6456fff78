"""The integer-code prefix-distinct kernel against the stacked-unique
kernel it replaced (kept here as the oracle)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import builder
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

"""The executor's kernels against the code they replaced.

The integer mixed-radix composite key, the build / probe join index, the
counting group-by and the row-id :class:`Relation` are rewrites under a
same-output contract; the implementations they replaced are kept here as
the oracles:

* ``factorized_keys`` — the float64 ``np.unique`` rank factorization;
* ``sort_probe_join`` — stable argsort of the right keys plus two binary
  searches per left key;
* ``joint_sort_probe_join`` — the per-join kernel :class:`JoinIndex`
  replaced, verbatim: one mixed-radix encoding over *both* sides' value
  ranges, then a counting table or a sort of the right side's keys;
* ``unique_groups`` — ``np.unique`` over the composite keys;
* ``probed_counts`` — a counting join's per-row match counts, as the
  ``np.bincount`` of the probe's left row ids;
* ``Eager`` — one numpy gather per column per ``take`` / ``filter``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.executor import operators
from repro.executor.operators import (
    composite_keys,
    equi_join_indices,
    group_indices,
    join_counts,
    join_indices,
    joint_composite_keys,
)
from repro.executor.relation import Relation
from repro.storage import join_index
from repro.storage.join_index import JoinIndex, counting_pays, int64_columns

# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def factorized_keys(arrays):
    if len(arrays) == 1:
        return np.asarray(arrays[0])
    combined = np.zeros(len(arrays[0]), dtype=np.int64)
    multiplier = 1
    for array in arrays:
        _, inverse = np.unique(
            np.asarray(array, dtype=np.float64), return_inverse=True
        )
        domain = int(inverse.max()) + 1 if inverse.size else 1
        combined = combined + inverse.astype(np.int64) * multiplier
        multiplier *= max(1, domain)
    return combined


def sort_probe_join(left_keys, right_keys):
    empty = np.empty(0, dtype=np.int64)
    if left_keys.shape[0] == 0 or right_keys.shape[0] == 0:
        return empty, empty
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    left_idx = np.repeat(np.arange(left_keys.shape[0]), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    return left_idx.astype(np.int64), order[starts + offsets].astype(np.int64)


# --- the sort-probe kernel of commit 74f5d68, verbatim -----------------

_DENSE_SPAN_PER_ROW = 4
_DENSE_SPAN_FLOOR = 1024
_KEY_LIMIT = 2**62


def _as_int64(array):
    if np.can_cast(array.dtype, np.int64):
        return array.astype(np.int64, copy=False)
    return None


def _match_ranges(left_keys, right_keys):
    left, right = _as_int64(left_keys), _as_int64(right_keys)
    if left is not None and right is not None:
        low = min(int(left.min()), int(right.min()))
        span = max(int(left.max()), int(right.max())) - low + 1
        rows = left.shape[0] + right.shape[0]
        if span <= _DENSE_SPAN_PER_ROW * rows + _DENSE_SPAN_FLOOR:
            slots = right - low
            narrow = slots.astype(np.uint16) if span <= 2**16 else slots
            order = np.argsort(narrow, kind="stable")
            per_key = np.bincount(slots, minlength=span)
            ends = np.cumsum(per_key)
            probe = left - low
            counts = per_key[probe]
            return order, ends[probe] - counts, counts
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    return order, lo, hi - lo


def _old_equi_join_indices(left_keys, right_keys):
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    empty = np.empty(0, dtype=np.int64)
    if left_keys.shape[0] == 0 or right_keys.shape[0] == 0:
        return empty, empty
    order, lo, counts = _match_ranges(left_keys, right_keys)
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    left_idx = np.repeat(np.arange(left_keys.shape[0]), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[np.repeat(lo, counts) + offsets]
    return (
        left_idx.astype(np.int64, copy=False),
        right_idx.astype(np.int64, copy=False),
    )


def _old_radix_keys(sides):
    keys = [np.zeros(side[0].shape[0], dtype=np.int64) for side in sides]
    multiplier = 1
    for parts in zip(*sides):
        parts = [_as_int64(part) for part in parts]
        if any(part is None for part in parts):
            return None
        filled = [part for part in parts if part.shape[0]]
        if not filled:
            continue
        low = min(int(part.min()) for part in filled)
        span = max(int(part.max()) for part in filled) - low + 1
        if multiplier * span > _KEY_LIMIT:
            return None
        for key, part in zip(keys, parts):
            key += (part - low) * multiplier
        multiplier *= span
    return keys


def _old_factorized_keys(arrays):
    combined = np.zeros(arrays[0].shape[0], dtype=np.int64)
    multiplier = 1
    for array in arrays:
        _, inverse = np.unique(
            np.asarray(array, dtype=np.float64), return_inverse=True
        )
        domain = int(inverse.max()) + 1 if inverse.size else 1
        combined = combined + inverse.astype(np.int64) * multiplier
        multiplier *= max(1, domain)
    return combined


def _old_side_keys(sides):
    keys = _old_radix_keys(sides)
    if keys is None:
        joint = _old_factorized_keys(
            [np.concatenate(parts) for parts in zip(*sides)]
        )
        keys = np.split(
            joint, np.cumsum([side[0].shape[0] for side in sides])[:-1]
        )
    return keys


def joint_sort_probe_join(left_arrays, right_arrays):
    """``_run_join`` of commit 74f5d68: joint keys, then the sort probe."""
    left_arrays = [np.asarray(array) for array in left_arrays]
    right_arrays = [np.asarray(array) for array in right_arrays]
    if len(left_arrays) == 1:
        left_keys, right_keys = left_arrays[0], right_arrays[0]
    else:
        left_keys, right_keys = _old_side_keys([left_arrays, right_arrays])
    return _old_equi_join_indices(left_keys, right_keys)


def unique_groups(arrays):
    """``group_indices`` of commit 74f5d68."""
    _, representative, inverse = np.unique(
        composite_keys(arrays), return_index=True, return_inverse=True
    )
    return inverse.astype(np.int64), representative.astype(np.int64)


class Eager:
    """The relation the executor used to carry: gather every column."""

    def __init__(self, columns):
        self.columns = dict(columns)

    def take(self, indices):
        return Eager({k: a[indices] for k, a in self.columns.items()})

    def filter(self, mask):
        return Eager({k: a[mask] for k, a in self.columns.items()})

    def merged_with(self, other):
        return Eager({**self.columns, **other.columns})


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

#: (dtype, low, high): signed with negatives, unsigned, dictionary codes,
#: a span-1 column, and values wide enough that three of them overflow
_COLUMN_KINDS = st.sampled_from(
    [
        (np.int64, -5, 5),
        (np.int64, -(2**40), 2**40),
        (np.int32, -3, 40),
        (np.uint8, 0, 255),
        (np.uint32, 0, 2**32 - 1),
        (np.int64, 0, 12),  # dictionary codes
        (np.int64, 9, 9),  # span 1
        (np.int64, -(2**50), 2**50),
    ]
)


@st.composite
def key_columns(draw, rows, max_columns=4):
    """1..4 parallel integer columns of ``rows`` rows, few distinct values
    each so tuples repeat."""
    columns = []
    for _ in range(draw(st.integers(1, max_columns))):
        dtype, low, high = draw(_COLUMN_KINDS)
        pool = draw(
            st.lists(st.integers(low, high), min_size=1, max_size=4)
        )
        columns.append(
            np.asarray(
                draw(
                    st.lists(
                        st.sampled_from(pool), min_size=rows, max_size=rows
                    )
                ),
                dtype=dtype,
            )
        )
    return columns


def _same_partition_and_order(new, old):
    """Equal ``np.unique`` inverses: the same equality classes, numbered
    in the same sorted order."""
    new_inverse = np.unique(new, return_inverse=True)[1]
    old_inverse = np.unique(old, return_inverse=True)[1]
    return np.array_equal(new_inverse, old_inverse)


# ----------------------------------------------------------------------
# composite keys
# ----------------------------------------------------------------------


class TestCompositeKeys:
    @given(data=st.data(), rows=st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    def test_same_classes_and_group_order_as_factorization(self, data, rows):
        columns = data.draw(key_columns(rows))
        assert _same_partition_and_order(
            composite_keys(columns), factorized_keys(columns)
        )
        ids, representatives = group_indices(columns)
        _, old_representatives, old_ids = np.unique(
            factorized_keys(columns), return_index=True, return_inverse=True
        )
        assert np.array_equal(ids, old_ids)
        assert np.array_equal(representatives, old_representatives)

    @given(data=st.data(), n_left=st.integers(0, 20), n_right=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_joint_keys_equal_exactly_where_tuples_are_equal(
        self, data, n_left, n_right
    ):
        both = data.draw(key_columns(n_left + n_right))
        left = [column[:n_left] for column in both]
        right = [column[n_left:] for column in both]
        left_keys, right_keys = joint_composite_keys(left, right)
        assert left_keys.shape == (n_left,) and right_keys.shape == (n_right,)
        for i in range(n_left):
            for j in range(n_right):
                same = all(int(l[i]) == int(r[j]) for l, r in zip(left, right))
                assert (left_keys[i] == right_keys[j]) == same

    def test_overflowing_radices_take_the_factorization(self, monkeypatch):
        """Three columns spanning 2**40 each cannot be one int64 mixed
        radix; the fallback ranks them instead, with the same result."""
        rng = np.random.default_rng(5)
        pool = rng.integers(-(2**39), 2**39, size=6)
        columns = [rng.choice(pool, size=50) for _ in range(3)]
        assert operators._radix_keys(columns) is None
        calls = []
        fallback = operators._factorized_keys
        monkeypatch.setattr(
            operators,
            "_factorized_keys",
            lambda arrays: calls.append(1) or fallback(arrays),
        )
        keys = composite_keys(columns)
        assert calls
        assert _same_partition_and_order(keys, factorized_keys(columns))
        left, right = joint_composite_keys(
            [c[:20] for c in columns], [c[20:] for c in columns]
        )
        assert len(calls) == 2
        assert np.array_equal(np.concatenate([left, right]), keys)

    def test_float_and_uint64_columns_keep_the_factorization(self):
        floats = [np.array([0.5, 0.5, 1.5]), np.array([1, 2, 1])]
        assert operators._radix_keys(floats) is None
        assert np.array_equal(composite_keys(floats), factorized_keys(floats))
        wide = [np.array([2**63, 1, 2**63], dtype=np.uint64), np.array([1, 1, 1])]
        assert operators._radix_keys(wide) is None
        assert _same_partition_and_order(
            composite_keys(wide), factorized_keys(wide)
        )

    def test_radix_product_just_inside_the_limit_is_exact(self):
        """Spans of 2**31 x 2**31 = 2**62 fit; every tuple stays apart."""
        edge = np.array([0, 2**31 - 1, 0, 2**31 - 1], dtype=np.int64)
        other = np.array([0, 0, 2**31 - 1, 2**31 - 1], dtype=np.int64)
        keys = operators._radix_keys([edge, other])
        assert keys is not None
        assert len(set(keys.tolist())) == 4
        assert (keys >= 0).all()


# ----------------------------------------------------------------------
# equijoin
# ----------------------------------------------------------------------

_JOIN_KEYS = st.sampled_from(
    [
        (np.int64, -4, 4),  # dense: the counting-table probe
        (np.int64, 0, 70_000),  # dense span above 16 bits needs many rows
        (np.int64, -(2**45), 2**45),  # sparse: the binary-search probe
        (np.uint16, 0, 300),
        (np.float64, -3, 3),
    ]
)


class TestEquiJoin:
    @given(
        kind=_JOIN_KEYS,
        data=st.data(),
        n_left=st.integers(0, 40),
        n_right=st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_index_pairs_identical_to_sort_probe(
        self, kind, data, n_left, n_right
    ):
        dtype, low, high = kind
        pool = data.draw(st.lists(st.integers(low, high), min_size=1, max_size=6))
        draw_side = lambda n: np.asarray(
            data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
            dtype=dtype,
        )
        left, right = draw_side(n_left), draw_side(n_right)
        got = equi_join_indices(left, right)
        want = sort_probe_join(left, right)
        for mine, theirs in zip(got, want):
            assert mine.dtype == np.int64
            assert np.array_equal(mine, theirs)

    def test_wide_dense_span_sorts_unnarrowed(self):
        """A dense span beyond 16 bits still uses the counting table."""
        rng = np.random.default_rng(11)
        left = rng.integers(0, 100_000, size=30_000)
        right = rng.integers(0, 100_000, size=30_000)
        got = equi_join_indices(left, right)
        want = sort_probe_join(left, right)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# ----------------------------------------------------------------------
# build / probe join index
# ----------------------------------------------------------------------

_INDEX_DTYPES = st.sampled_from(
    [
        np.int8,
        np.int16,
        np.int32,
        np.int64,
        np.uint8,
        np.uint16,
        np.uint32,
    ]
)


@st.composite
def join_sides(draw):
    """1..4 parallel key columns for a right and a left side.  The right
    side draws from a small pool per column (so tuples repeat, or — with
    ``unique`` — each row differs in the first column); the left side
    draws from the pool plus values below, above and between it."""
    n_columns = draw(st.integers(1, 4))
    n_right = draw(st.integers(0, 25))
    n_left = draw(st.integers(0, 25))
    unique = draw(st.booleans())
    left, right = [], []
    for position in range(n_columns):
        dtype = draw(_INDEX_DTYPES)
        info = np.iinfo(dtype)
        # keep room below and above the pool inside the dtype
        low = draw(st.integers(info.min + 2, info.max - 70))
        pool = draw(
            st.lists(
                st.integers(low, min(info.max - 2, low + 60)),
                min_size=1,
                max_size=5,
            )
        )
        if unique and position == 0:
            base = draw(st.integers(info.min + 2, info.max - 2 - 2 * n_right))
            values = [base + 2 * i for i in range(n_right)]  # gaps between
            pool = values or pool
        else:
            values = draw(
                st.lists(
                    st.sampled_from(pool), min_size=n_right, max_size=n_right
                )
            )
        outside = [min(pool) - 1, min(pool) - 2, max(pool) + 1, max(pool) + 2]
        between = [value + 1 for value in pool]
        probe = draw(
            st.lists(
                st.sampled_from(pool + outside + between),
                min_size=n_left,
                max_size=n_left,
            )
        )
        right.append(np.asarray(values, dtype=dtype))
        left.append(np.asarray(probe, dtype=dtype))
    return left, right


def _assert_same_pairs(got, want):
    for mine, theirs in zip(got, want):
        assert mine.dtype == np.int64
        assert mine.tobytes() == theirs.astype(np.int64).tobytes()


class TestJoinIndex:
    @given(sides=join_sides())
    @settings(max_examples=300, deadline=None)
    def test_build_probe_identical_to_the_joint_sort_probe(self, sides):
        left, right = sides
        index = JoinIndex.build(right)
        assert index is not None and index.built_from(right)
        got = index.probe(int64_columns(left))
        _assert_same_pairs(got, joint_sort_probe_join(left, right))
        # ... and through the entry point every join takes, kept or not
        _assert_same_pairs(join_indices(left, right), got)
        _assert_same_pairs(join_indices(left, right, index), got)

    def test_all_equal_keys_expand_to_the_full_product(self):
        left = [np.full(7, -3, dtype=np.int8), np.full(7, 9, dtype=np.uint16)]
        right = [np.full(5, -3, dtype=np.int8), np.full(5, 9, dtype=np.uint16)]
        index = JoinIndex.build(right)
        assert index._form == "runs"
        got = index.probe(int64_columns(left))
        _assert_same_pairs(got, joint_sort_probe_join(left, right))
        assert got[0].shape == (35,)

    @pytest.mark.parametrize("past", [0, 1])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_span_at_and_one_past_the_density_rule(self, past, repeat):
        """``span == 4 * rows + 1024`` still counts; one more value
        sorts.  Same pairs either way, in all three forms."""
        rows = 40
        span = 4 * rows + 1024 + past
        assert counting_pays(span, rows) == (not past)
        rng = np.random.default_rng(past)
        keys = rng.choice(np.arange(1, span - 1), size=rows - 2, replace=False)
        keys = np.concatenate([[0, span - 1], keys]) - 500
        if repeat:
            keys[5] = keys[6]
        index = JoinIndex.build([keys])
        expected = "sorted" if past else ("runs" if repeat else "unique")
        assert index._form == expected
        left = np.concatenate([keys[::-1], keys[:9] + 1, [-501, span - 500]])
        _assert_same_pairs(
            index.probe([left]), joint_sort_probe_join([left], [keys])
        )

    def test_radix_product_at_the_limit_indexes_and_past_it_factorizes(
        self, monkeypatch
    ):
        edge = np.array([0, 2**31 - 1, 0, 2**31 - 1, 5], dtype=np.int64)
        other = np.array([0, 0, 2**31 - 1, 2**31 - 1, 5], dtype=np.int64)
        calls = []
        fallback = operators.joint_composite_keys
        monkeypatch.setattr(
            operators,
            "joint_composite_keys",
            lambda left, right: calls.append(1) or fallback(left, right),
        )
        # 2**31 x 2**31 == 2**62: one int64 mixed radix still holds it
        at = [edge, other]
        index = JoinIndex.build(at)
        assert index is not None and index._form == "sorted"
        _assert_same_pairs(
            join_indices([c[::-1] for c in at], at),
            joint_sort_probe_join([c[::-1] for c in at], at),
        )
        assert not calls
        # one more value in a column: no index, the joint factorization
        past = [np.append(edge, 2**31), np.append(other, 0)]
        assert JoinIndex.build(past) is None
        left = [c[::-1] for c in past]
        _assert_same_pairs(
            join_indices(left, past), joint_sort_probe_join(left, past)
        )
        assert calls == [1]

    def test_left_values_far_outside_the_range_cannot_wrap(self):
        """The probe never subtracts a build-side minimum from a value it
        has not first found inside the build side's range."""
        right = [np.array([2**62, 2**62 + 1], dtype=np.int64)]
        left = [np.array([-(2**63), 2**62 + 1, 2**63 - 1], dtype=np.int64)]
        _assert_same_pairs(
            JoinIndex.build(right).probe(left),
            (np.array([1]), np.array([1])),
        )

    def test_rows_and_sorted_keys_are_stored_in_the_narrowest_dtype(self):
        unique = JoinIndex.build([np.arange(255)])
        assert unique._form == "unique" and unique._table.dtype == np.uint8
        wider = JoinIndex.build([np.arange(256)])
        assert wider._form == "unique" and wider._table.dtype == np.uint16
        runs = JoinIndex.build([np.arange(60_000) // 2])
        assert runs._form == "runs"
        assert runs._table.dtype == np.uint16 and runs._order.dtype == np.uint16
        sparse = JoinIndex.build([np.arange(300) * 1000])
        assert sparse._form == "sorted"
        assert sparse._table.dtype == np.uint32
        assert sparse._order.dtype == np.uint16
        for index, keys in (
            (unique, np.arange(255)),
            (wider, np.arange(256)),
            (runs, np.arange(60_000) // 2),
            (sparse, np.arange(300) * 1000),
        ):
            left = np.concatenate([keys[::-7], keys[:5] + 1, [-1]])
            _assert_same_pairs(
                index.probe([left]), joint_sort_probe_join([left], [keys])
            )


# ----------------------------------------------------------------------
# per-row match counts
# ----------------------------------------------------------------------


def probed_counts(left, right):
    """How many right rows each left row joins, from the expanded pairs."""
    left_idx, _ = join_indices(left, right)
    return np.bincount(left_idx, minlength=np.asarray(left[0]).shape[0])


def _assert_same_counts(got, left, right):
    assert got.dtype == np.int64
    assert got.tobytes() == probed_counts(left, right).astype(np.int64).tobytes()


class TestMatchCounts:
    @given(sides=join_sides())
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_the_bincount_of_the_probe(self, sides):
        left, right = sides
        index = JoinIndex.build(right)
        _assert_same_counts(index.match_counts(int64_columns(left)), left, right)
        # ... and through the entry point a counting join takes
        _assert_same_counts(join_counts(left, right), left, right)
        _assert_same_counts(join_counts(left, right, index), left, right)

    @pytest.mark.parametrize(
        "keys, form",
        [
            (np.arange(50) * 3 - 70, "unique"),
            ((np.arange(60) // 4) * 2 - 9, "runs"),
            # sparse: counted through a table only when the probe is long
            (np.concatenate([np.arange(0, 2500, 50)] * 2), "sorted"),
        ],
        ids=["unique", "runs", "sorted"],
    )
    @pytest.mark.parametrize("probe_rows", [30, 600])
    def test_every_form_with_values_outside_the_range(
        self, keys, form, probe_rows
    ):
        index = JoinIndex.build([keys])
        assert index._form == form
        rng = np.random.default_rng(probe_rows)
        low, high = int(keys.min()), int(keys.max())
        left = rng.integers(low - 40, high + 40, size=probe_rows)
        left[:3] = [low - 1, high + 1, low]
        _assert_same_counts(index.match_counts([left]), [left], [keys])

    def test_the_sorted_form_counts_by_table_or_by_search(self, monkeypatch):
        """A probe long enough for the key span counts through a table,
        a short one searches — the same counts either way."""
        keys = np.array([0, 4000, 4000, 2, 1999], dtype=np.int64)
        index = JoinIndex.build([keys])
        assert index._form == "sorted"
        searches = []
        search = np.searchsorted
        monkeypatch.setattr(
            np,
            "searchsorted",
            lambda *a, **k: searches.append(1) or search(*a, **k),
        )
        short = np.array([4000, 1, 2, -5, 1999], dtype=np.int64)
        assert not counting_pays(4001, keys.shape[0] + short.shape[0])
        assert index.match_counts([short]).tolist() == [2, 0, 1, 0, 1]
        assert searches
        searches.clear()
        long = np.resize(short, 1000)
        assert counting_pays(4001, keys.shape[0] + long.shape[0])
        assert index.match_counts([long]).tolist() == np.resize(
            [2, 0, 1, 0, 1], 1000
        ).tolist()
        assert not searches

    def test_multi_column_keys(self):
        right = [
            np.array([1, 1, 2, 2, 2, 9], dtype=np.int32),
            np.array([5, 5, 5, 6, 6, -3], dtype=np.int16),
        ]
        left = [
            np.array([1, 2, 2, 9, 0, 1, 3], dtype=np.int32),
            np.array([5, 6, 5, -3, 5, 6, 99], dtype=np.int16),
        ]
        got = JoinIndex.build(right).match_counts(int64_columns(left))
        assert got.tolist() == [2, 2, 1, 1, 0, 0, 0]
        _assert_same_counts(got, left, right)

    def test_an_empty_side_matches_nothing(self):
        empty = [np.empty(0, dtype=np.int64)] * 2
        some = [np.array([1, 2, 3]), np.array([4, 5, 6])]
        index = JoinIndex.build(empty)
        assert index.match_counts(some).tolist() == [0, 0, 0]
        assert join_counts(some, empty).tolist() == [0, 0, 0]
        got = join_counts(empty, some)
        assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize(
        "dtype, values",
        [
            (np.float64, [0.5, -1.25, 0.5, 3.0, np.nan]),
            (np.uint64, [2**64 - 1, 7, 2**64 - 1, 0, 2**63]),
        ],
        ids=["float", "uint64"],
    )
    def test_float_and_uint64_keys_count_through_the_joint_keys(
        self, monkeypatch, dtype, values
    ):
        calls = []
        fallback = operators.joint_composite_keys
        monkeypatch.setattr(
            operators,
            "joint_composite_keys",
            lambda left, right: calls.append(1) or fallback(left, right),
        )
        right = [np.asarray(values, dtype=dtype)]
        left = [np.asarray(values[::-1] + values[:2], dtype=dtype)]
        got = join_counts(left, right)
        assert calls
        _assert_same_counts(got, left, right)
        assert got.sum() > 0


# ----------------------------------------------------------------------
# counting group-by
# ----------------------------------------------------------------------


class TestCountingGroups:
    @given(data=st.data(), rows=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_ids_and_representatives_identical_to_np_unique(self, data, rows):
        columns = data.draw(key_columns(rows))
        got = group_indices(columns)
        want = unique_groups(columns)
        for mine, theirs in zip(got, want):
            assert mine.dtype == np.int64
            assert mine.tobytes() == theirs.tobytes()

    def test_dense_keys_count_and_sparse_keys_sort(self, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k)
        )
        dense = np.array([7, 3, 7, 5, 3], dtype=np.int32)
        ids, representatives = group_indices([dense])
        assert not calls
        assert ids.tolist() == [2, 0, 2, 1, 0]
        assert representatives.tolist() == [1, 3, 0]
        sparse = np.array([2**40, -(2**40), 2**40])
        ids, representatives = group_indices([sparse])
        assert calls
        assert ids.tolist() == [1, 0, 1]
        assert representatives.tolist() == [1, 0]

    def test_first_row_wins_however_often_a_group_repeats(self):
        """A repeated-index *assignment* leaves the winner to NumPy; the
        representative must be the first row of its group regardless."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 4, size=50_000)
        got = group_indices([keys])
        want = unique_groups([keys])
        assert got[1].tolist() == want[1].tolist()
        assert got[1].tolist() == [
            int(np.flatnonzero(keys == k)[0]) for k in range(4)
        ]
        assert np.array_equal(got[0], want[0])

    def test_float_keys_keep_np_unique(self):
        floats = np.array([0.5, -1.0, 0.5])
        ids, representatives = group_indices([floats])
        assert ids.tolist() == [1, 0, 1] and representatives.tolist() == [1, 0]


# ----------------------------------------------------------------------
# relation
# ----------------------------------------------------------------------

_RELATION_OPS = st.lists(
    st.tuples(
        st.sampled_from(["take", "filter", "merge"]),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=6,
)


def _columns(rng, prefix, rows, count=3):
    return {
        f"{prefix}{i}": (
            rng.integers(-9, 9, size=rows)
            if i % 2
            else rng.uniform(size=rows)
        )
        for i in range(count)
    }


class TestRelationEqualsEager:
    @given(ops=_RELATION_OPS, rows=st.integers(0, 12), seed=st.integers(0, 99))
    @settings(max_examples=80, deadline=None)
    def test_every_column_after_any_operator_chain(self, ops, rows, seed):
        rng = np.random.default_rng(seed)
        base = _columns(rng, "base", rows)
        lazy, eager = Relation(base), Eager(base)
        for step, (op, pick) in enumerate(ops):
            n = lazy.row_count
            local = np.random.default_rng(pick)
            if op == "take":
                # subset, reorder and repeat rows
                size = local.integers(0, 2 * n + 1)
                indices = (
                    local.integers(0, n, size=size)
                    if n
                    else np.empty(0, dtype=np.int64)
                )
                lazy, eager = lazy.take(indices), eager.take(indices)
            elif op == "filter":
                mask = local.uniform(size=n) < 0.6
                lazy, eager = lazy.filter(mask), eager.filter(mask)
            else:
                # a second source, itself already reordered; every other
                # merge shadows a carried key, as dict.update would
                extra = _columns(local, f"s{step}_", n + 3, count=2)
                if pick % 2 and "base1" in eager.columns:
                    extra["base1"] = local.integers(50, 60, size=n + 3)
                pickup = local.permutation(n + 3)[:n]
                lazy = lazy.merged_with(Relation(extra).take(pickup))
                eager = eager.merged_with(Eager(extra).take(pickup))
            assert lazy.row_count == (
                len(next(iter(eager.columns.values()))) if eager.columns else 0
            )
            assert lazy.keys() == list(eager.columns)
            for key, expected in eager.columns.items():
                assert key in lazy
                got = lazy.column(key)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
                assert lazy.column(key) is got  # gathered once

    def test_from_table_is_a_view_of_the_stored_arrays(self):
        from tests.util import simple_db

        db = simple_db(n_emp=10)
        data = db.table("emp")
        relation = Relation.from_table(data, "emp", ["age", "salary"])
        for key in relation.keys():
            assert relation.column(key) is data.column_array(key.column)

    def test_row_count_mismatches_still_raise(self):
        three = Relation({"a": np.arange(3)})
        with pytest.raises(ExecutionError, match="has 2 rows, expected 3"):
            Relation({"a": np.arange(3), "b": np.arange(2)})
        with pytest.raises(ExecutionError, match="different row counts"):
            three.merged_with(Relation({"b": np.arange(4)}))
        with pytest.raises(ExecutionError, match="different row counts"):
            three.take(np.array([0])).merged_with(three)
        with pytest.raises(ExecutionError, match="mask has 2 rows"):
            three.filter(np.array([True, False]))
        with pytest.raises(ExecutionError, match="no column"):
            three.column("missing")

"""The executor's kernels against the code they replaced.

The integer mixed-radix composite key, the dense-key join probe and the
row-id :class:`Relation` are rewrites under a same-output contract; the
implementations they replaced are kept here as the oracles:

* ``factorized_keys`` — the float64 ``np.unique`` rank factorization;
* ``sort_probe_join`` — stable argsort of the right keys plus two binary
  searches per left key;
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
    joint_composite_keys,
)
from repro.executor.relation import Relation

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
        assert operators._radix_keys([columns]) is None
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
        assert operators._radix_keys([floats]) is None
        assert np.array_equal(composite_keys(floats), factorized_keys(floats))
        wide = [np.array([2**63, 1, 2**63], dtype=np.uint64), np.array([1, 1, 1])]
        assert operators._radix_keys([wide]) is None
        assert _same_partition_and_order(
            composite_keys(wide), factorized_keys(wide)
        )

    def test_radix_product_just_inside_the_limit_is_exact(self):
        """Spans of 2**31 x 2**31 = 2**62 fit; every tuple stays apart."""
        edge = np.array([0, 2**31 - 1, 0, 2**31 - 1], dtype=np.int64)
        other = np.array([0, 0, 2**31 - 1, 2**31 - 1], dtype=np.int64)
        keys = operators._radix_keys([[edge, other]])
        assert keys is not None
        assert len(set(keys[0].tolist())) == 4
        assert (keys[0] >= 0).all()


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

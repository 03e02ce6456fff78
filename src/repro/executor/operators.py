"""Vectorized join and grouping primitives."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.catalog import ColumnType
from repro.errors import ExecutionError


#: a join whose integer keys span at most this many values per input row
#: (plus a floor) is probed through a counting table instead of a search
_DENSE_SPAN_PER_ROW = 4
_DENSE_SPAN_FLOOR = 1024
#: mixed-radix keys stay below this so int64 arithmetic cannot wrap
_KEY_LIMIT = 2**62


def _as_int64(array: np.ndarray) -> Optional[np.ndarray]:
    """``array`` as int64 if its dtype fits losslessly (not uint64, not
    float), else ``None``."""
    if np.can_cast(array.dtype, np.int64):
        return array.astype(np.int64, copy=False)
    return None


def _match_ranges(left_keys: np.ndarray, right_keys: np.ndarray):
    """``(order, lo, counts)``: the stable sort permutation of the right
    keys, and per left row the start and length of its run of equal keys
    in that sorted order."""
    left, right = _as_int64(left_keys), _as_int64(right_keys)
    if left is not None and right is not None:
        low = min(int(left.min()), int(right.min()))
        span = max(int(left.max()), int(right.max())) - low + 1
        rows = left.shape[0] + right.shape[0]
        if span <= _DENSE_SPAN_PER_ROW * rows + _DENSE_SPAN_FLOOR:
            # dense keys: a 16-bit key sorts by radix, and a counting
            # table replaces both binary searches
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


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching row-index pairs of an equijoin on single key arrays.

    Sort-probe implementation: sort the right side once (stably, so equal
    keys keep their row order), find each left key's run of matches, and
    expand the runs.  Returns parallel ``(left_idx, right_idx)`` arrays,
    left rows in order and each one's matches in right row order.
    """
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
    # position of each output row within its left row's run of matches
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[np.repeat(lo, counts) + offsets]
    return (
        left_idx.astype(np.int64, copy=False),
        right_idx.astype(np.int64, copy=False),
    )


def _radix_keys(sides: List[List[np.ndarray]]) -> Optional[List[np.ndarray]]:
    """One int64 key per row of each side, by mixed-radix arithmetic.

    ``sides[s][c]`` is key column *c* of side *s*; every side must be
    encoded against the same value ranges for its keys to be comparable.
    Column *c*'s digit is ``value - min`` and its radix the column's value
    span, the first column least significant — order-isomorphic to the
    rank factorization of :func:`_factorized_keys`.  ``None`` when a
    column is not integer-typed or the radices overflow.
    """
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


def _factorized_keys(arrays: List[np.ndarray]) -> np.ndarray:
    """Mixed-radix key over each column's rank among its distinct values
    (compared as float64) — for float columns and overflowing ranges."""
    combined = np.zeros(arrays[0].shape[0], dtype=np.int64)
    multiplier = 1
    for array in arrays:
        _, inverse = np.unique(
            np.asarray(array, dtype=np.float64), return_inverse=True
        )
        domain = int(inverse.max()) + 1 if inverse.size else 1
        combined = combined + inverse.astype(np.int64) * multiplier
        multiplier *= max(1, domain)
        if multiplier > _KEY_LIMIT:
            raise ExecutionError("composite join key domain overflow")
    return combined


def _side_keys(sides: List[List[np.ndarray]]) -> List[np.ndarray]:
    """One int64 key per row of each side, equal exactly where the rows'
    column tuples are equal — within a side and across sides."""
    keys = _radix_keys(sides)
    if keys is None:
        # one factorization over all sides' rows, split back per side
        joint = _factorized_keys(
            [np.concatenate(parts) for parts in zip(*sides)]
        )
        keys = np.split(
            joint, np.cumsum([side[0].shape[0] for side in sides])[:-1]
        )
    return keys


def composite_keys(arrays: List[np.ndarray]) -> np.ndarray:
    """Collapse parallel key columns into a single int64 key array.

    Exact (no collisions), and ordered like the column tuples read last
    column first — :func:`group_indices` numbers groups in that order.
    """
    arrays = [np.asarray(array) for array in arrays]
    if len(arrays) == 1:
        return arrays[0]
    return _side_keys([arrays])[0]


def translate_string_codes(
    left_dict, right_dict, right_codes: np.ndarray
) -> np.ndarray:
    """Re-encode right-side string codes into the left side's dictionary.

    Strings absent from the left dictionary map to -1 (matches nothing,
    because codes are non-negative).
    """
    mapping = right_dict.codes_in(left_dict)
    return mapping[np.asarray(right_codes, dtype=np.int64)]


def align_join_keys(database, relation_left, relation_right, join_predicates):
    """Key arrays for both sides of a join, in comparable domains.

    STRING join columns are translated into a shared code space via their
    dictionaries; other types compare natively.
    """
    left_arrays, right_arrays = [], []
    for predicate in join_predicates:
        left_ref, right_ref = predicate.left, predicate.right
        if left_ref not in relation_left:
            left_ref, right_ref = right_ref, left_ref
        left_values = relation_left.column(left_ref)
        right_values = relation_right.column(right_ref)
        if database.schema.column(left_ref).type == ColumnType.STRING:
            left_dict = database.table(left_ref.table).string_dictionary(
                left_ref.column
            )
            right_dict = database.table(right_ref.table).string_dictionary(
                right_ref.column
            )
            right_values = translate_string_codes(
                left_dict, right_dict, right_values
            )
        left_arrays.append(left_values)
        right_arrays.append(right_values)
    return left_arrays, right_arrays


def joint_composite_keys(
    left_arrays: List[np.ndarray], right_arrays: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Single comparable key per row for both join sides.

    The encoding must be *joint* (one value range, or one factorization,
    over both sides) so that equal values get equal keys on both sides.
    """
    if len(left_arrays) != len(right_arrays):
        raise ExecutionError("join sides must have equal key column counts")
    left_arrays = [np.asarray(array) for array in left_arrays]
    right_arrays = [np.asarray(array) for array in right_arrays]
    if len(left_arrays) == 1:
        return left_arrays[0], right_arrays[0]
    left_keys, right_keys = _side_keys([left_arrays, right_arrays])
    return left_keys, right_keys


def group_indices(arrays: List[np.ndarray]):
    """Group rows by the composite of ``arrays``.

    Returns:
        (group_ids, representative_indices): ``group_ids[i]`` is the dense
        group number of row *i*; ``representative_indices[g]`` is the first
        row of group *g* (useful for emitting group key values).
    """
    if not arrays:
        raise ExecutionError("group_indices requires at least one column")
    keys = composite_keys(arrays)
    _, representative, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return (
        inverse.astype(np.int64, copy=False),
        representative.astype(np.int64, copy=False),
    )

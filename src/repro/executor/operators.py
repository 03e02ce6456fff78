"""Vectorized join and grouping primitives."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.catalog import ColumnType
from repro.errors import ExecutionError
from repro.storage.join_index import (
    KEY_LIMIT,
    JoinIndex,
    column_radices,
    counting_pays,
    int64_columns,
    mixed_radix_keys,
)


def join_indices(
    left_arrays: List[np.ndarray],
    right_arrays: List[np.ndarray],
    index: Optional[JoinIndex] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching row-index pairs of an equijoin on parallel key columns.

    Build / probe: a :class:`~repro.storage.join_index.JoinIndex` over the
    right side's keys — ``index`` when the caller kept one built from
    these very ``right_arrays`` — probed with the left side's.  Returns
    parallel ``(left_idx, right_idx)`` arrays, left rows in order and each
    one's matches in right row order.
    """
    left = int64_columns(left_arrays)
    if left is not None and index is None:
        index = JoinIndex.build(right_arrays)
    if left is None or index is None:
        # float / uint64 columns, overflowing radices: rank both sides'
        # rows jointly first, then join on the ranks
        left_keys, right_keys = joint_composite_keys(left_arrays, right_arrays)
        return join_indices([left_keys], [right_keys])
    return index.probe(left)


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_indices` on single key arrays."""
    return join_indices([np.asarray(left_keys)], [np.asarray(right_keys)])


def _radix_keys(arrays: List[np.ndarray]) -> Optional[np.ndarray]:
    """One int64 key per row by mixed-radix arithmetic: column *c*'s digit
    is ``value - min`` and its radix the column's value span, the first
    column least significant — order-isomorphic to the rank factorization
    of :func:`_factorized_keys`.  ``None`` when a column is not
    integer-typed or the radices overflow."""
    columns = int64_columns(arrays)
    if columns is None:
        return None
    if columns[0].shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    radices = column_radices(columns)
    if radices is None:
        return None
    return mixed_radix_keys(columns, radices)


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
        if multiplier > KEY_LIMIT:
            raise ExecutionError("composite join key domain overflow")
    return combined


def composite_keys(arrays: List[np.ndarray]) -> np.ndarray:
    """Collapse parallel key columns into a single int64 key array.

    Exact (no collisions), and ordered like the column tuples read last
    column first — :func:`group_indices` numbers groups in that order.
    """
    arrays = [np.asarray(array) for array in arrays]
    if len(arrays) == 1:
        return arrays[0]
    keys = _radix_keys(arrays)
    if keys is None:
        keys = _factorized_keys(arrays)
    return keys


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

    Returns ``(left_arrays, right_arrays, right_refs)``, parallel and in
    the order of the right side's column refs, so that every spelling of
    a composite key presents its columns alike.  STRING join columns are
    translated into a shared code space via their dictionaries — the
    right side's array is then no stored one and its ref is ``None``;
    other types compare natively.
    """
    pairs = []
    for predicate in join_predicates:
        left_ref, right_ref = predicate.left, predicate.right
        if left_ref not in relation_left:
            left_ref, right_ref = right_ref, left_ref
        pairs.append((right_ref, left_ref))
    pairs.sort()
    left_arrays, right_arrays, right_refs = [], [], []
    for right_ref, left_ref in pairs:
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
            right_ref = None
        left_arrays.append(left_values)
        right_arrays.append(right_values)
        right_refs.append(right_ref)
    return left_arrays, right_arrays, right_refs


def joint_composite_keys(
    left_arrays: List[np.ndarray], right_arrays: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Single comparable int64 key per row for both join sides, for key
    columns a :class:`JoinIndex` cannot encode.

    One factorization over both sides' rows, so that equal values get
    equal keys on both sides; a single column is ranked in its own dtype.
    """
    if len(left_arrays) != len(right_arrays):
        raise ExecutionError("join sides must have equal key column counts")
    joint = [
        np.concatenate([np.asarray(left), np.asarray(right)])
        for left, right in zip(left_arrays, right_arrays)
    ]
    if len(joint) == 1:
        keys = np.unique(joint[0], return_inverse=True)[1].astype(
            np.int64, copy=False
        )
    else:
        keys = _factorized_keys(joint)
    n_left = np.asarray(left_arrays[0]).shape[0]
    return keys[:n_left], keys[n_left:]


def _counted_groups(keys: np.ndarray):
    """:func:`group_indices` of dense integer ``keys`` by counting, or
    ``None`` when they are not (:func:`counting_pays`)."""
    columns = int64_columns([keys])
    if columns is None or not keys.shape[0]:
        return None
    (keys,) = columns
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    rows = keys.shape[0]
    if not counting_pays(span, rows):
        return None
    slots = keys - low if low else keys
    present = np.zeros(span, dtype=bool)
    present[slots] = True
    # rank of each present key among them: groups number in key order
    ranks = np.cumsum(present)
    group_ids = ranks[slots] - 1
    # minimum.at is defined for repeated indices; assignment is not
    representatives = np.full(int(ranks[-1]), rows, dtype=np.int64)
    np.minimum.at(representatives, group_ids, np.arange(rows))
    return group_ids, representatives


def group_indices(arrays: List[np.ndarray]):
    """Group rows by the composite of ``arrays``.

    Returns:
        (group_ids, representative_indices): ``group_ids[i]`` is the dense
        group number of row *i*, groups numbered in ascending key order;
        ``representative_indices[g]`` is the first row of group *g*
        (useful for emitting group key values).  Both int64.
    """
    if not arrays:
        raise ExecutionError("group_indices requires at least one column")
    keys = composite_keys(arrays)
    counted = _counted_groups(keys)
    if counted is not None:
        return counted
    _, representative, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return (
        inverse.astype(np.int64, copy=False),
        representative.astype(np.int64, copy=False),
    )

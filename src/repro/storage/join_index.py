"""Integer key encoding and the build side of an equijoin.

A :class:`JoinIndex` is what a join needs of its *right* input, computed
from that side's key columns alone, so it can be built once and probed by
many left sides: :class:`~repro.storage.table_data.TableData` keeps the
indexes over its stored column arrays until a mutation replaces an array.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

#: mixed-radix keys stay below this so int64 arithmetic cannot wrap
KEY_LIMIT = 2**62

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)


def counting_pays(span: int, rows: int) -> bool:
    """Whether ``rows`` integers spread over ``span`` consecutive values
    are better counted (one table of ``span`` entries) than sorted.  A
    property of the data alone: keys, dates and dictionary codes are
    dense, measures and hashes are not."""
    return span <= 4 * rows + 1024


def int64_columns(arrays: Sequence[np.ndarray]) -> Optional[List[np.ndarray]]:
    """``arrays`` as int64 if every dtype fits losslessly (not uint64, not
    float), else ``None``."""
    if all(np.can_cast(array.dtype, np.int64) for array in arrays):
        return [array.astype(np.int64, copy=False) for array in arrays]
    return None


def column_radices(
    columns: Sequence[np.ndarray],
) -> Optional[List[Tuple[int, int, int]]]:
    """``(low, high, multiplier)`` per int64 column of a mixed-radix key:
    the column's digit is ``value - low``, its radix its value span, the
    first column least significant.  ``None`` when the radices overflow
    :data:`KEY_LIMIT`.  The columns must have rows."""
    radices = []
    multiplier = 1
    for column in columns:
        low, high = int(column.min()), int(column.max())
        radices.append((low, high, multiplier))
        multiplier *= high - low + 1
        if multiplier > KEY_LIMIT:
            return None
    return radices


def mixed_radix_keys(
    columns: Sequence[np.ndarray], radices: Sequence[Tuple[int, int, int]]
) -> np.ndarray:
    """One int64 key per row; every value must lie within its column's
    ``[low, high]``."""
    low = radices[0][0]
    keys = columns[0] - low if low else columns[0]
    for column, (low, _, multiplier) in zip(columns[1:], radices[1:]):
        keys = keys + (column - low) * multiplier
    return keys


class JoinIndex:
    """The build side of an equijoin on integer key columns.

    ``JoinIndex.build(right).probe(left)`` returns the matching
    ``(left_idx, right_idx)`` row pairs: left rows in order, each one's
    matches in right row order, int64.  The key of a row is mixed-radix
    over per-column ``(low, span)`` taken from the build side; a probe
    value outside a column's range matches nothing.  Three forms, by the
    build side's keys alone, each holding only what its probe reads:

    * ``"unique"`` — dense keys (:func:`counting_pays`), none repeated:
      ``table`` maps key -> row (the row count: no such row);
    * ``"runs"`` — dense keys with repeats: ``table`` holds the ``span +
      1`` run offsets into ``order``, the stable sort of the rows;
    * ``"sorted"`` — sparse keys: ``table`` holds the sorted keys of the
      rows in ``order``, probed by binary search.

    Row numbers and sorted keys are stored in the narrowest unsigned
    dtype that holds the row count, or the largest key: an index lives as
    long as its table's arrays do.  Immutable once built, so one index
    may be probed from several threads.
    """

    __slots__ = ("sources", "_radices", "_rows", "_form", "_table", "_order")

    def __init__(
        self,
        sources: Tuple[np.ndarray, ...],
        columns: Sequence[np.ndarray],
        radices: Sequence[Tuple[int, int, int]],
    ) -> None:
        #: the array objects the index was built from
        self.sources = sources
        self._radices = radices
        self._rows = 0
        self._order = _NO_ROWS
        if not radices:
            # a build side without rows: nothing matches
            self._form, self._table = "unique", _NO_ROWS
            return
        self._rows = rows = columns[0].shape[0]
        keys = mixed_radix_keys(columns, radices)
        low, high, multiplier = radices[-1]
        span = (high - low + 1) * multiplier
        row_dtype = np.min_scalar_type(rows)
        if not counting_pays(span, rows):
            self._form = "sorted"
            order = np.argsort(keys, kind="stable")
            self._table = keys[order].astype(np.min_scalar_type(span - 1))
            self._order = order.astype(row_dtype)
            return
        row_of = np.full(span, rows, dtype=row_dtype)
        row_of[keys] = np.arange(rows, dtype=row_dtype)
        if np.count_nonzero(row_of != rows) == rows:
            self._form, self._table = "unique", row_of
            return
        self._form = "runs"
        # a key of 16 bits or fewer sorts by radix
        narrow = keys.astype(np.uint16) if span <= 2**16 else keys
        self._order = np.argsort(narrow, kind="stable").astype(row_dtype)
        self._table = np.zeros(span + 1, dtype=row_dtype)
        np.cumsum(np.bincount(keys, minlength=span), out=self._table[1:])

    @classmethod
    def build(cls, arrays: Sequence[np.ndarray]) -> Optional["JoinIndex"]:
        """The index over parallel key columns, or ``None`` when they have
        no int64 mixed-radix encoding (a float or uint64 column, radices
        past :data:`KEY_LIMIT`)."""
        columns = int64_columns(arrays)
        if columns is None:
            return None
        radices = column_radices(columns) if columns[0].shape[0] else []
        if radices is None:
            return None
        return cls(tuple(arrays), columns, radices)

    def built_from(self, arrays: Sequence[np.ndarray]) -> bool:
        """Whether ``arrays`` are the very objects this index was built
        from — the only proof that it describes their rows."""
        return len(arrays) == len(self.sources) and all(
            mine is theirs for mine, theirs in zip(self.sources, arrays)
        )

    def probe(
        self, columns: Sequence[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row pairs matching ``columns`` (int64, parallel to the build
        side's) against the indexed rows."""
        radices = self._radices
        if not radices or columns[0].shape[0] == 0:
            return _NO_ROWS, _NO_ROWS
        # rows with a value outside the build side's range match nothing,
        # and must not reach the key arithmetic
        inside = None
        for column, (low, high, _) in zip(columns, radices):
            if int(column.min()) < low or int(column.max()) > high:
                within = (column >= low) & (column <= high)
                inside = within if inside is None else inside & within
        kept = None
        if inside is not None:
            kept = np.flatnonzero(inside)
            if kept.shape[0] == 0:
                return _NO_ROWS, _NO_ROWS
            columns = [column[kept] for column in columns]
        keys = mixed_radix_keys(columns, radices)
        table = self._table
        if self._form == "unique":
            hit = table[keys]
            left_idx = np.flatnonzero(hit != self._rows)
            if left_idx.shape[0] != hit.shape[0]:
                hit = hit[left_idx]
            right_idx = hit.astype(np.int64)
        else:
            if self._form == "runs":
                lo = table[keys].astype(np.int64)
                counts = table[keys + 1].astype(np.int64) - lo
            else:
                # same dtype as the table, or searchsorted converts it
                keys = keys.astype(table.dtype)
                lo = np.searchsorted(table, keys, side="left")
                counts = np.searchsorted(table, keys, side="right") - lo
            ends = np.cumsum(counts, dtype=np.int64)
            total = int(ends[-1])
            if total == 0:
                return _NO_ROWS, _NO_ROWS
            left_idx = np.repeat(np.arange(keys.shape[0]), counts)
            # output position, minus where its left row's output rows
            # start, plus where that row's run starts in ``order``
            positions = np.arange(total) + np.repeat(lo - (ends - counts), counts)
            right_idx = self._order[positions].astype(np.int64, copy=False)
        if kept is not None:
            left_idx = kept[left_idx]
        return left_idx, right_idx

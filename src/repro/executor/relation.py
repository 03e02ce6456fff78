"""Intermediate results: row-id vectors over the columns of their sources."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.catalog import ColumnRef
from repro.errors import ExecutionError

#: one source of a relation: its column arrays, and the rows of them the
#: relation holds, in order (``None``: every row, in stored order)
_Source = Tuple[Dict[object, np.ndarray], Optional[np.ndarray]]


class Relation:
    """Row-aligned columns keyed by :class:`ColumnRef` (or string labels).

    A relation is late-materializing: it holds, per *source* (a base table
    or an operator's freshly computed columns), the source's arrays
    untouched plus one row-id vector.  ``take`` / ``filter`` compose the
    row-id vectors — one gather per source, not per column — and
    :meth:`column` gathers a column the first time an operator reads it,
    so a carried column nobody reads is never copied.

    STRING columns stay dictionary-encoded throughout execution; decoding
    happens only when final results are rendered, via the owning table's
    dictionary.
    """

    def __init__(self, columns: Dict[object, np.ndarray]) -> None:
        arrays: Dict[object, np.ndarray] = {}
        row_count: Optional[int] = None
        for key, array in columns.items():
            array = np.asarray(array)
            if row_count is None:
                row_count = int(array.shape[0])
            elif array.shape[0] != row_count:
                raise ExecutionError(
                    f"column {key} has {array.shape[0]} rows, expected "
                    f"{row_count}"
                )
            arrays[key] = array
        self._assemble([(arrays, None)], row_count or 0, None)

    def _assemble(self, sources: List[_Source], row_count: int, where):
        self._sources = sources
        self._row_count = row_count
        self._where: Optional[Dict[object, int]] = where
        self._gathered: Dict[object, np.ndarray] = {}
        return self

    @classmethod
    def _of(cls, sources: List[_Source], row_count: int, where=None):
        return cls.__new__(cls)._assemble(sources, row_count, where)

    def _index(self) -> Dict[object, int]:
        """key -> position of the source holding it (a later source wins,
        at the key's first position), built on first lookup."""
        where = self._where
        if where is None:
            where = self._where = {
                key: position
                for position, (arrays, _) in enumerate(self._sources)
                for key in arrays
            }
        return where

    @property
    def row_count(self) -> int:
        return self._row_count

    def __contains__(self, key) -> bool:
        return key in self._index()

    def column(self, key) -> np.ndarray:
        """The values of ``key``, gathered on first use."""
        array = self._gathered.get(key)
        if array is None:
            try:
                arrays, rows = self._sources[self._index()[key]]
            except KeyError:
                raise ExecutionError(
                    f"no column {key} in relation (have {self.keys()})"
                ) from None
            array = arrays[key] if rows is None else arrays[key][rows]
            self._gathered[key] = array
        return array

    def keys(self) -> list:
        return list(self._index())

    def take(self, indices: np.ndarray) -> "Relation":
        """Row subset / reorder by positional indices."""
        indices = np.asarray(indices)
        return Relation._of(
            [
                (arrays, indices if rows is None else rows[indices])
                for arrays, rows in self._sources
            ],
            int(indices.shape[0]),
            self._where,
        )

    def filter(self, mask: np.ndarray) -> "Relation":
        """Row subset by boolean mask."""
        mask = np.asarray(mask)
        if mask.shape[0] != self._row_count:
            raise ExecutionError(
                f"mask has {mask.shape[0]} rows, expected {self._row_count}"
            )
        return self.take(np.flatnonzero(mask))

    def merged_with(self, other: "Relation") -> "Relation":
        """Column-wise union of two row-aligned relations."""
        if other.row_count != self.row_count:
            raise ExecutionError(
                "cannot merge relations with different row counts: "
                f"{self.row_count} vs {other.row_count}"
            )
        return Relation._of(self._sources + other._sources, self.row_count)

    @classmethod
    def from_table(
        cls, table_data, table_name: str, columns: Iterable[str]
    ) -> "Relation":
        """Zero-copy view over a base table's stored arrays."""
        return cls(
            {
                ColumnRef(table_name, name): table_data.column_array(name)
                for name in columns
            }
        )

    @classmethod
    def empty(cls) -> "Relation":
        return cls({})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation(rows={self.row_count}, cols={len(self._index())})"

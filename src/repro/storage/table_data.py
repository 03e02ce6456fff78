"""Column-store data for a single table, plus DML with modification counters."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.catalog import ColumnType, TableSchema
from repro.concurrency import guarded_by
from repro.errors import StorageError
from repro.storage.join_index import JoinIndex
from repro.storage.strings import StringDictionary

_NUMPY_DTYPE = {
    ColumnType.INT: np.int64,
    ColumnType.FLOAT: np.float64,
    ColumnType.STRING: np.int64,  # dictionary codes
    ColumnType.DATE: np.int64,  # day numbers
}


class TableData:
    """The stored rows of one table, one numpy array per column.

    STRING columns hold dictionary codes; their :class:`StringDictionary`
    lives alongside the code array.  DATE columns hold integer day numbers.

    The ``rows_modified_since_stats`` counter mirrors SQL Server 7.0: it
    counts rows inserted, deleted, or updated since the last statistics
    refresh on the table, and statistics-refresh policies compare it to a
    fraction of the table size (paper Sec 2, Sec 6).

    Mutations (DML, bulk loads, counter resets) and multi-column snapshot
    reads (:meth:`sample_rows`) are guarded by a per-table reentrant lock so
    concurrent sessions never observe a half-applied delete/update or lose
    counter increments.  Single-column reads are lock-free: column arrays
    are replaced atomically, never resized in place.

    :meth:`join_index` keeps the build side of equijoins over the stored
    arrays; every mutation that replaces an array drops them all and bumps
    :attr:`version`.
    """

    #: mutations_only — column arrays are replaced atomically, never
    #: resized in place, so unlocked single-column reads are safe
    _columns = guarded_by("mutation_lock", mutations_only=True)
    #: mutations_only — an index is immutable and records the arrays it
    #: describes, so an unlocked reader checks it instead of the lock
    _join_indexes = guarded_by("mutation_lock", mutations_only=True)
    #: mutations_only — an int replaced under the lock, read lock-free
    _version = guarded_by("mutation_lock", mutations_only=True)
    rows_modified_since_stats = guarded_by("mutation_lock")

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: Dict[str, np.ndarray] = {
            col.name: np.empty(0, dtype=_NUMPY_DTYPE[col.type])
            for col in schema.columns
        }
        self._dicts: Dict[str, StringDictionary] = {
            col.name: StringDictionary()
            for col in schema.columns
            if col.type == ColumnType.STRING
        }
        #: sorted column names -> the index over those stored arrays
        self._join_indexes: Dict[Tuple[str, ...], JoinIndex] = {}
        self._version = 0
        self.mutation_lock = threading.RLock()
        self.rows_modified_since_stats = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        first = self.schema.columns[0].name
        return int(self._columns[first].shape[0])

    def column_array(self, column_name: str) -> np.ndarray:
        """The raw stored array for ``column_name`` (codes for strings)."""
        try:
            return self._columns[column_name]
        except KeyError:
            raise StorageError(
                f"no column {column_name!r} in table {self.schema.name!r}"
            ) from None

    def string_dictionary(self, column_name: str) -> StringDictionary:
        """The dictionary of a STRING column.

        Raises:
            StorageError: if the column is not of STRING type.
        """
        try:
            return self._dicts[column_name]
        except KeyError:
            raise StorageError(
                f"column {column_name!r} of table {self.schema.name!r} "
                "is not a STRING column"
            ) from None

    def encode_value(self, column_name: str, value):
        """Encode a Python literal into this column's storage domain.

        Strings become dictionary codes (unseen strings get a fresh code so
        that equality predicates on them correctly select nothing); other
        values pass through numerically.
        """
        col = self.schema.column(column_name)
        if col.type == ColumnType.STRING:
            if not isinstance(value, str):
                raise StorageError(
                    f"expected str for {self.schema.name}.{column_name}, "
                    f"got {type(value).__name__}"
                )
            return self._dicts[column_name].encode(value)
        if isinstance(value, str):
            raise StorageError(
                f"expected number for {self.schema.name}.{column_name}, "
                f"got string {value!r}"
            )
        return value

    def decoded_column(self, column_name: str) -> list:
        """Column values as Python objects (strings decoded)."""
        col = self.schema.column(column_name)
        arr = self._columns[column_name]
        if col.type == ColumnType.STRING:
            return self._dicts[column_name].decode_many(arr)
        if col.type == ColumnType.FLOAT:
            return [float(v) for v in arr]
        return [int(v) for v in arr]

    @property
    def version(self) -> int:
        """Monotone data version: bumped by every load or DML that
        replaces a column array, never by one that changed nothing or
        raised."""
        return self._version

    @property
    def size_bytes(self) -> int:
        """Approximate stored size, used by the page-based I/O cost model."""
        return self.row_count * self.schema.row_width_bytes

    # ------------------------------------------------------------------
    # bulk load
    # ------------------------------------------------------------------

    def load_columns(self, columns: Mapping[str, Iterable]) -> None:
        """Replace the table contents with the given column data.

        All columns of the schema must be provided and have equal length.
        STRING columns may be given as string sequences (encoded here) or as
        pre-encoded int arrays together with an existing dictionary via
        :meth:`attach_dictionary`.
        """
        missing = [c.name for c in self.schema.columns if c.name not in columns]
        if missing:
            raise StorageError(
                f"load_columns for {self.schema.name!r} missing {missing}"
            )
        arrays = {}
        length = None
        for col in self.schema.columns:
            data = columns[col.name]
            if col.type == ColumnType.STRING and not isinstance(
                data, np.ndarray
            ):
                arr = self._dicts[col.name].encode_many(data)
            else:
                arr = np.asarray(data, dtype=_NUMPY_DTYPE[col.type])
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise StorageError(
                    f"column {col.name!r} has {arr.shape[0]} values, "
                    f"expected {length}"
                )
            arrays[col.name] = arr
        with self.mutation_lock:
            self._columns = arrays
            self._join_indexes = {}
            self._version += 1
            self.rows_modified_since_stats = 0

    def attach_dictionary(
        self, column_name: str, dictionary: StringDictionary
    ) -> None:
        """Attach a pre-built dictionary (used with pre-encoded loads)."""
        self.schema.column(column_name)
        self._dicts[column_name] = dictionary

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def insert_rows(self, rows: Iterable[Mapping]) -> int:
        """Append rows given as ``{column: value}`` mappings.

        Returns the number of rows inserted and bumps the modification
        counter by the same amount.
        """
        rows = list(rows)
        if not rows:
            return 0
        with self.mutation_lock:
            appended = {}
            for col in self.schema.columns:
                values = []
                for row in rows:
                    if col.name not in row:
                        raise StorageError(
                            f"insert into {self.schema.name!r} missing "
                            f"column {col.name!r}"
                        )
                    values.append(self.encode_value(col.name, row[col.name]))
                appended[col.name] = np.asarray(
                    values, dtype=_NUMPY_DTYPE[col.type]
                )
            for name, arr in appended.items():
                self._columns[name] = np.concatenate(
                    [self._columns[name], arr]
                )
            self._join_indexes = {}
            self._version += 1
            self.rows_modified_since_stats += len(rows)
        return len(rows)

    def delete_rows(self, mask: np.ndarray) -> int:
        """Delete the rows selected by a boolean ``mask``.

        Returns the number of rows deleted.
        """
        mask = np.asarray(mask, dtype=bool)
        with self.mutation_lock:
            if mask.shape[0] != self.row_count:
                raise StorageError(
                    f"delete mask length {mask.shape[0]} != row count "
                    f"{self.row_count}"
                )
            deleted = int(mask.sum())
            if deleted:
                keep = ~mask
                for name in self._columns:
                    self._columns[name] = self._columns[name][keep]
                self._join_indexes = {}
                self._version += 1
                self.rows_modified_since_stats += deleted
        return deleted

    def update_rows(
        self, mask: np.ndarray, assignments: Mapping[str, object]
    ) -> int:
        """Set ``assignments`` (column -> new literal) on rows in ``mask``.

        Returns the number of rows updated.
        """
        mask = np.asarray(mask, dtype=bool)
        with self.mutation_lock:
            if mask.shape[0] != self.row_count:
                raise StorageError(
                    f"update mask length {mask.shape[0]} != row count "
                    f"{self.row_count}"
                )
            updated = int(mask.sum())
            if updated:
                # copy-on-write, like insert/delete: lock-free readers of
                # the old arrays must never see a half-applied UPDATE
                replaced = {}
                for name, value in assignments.items():
                    col = self.schema.column(name)
                    encoded = self.encode_value(name, value)
                    replaced[name] = self._columns[name].copy()
                    replaced[name][mask] = _NUMPY_DTYPE[col.type](encoded)
                self._columns.update(replaced)
                self._join_indexes = {}
                self._version += 1
                self.rows_modified_since_stats += updated
        return updated

    # ------------------------------------------------------------------
    # join indexes
    # ------------------------------------------------------------------

    def join_index(self, columns: Iterable[str]) -> Optional[JoinIndex]:
        """The :class:`JoinIndex` over the stored arrays of ``columns``
        (in sorted name order, so every spelling of a composite key shares
        one), built on the first ask and kept until a mutation replaces an
        array.  ``None`` when the columns have no integer key encoding.

        The index may describe arrays a concurrent mutation has since
        replaced: a caller joining a relation it took earlier must check
        :meth:`JoinIndex.built_from` against that relation's arrays.
        """
        names = tuple(sorted(columns))
        index = self._join_indexes.get(names)
        if index is None:
            with self.mutation_lock:
                arrays = [self.column_array(name) for name in names]
            # built outside the lock: DML need not wait for a sort
            index = JoinIndex.build(arrays)
            if index is not None:
                with self.mutation_lock:
                    if index.built_from(
                        [self._columns[name] for name in names]
                    ):
                        index = self._join_indexes.setdefault(names, index)
        return index

    def reset_modification_counter(self) -> None:
        """Called after statistics on this table are (re)built."""
        with self.mutation_lock:
            self.rows_modified_since_stats = 0

    def sample_rows(
        self,
        max_rows: int,
        rng: Optional[np.random.Generator] = None,
        columns: Optional[Iterable[str]] = None,
    ) -> Dict[str, np.ndarray]:
        """A uniform random sample of at most ``max_rows`` rows.

        Returns raw (encoded) column arrays — of ``columns`` only, when
        given; the sampled row set does not depend on it — used by
        sampling-based statistics construction.
        """
        with self.mutation_lock:
            names = self._columns if columns is None else list(columns)
            arrays = {name: self.column_array(name) for name in names}
            n = self.row_count
            if n <= max_rows:
                return {name: arr.copy() for name, arr in arrays.items()}
            rng = rng or np.random.default_rng(0)
            idx = rng.choice(n, size=max_rows, replace=False)
            idx.sort()
            return {name: arr[idx] for name, arr in arrays.items()}

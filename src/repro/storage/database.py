"""The ``Database`` facade: schema + stored data + statistics + indexes.

A :class:`Database` is what every higher layer (optimizer, executor, MNSA,
benchmark harness) operates on.  It wires together:

* the :class:`~repro.catalog.Schema` (table definitions, foreign keys),
* one :class:`~repro.storage.table_data.TableData` per table,
* a :class:`~repro.stats.manager.StatisticsManager` (created lazily to keep
  the import graph acyclic),
* an :class:`~repro.index.manager.IndexManager`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.catalog import Schema, TableSchema
from repro.errors import CatalogError
from repro.storage.table_data import TableData


class Database:
    """A self-contained in-memory database instance.

    Args:
        schema: the database schema.  Tables may also be added later via
            :meth:`create_table`.
        name: cosmetic identifier used in reports and error messages.
    """

    def __init__(self, schema: Schema = None, name: str = "db") -> None:
        self.name = name
        self.schema = schema if schema is not None else Schema()
        self._data: Dict[str, TableData] = {
            t.name: TableData(t) for t in self.schema.tables()
        }
        self._stats_manager = None
        self._index_manager = None

    # ------------------------------------------------------------------
    # DDL / data access
    # ------------------------------------------------------------------

    def create_table(self, table: TableSchema) -> TableData:
        """Add a table to the schema and allocate empty storage for it."""
        self.schema.add_table(table)
        data = TableData(table)
        self._data[table.name] = data
        return data

    def table(self, name: str) -> TableData:
        """The stored data of table ``name``.

        Raises:
            CatalogError: if the table does not exist.
        """
        try:
            return self._data[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def table_names(self) -> list:
        return list(self._data)

    def row_count(self, table_name: str) -> int:
        return self.table(table_name).row_count

    def load_table(self, table_name: str, columns: Mapping[str, Iterable]):
        """Bulk-load column data into an existing table."""
        self.table(table_name).load_columns(columns)

    # ------------------------------------------------------------------
    # attached managers (lazy to keep imports acyclic)
    # ------------------------------------------------------------------

    @property
    def stats(self):
        """The database's :class:`~repro.stats.manager.StatisticsManager`."""
        if self._stats_manager is None:
            from repro.stats.manager import StatisticsManager

            self._stats_manager = StatisticsManager(self)
        return self._stats_manager

    @property
    def indexes(self):
        """The database's :class:`~repro.index.manager.IndexManager`."""
        if self._index_manager is None:
            from repro.index.manager import IndexManager

            self._index_manager = IndexManager(self)
        return self._index_manager

    # ------------------------------------------------------------------
    # DML convenience wrappers (keep indexes in sync)
    # ------------------------------------------------------------------

    def insert(self, table_name: str, rows: Iterable[Mapping]) -> int:
        """Insert rows and invalidate indexes on the table."""
        count = self.table(table_name).insert_rows(rows)
        if count and self._index_manager is not None:
            self._index_manager.invalidate(table_name)
        return count

    def delete(self, table_name: str, mask) -> int:
        """Delete rows selected by a boolean mask."""
        count = self.table(table_name).delete_rows(mask)
        if count and self._index_manager is not None:
            self._index_manager.invalidate(table_name)
        return count

    def update(self, table_name: str, mask, assignments: Mapping) -> int:
        """Update rows selected by a boolean mask."""
        count = self.table(table_name).update_rows(mask, assignments)
        if count and self._index_manager is not None:
            self._index_manager.invalidate(table_name)
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = {name: data.row_count for name, data in self._data.items()}
        return f"Database({self.name!r}, rows={sizes})"

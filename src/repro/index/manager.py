"""Index catalog and lifecycle for one database."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.catalog import ColumnRef
from repro.errors import CatalogError
from repro.index.sorted_index import SortedIndex


@dataclass(frozen=True)
class IndexDefinition:
    """Declared index: a name and the (single) key column.

    Composite index keys are modeled as an index on the leading column —
    enough for the access-path decisions our optimizer makes, and mirrors
    how SQL Server 7.0's histograms attach to the leading index column.
    """

    name: str
    column: ColumnRef

    def __str__(self) -> str:
        return f"{self.name}({self.column})"


class IndexManager:
    """Owns the indexes of one :class:`~repro.storage.Database`.

    Index *structures* are built lazily and invalidated on DML; the
    *definitions* are the catalog the optimizer consults.
    """

    def __init__(self, database) -> None:
        self._db = database
        self._definitions: Dict[str, IndexDefinition] = {}
        #: column -> its first-declared definition (what ``index_on``
        #: answers), maintained by ``create_index`` / ``drop_index``
        self._first_on: Dict[ColumnRef, IndexDefinition] = {}
        self._built: Dict[str, SortedIndex] = {}

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def create_index(self, name: str, column: ColumnRef) -> IndexDefinition:
        """Declare an index on ``column``.

        Raises:
            CatalogError: if the name is taken or the column doesn't exist.
        """
        if name in self._definitions:
            raise CatalogError(f"index {name!r} already exists")
        self._db.schema.column(column)  # validates
        definition = IndexDefinition(name, column)
        self._definitions[name] = definition
        self._first_on.setdefault(column, definition)
        return definition

    def drop_index(self, name: str) -> None:
        if name not in self._definitions:
            raise CatalogError(f"no index named {name!r}")
        dropped = self._definitions.pop(name)
        self._built.pop(name, None)
        if self._first_on[dropped.column] is dropped:
            # the next-declared index on the column takes over, if any
            del self._first_on[dropped.column]
            for definition in self._definitions.values():
                if definition.column == dropped.column:
                    self._first_on[dropped.column] = definition
                    break

    def definitions(self) -> List[IndexDefinition]:
        return list(self._definitions.values())

    def index_on(self, column: ColumnRef) -> Optional[IndexDefinition]:
        """The first declared index keyed on ``column``, if any."""
        return self._first_on.get(column)

    def indexed_columns(self) -> List[ColumnRef]:
        """All distinct indexed columns (the intro experiment's baseline
        statistics are exactly the statistics on these columns)."""
        seen = []
        for definition in self._definitions.values():
            if definition.column not in seen:
                seen.append(definition.column)
        return seen

    # ------------------------------------------------------------------
    # structures
    # ------------------------------------------------------------------

    def structure(self, name: str) -> SortedIndex:
        """The built index structure, constructing it on first use."""
        if name not in self._definitions:
            raise CatalogError(f"no index named {name!r}")
        if name not in self._built:
            definition = self._definitions[name]
            keys = self._db.table(definition.column.table).column_array(
                definition.column.column
            )
            self._built[name] = SortedIndex(keys, name=name)
        return self._built[name]

    def invalidate(self, table_name: str) -> None:
        """Drop built structures over a table after DML (rebuilt lazily)."""
        stale = [
            name
            for name, definition in self._definitions.items()
            if definition.column.table == table_name
        ]
        for name in stale:
            self._built.pop(name, None)

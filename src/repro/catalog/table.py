"""Table schemas and foreign-key constraints."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.catalog.column import Column, ColumnRef
from repro.catalog.types import ColumnType
from repro.errors import CatalogError


@dataclass(frozen=True)
class ForeignKey:
    """A (possibly composite) foreign-key edge between two tables.

    The Rags-style workload generator walks these edges to build join
    predicates, so every join produced by the generator is semantically
    meaningful (as the TPC-D queries are).

    Attributes:
        child_table: referencing table name.
        child_columns: referencing column names, in order.
        parent_table: referenced table name.
        parent_columns: referenced column names, in order.
    """

    child_table: str
    child_columns: tuple
    parent_table: str
    parent_columns: tuple

    def __post_init__(self) -> None:
        if len(self.child_columns) != len(self.parent_columns):
            raise CatalogError(
                "foreign key column lists must have equal length: "
                f"{self.child_columns} vs {self.parent_columns}"
            )
        if not self.child_columns:
            raise CatalogError("foreign key must reference at least one column")

    @property
    def column_pairs(self) -> list:
        """List of ``(child ColumnRef, parent ColumnRef)`` pairs."""
        return [
            (
                ColumnRef(self.child_table, c),
                ColumnRef(self.parent_table, p),
            )
            for c, p in zip(self.child_columns, self.parent_columns)
        ]


class TableSchema:
    """Schema of one table: ordered columns plus an optional primary key.

    Column lookup is O(1) by name; the declared column order determines the
    physical layout of generated data and the row width used by the I/O
    cost model.
    """

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        primary_key: Optional[tuple] = None,
    ) -> None:
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name: {name!r}")
        self.name = name
        self.columns = list(columns)
        if not self.columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self._by_name = {}
        for col in self.columns:
            if col.name in self._by_name:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {name!r}"
                )
            self._by_name[col.name] = col
        #: one shared, immutable ColumnRef per column
        self._refs = {col.name: ColumnRef(name, col.name) for col in self.columns}
        #: approximate stored width of one row, for the I/O cost model
        self.row_width_bytes = sum(
            col.type.storage_width_bytes for col in self.columns
        )
        self.primary_key = tuple(primary_key) if primary_key else ()
        for key_col in self.primary_key:
            if key_col not in self._by_name:
                raise CatalogError(
                    f"primary key column {key_col!r} not in table {name!r}"
                )

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._by_name

    def column(self, name: str) -> Column:
        """Return the column definition for ``name``.

        Raises:
            CatalogError: if the column does not exist.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def column_names(self) -> list:
        """Column names in declaration order."""
        return [col.name for col in self.columns]

    def ref(self, column_name: str) -> ColumnRef:
        """The :class:`ColumnRef` of one of this table's columns.

        Raises:
            CatalogError: if the column does not exist.
        """
        try:
            return self._refs[column_name]
        except KeyError:
            raise CatalogError(
                f"no column {column_name!r} in table {self.name!r}"
            ) from None

    def refs(self) -> list:
        """``ColumnRef`` for every column, in declaration order."""
        return list(self._refs.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(c.name for c in self.columns)
        return f"TableSchema({self.name}: {cols})"


def make_table(
    name: str,
    column_specs: Iterable[tuple],
    primary_key: Optional[tuple] = None,
) -> TableSchema:
    """Convenience constructor from ``(name, ColumnType)`` pairs.

    Example::

        t = make_table("emp", [("id", ColumnType.INT), ("age", ColumnType.INT)],
                       primary_key=("id",))
    """
    columns = [Column(cname, ctype) for cname, ctype in column_specs]
    return TableSchema(name, columns, primary_key)


__all__ = ["ForeignKey", "TableSchema", "make_table", "ColumnType"]

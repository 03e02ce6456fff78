"""Applying bound DML statements to a database.

The Rags-style workloads contain INSERT / DELETE / UPDATE statements whose
only role in the paper is to advance row-modification counters and thereby
trigger statistics refresh (Sec 6, Sec 8.1).  We execute them for real.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.executor.evaluate import column_mask
from repro.sql.query import DmlStatement


def apply_dml(database, statement: DmlStatement) -> int:
    """Execute one DML statement; returns the number of rows affected."""
    if statement.kind == "insert":
        rows = []
        for row in statement.rows:
            if isinstance(row, dict):
                rows.append(row)
            else:
                names = database.table(statement.table).schema.column_names()
                if len(row) != len(names):
                    raise ExecutionError(
                        f"INSERT tuple width {len(row)} != table width "
                        f"{len(names)}"
                    )
                rows.append(dict(zip(names, row)))
        return database.insert(statement.table, rows)

    data = database.table(statement.table)
    if statement.predicate is None:
        mask = np.ones(data.row_count, dtype=bool)
    else:
        (ref,) = statement.predicate.columns()
        mask = column_mask(
            database, statement.predicate, data.column_array(ref.column)
        )

    if statement.kind == "delete":
        return database.delete(statement.table, mask)
    if statement.kind == "update":
        return database.update(statement.table, mask, statement.assignments)
    raise ExecutionError(f"unknown DML kind {statement.kind!r}")

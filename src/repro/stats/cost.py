"""Deterministic cost model for building and refreshing statistics.

The paper's Figures 3/4 and Table 1 report statistics creation/update
*time*; we use a machine-independent work-unit model instead (DESIGN.md §2):
a build scans the table once per statistic (cost proportional to rows ×
column count) and sorts the scanned values (``n log2 n``), plus a fixed
catalog overhead.  Refreshing a statistic costs the same as building it —
both are full-scan operations in SQL Server 7.0.

Sampling (``sample_rows``) reduces the scan and sort terms to the sample
size, mirroring the sampling-based construction literature the paper cites
([3, 8, 9, 12, 14]).

The prices below are the one place a work unit of statistics management
is defined; the optimizer's operator prices live in
:mod:`repro.optimizer.cost_model`.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.stats.statistic import StatKey

#: per row and per column of a statistic, scanning the table to build it
STAT_SCAN_COST_PER_ROW = 0.02
#: multiplier on ``n * log2(n)`` for the sort a histogram build performs
STAT_SORT_CONSTANT = 0.01
#: fixed per-statistic overhead (catalog writes etc.)
STAT_FIXED_COST = 50.0
#: one optimizer invocation: MNSA pays three per statistic it creates
#: (Sec 4.3), MNSA/D one for a statistic it drop-lists
OPTIMIZER_CALL_COST = 5.0
#: folding one inserted row into an existing histogram (incremental
#: maintenance, paper ref [8]): far below a rebuild's per-row scan
STAT_INCREMENTAL_COST_PER_ROW = 0.002


def statistic_build_cost(
    row_count: int, key: StatKey, sample_rows: Optional[int] = None
) -> float:
    """Work units to build one statistic on a table of ``row_count`` rows."""
    rows = row_count
    if sample_rows is not None:
        rows = min(rows, sample_rows)
    n_columns = len(key.columns)
    scan = rows * STAT_SCAN_COST_PER_ROW * n_columns
    sort = STAT_SORT_CONSTANT * rows * math.log2(rows + 2)
    return STAT_FIXED_COST + scan + sort


def statistic_update_cost(
    row_count: int, key: StatKey, sample_rows: Optional[int] = None
) -> float:
    """Work units to refresh one statistic (same as a rebuild)."""
    return statistic_build_cost(row_count, key, sample_rows)

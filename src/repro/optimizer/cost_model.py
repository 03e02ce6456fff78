"""Operator cost formulas.

All formulas are monotonically non-decreasing in their input cardinalities,
which (together with cardinalities being products of selectivities) gives
the *cost-monotonicity* property MNSA relies on (paper Sec 4.1): the
optimizer-estimated cost of an SPJ query is monotonic in the values of its
selectivity variables.  ``tests/property/test_cost_monotonicity.py``
asserts this with hypothesis.

The same formulas are applied twice: at optimization time over *estimated*
cardinalities, and by the executor over *actual* cardinalities, which is
how we score the true quality of a chosen plan (DESIGN.md §2).
"""

from __future__ import annotations

import math

# The prices of the physical cost model, in work units (DESIGN.md §2).
# The absolute scale is meaningless, only the ratios matter, exactly as in
# a real optimizer.  Statistics build prices live in repro.stats.cost.

#: bytes per page, for I/O costs
PAGE_SIZE_BYTES = 8192
#: reading or writing one page sequentially
IO_PAGE_COST = 1.0
#: multiplier for a random page access (an index lookup)
RANDOM_IO_FACTOR = 4.0
#: processing one tuple through an operator
CPU_TUPLE_COST = 0.01
#: one comparison (sorting, probing, a predicate or HAVING test)
CPU_COMPARE_COST = 0.005
#: inserting one tuple into a hash table
HASH_BUILD_COST = 0.02
#: probing a hash table with one tuple
HASH_PROBE_COST = 0.01
#: multiplier on ``n * log2(n)`` comparisons for a sort
SORT_CONSTANT = 0.012


class CostModel:
    """Stateless cost formulas over the module's prices."""

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def pages(self, rows: float, row_width_bytes: int) -> float:
        """Pages occupied by ``rows`` rows of the given width."""
        return max(1.0, rows * row_width_bytes / PAGE_SIZE_BYTES)

    def table_scan(
        self, table_rows: float, row_width_bytes: int, predicate_count: int
    ) -> float:
        """Full scan applying ``predicate_count`` predicates to each row."""
        io = self.pages(table_rows, row_width_bytes) * IO_PAGE_COST
        cpu = table_rows * (
            CPU_TUPLE_COST + predicate_count * CPU_COMPARE_COST
        )
        return io + cpu

    def index_seek(
        self, matching_rows: float, residual_predicate_count: int
    ) -> float:
        """Seek returning ``matching_rows``, one random page per row."""
        io = RANDOM_IO_FACTOR * IO_PAGE_COST * (1.0 + matching_rows)
        cpu = matching_rows * (
            CPU_TUPLE_COST + residual_predicate_count * CPU_COMPARE_COST
        )
        return io + cpu

    # ------------------------------------------------------------------
    # joins (costs of the join operator itself, children not included)
    # ------------------------------------------------------------------

    def nested_loop_index(
        self, outer_rows: float, matches_per_outer: float
    ) -> float:
        """Index nested loops: one seek into the inner side per outer row."""
        per_outer = RANDOM_IO_FACTOR * IO_PAGE_COST + (
            matches_per_outer * CPU_TUPLE_COST
        )
        return outer_rows * per_outer

    def nested_loop_scan(
        self, outer_rows: float, inner_scan_cost: float
    ) -> float:
        """Naive nested loops: rescan the inner side per outer row."""
        return outer_rows * inner_scan_cost

    def hash_join(
        self, build_rows: float, probe_rows: float, output_rows: float
    ) -> float:
        return (
            build_rows * HASH_BUILD_COST
            + probe_rows * HASH_PROBE_COST
            + output_rows * CPU_TUPLE_COST
        )

    def merge_join(
        self, left_rows: float, right_rows: float, output_rows: float
    ) -> float:
        """Sort-merge join: both inputs sorted here (no order tracking)."""
        return self.merge_join_sorted(
            self.sort(left_rows),
            self.sort(right_rows),
            left_rows,
            right_rows,
            output_rows,
        )

    def merge_join_sorted(
        self,
        left_sort: float,
        right_sort: float,
        left_rows: float,
        right_rows: float,
        output_rows: float,
    ) -> float:
        """:meth:`merge_join` given each input's :meth:`sort` cost — the
        join enumerator computes that once per sub-plan, not once per
        candidate join over it."""
        return (
            left_sort
            + right_sort
            + (left_rows + right_rows) * CPU_COMPARE_COST
            + output_rows * CPU_TUPLE_COST
        )

    # ------------------------------------------------------------------
    # sorts and aggregation
    # ------------------------------------------------------------------

    def sort(self, rows: float) -> float:
        return SORT_CONSTANT * rows * math.log2(rows + 2.0)

    def hash_aggregate(self, input_rows: float, groups: float) -> float:
        return input_rows * HASH_BUILD_COST + groups * CPU_TUPLE_COST

    def stream_aggregate(self, input_rows: float, groups: float) -> float:
        """Sort-based aggregation: sort the input, then one pass.

        Output arrives sorted on the grouping columns, so a downstream
        ORDER BY over (a prefix of) them is free — that trade-off against
        :meth:`hash_aggregate` is decided by the *estimated* group count,
        which makes the choice statistics-sensitive.
        """
        return self.sort(input_rows) + input_rows * CPU_TUPLE_COST

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

from repro.config import CostModelConfig, DEFAULT_CONFIG, OptimizerConfig


class CostModel:
    """Stateless cost formulas parameterized by :class:`CostModelConfig`."""

    def __init__(self, config: OptimizerConfig = DEFAULT_CONFIG) -> None:
        self._c: CostModelConfig = config.cost

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def pages(self, rows: float, row_width_bytes: int) -> float:
        """Pages occupied by ``rows`` rows of the given width."""
        return max(1.0, rows * row_width_bytes / self._c.page_size_bytes)

    def table_scan(
        self, table_rows: float, row_width_bytes: int, predicate_count: int
    ) -> float:
        """Full scan applying ``predicate_count`` predicates to each row."""
        c = self._c
        io = self.pages(table_rows, row_width_bytes) * c.io_page_cost
        cpu = table_rows * (
            c.cpu_tuple_cost + predicate_count * c.cpu_compare_cost
        )
        return io + cpu

    def index_seek(
        self, matching_rows: float, residual_predicate_count: int
    ) -> float:
        """Seek returning ``matching_rows``, one random page per row."""
        c = self._c
        io = c.random_io_factor * c.io_page_cost * (1.0 + matching_rows)
        cpu = matching_rows * (
            c.cpu_tuple_cost + residual_predicate_count * c.cpu_compare_cost
        )
        return io + cpu

    # ------------------------------------------------------------------
    # joins (costs of the join operator itself, children not included)
    # ------------------------------------------------------------------

    def nested_loop_index(
        self, outer_rows: float, matches_per_outer: float
    ) -> float:
        """Index nested loops: one seek into the inner side per outer row."""
        c = self._c
        per_outer = c.random_io_factor * c.io_page_cost + (
            matches_per_outer * c.cpu_tuple_cost
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
        c = self._c
        return (
            build_rows * c.hash_build_cost
            + probe_rows * c.hash_probe_cost
            + output_rows * c.cpu_tuple_cost
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
        c = self._c
        return (
            left_sort
            + right_sort
            + (left_rows + right_rows) * c.cpu_compare_cost
            + output_rows * c.cpu_tuple_cost
        )

    # ------------------------------------------------------------------
    # sorts and aggregation
    # ------------------------------------------------------------------

    def sort(self, rows: float) -> float:
        return self._c.sort_constant * rows * math.log2(rows + 2.0)

    def hash_aggregate(self, input_rows: float, groups: float) -> float:
        c = self._c
        return input_rows * c.hash_build_cost + groups * c.cpu_tuple_cost

    def stream_aggregate(self, input_rows: float, groups: float) -> float:
        """Sort-based aggregation: sort the input, then one pass.

        Output arrives sorted on the grouping columns, so a downstream
        ORDER BY over (a prefix of) them is free — that trade-off against
        :meth:`hash_aggregate` is decided by the *estimated* group count,
        which makes the choice statistics-sensitive.
        """
        c = self._c
        return self.sort(input_rows) + input_rows * c.cpu_tuple_cost

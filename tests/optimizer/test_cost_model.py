"""Tests for repro.optimizer.cost_model."""

import pytest

from repro.optimizer.cost_model import CostModel


@pytest.fixture
def cost():
    return CostModel()


class TestAccessPaths:
    def test_pages_floor_one(self, cost):
        assert cost.pages(0, 100) == 1.0

    def test_scan_grows_with_rows(self, cost):
        assert cost.table_scan(10_000, 100, 1) > cost.table_scan(100, 100, 1)

    def test_scan_grows_with_predicates(self, cost):
        assert cost.table_scan(1000, 100, 3) > cost.table_scan(1000, 100, 0)

    def test_seek_grows_with_matches(self, cost):
        assert cost.index_seek(1000, 0) > cost.index_seek(10, 0)

    def test_seek_cheaper_than_scan_when_selective(self, cost):
        scan = cost.table_scan(100_000, 100, 1)
        seek = cost.index_seek(10, 0)
        assert seek < scan

    def test_seek_more_expensive_when_unselective(self, cost):
        """Random I/O makes full-row seeks worse than scanning."""
        rows = 100_000
        scan = cost.table_scan(rows, 100, 1)
        seek = cost.index_seek(rows, 0)
        assert seek > scan


class TestJoins:
    def test_hash_join_symmetric_in_totals(self, cost):
        a = cost.hash_join(100, 10_000, 500)
        b = cost.hash_join(100, 10_000, 500)
        assert a == b

    def test_hash_prefers_small_build(self, cost):
        small_build = cost.hash_join(100, 10_000, 500)
        big_build = cost.hash_join(10_000, 100, 500)
        assert small_build < big_build

    def test_nested_loop_index_linear_in_outer(self, cost):
        assert cost.nested_loop_index(1000, 2) == pytest.approx(
            10 * cost.nested_loop_index(100, 2)
        )

    def test_nested_loop_scan_multiplies(self, cost):
        assert cost.nested_loop_scan(50, 10.0) == 500.0

    def test_merge_join_includes_sorts(self, cost):
        merge = cost.merge_join(1000, 1000, 100)
        assert merge > 2 * cost.sort(1000)

    def test_all_join_costs_monotone_in_output(self, cost):
        assert cost.hash_join(100, 100, 1000) > cost.hash_join(100, 100, 10)
        assert cost.merge_join(100, 100, 1000) > cost.merge_join(
            100, 100, 10
        )


class TestSortAggregate:
    def test_sort_superlinear(self, cost):
        assert cost.sort(10_000) > 10 * cost.sort(1000) * 0.9

    def test_sort_zero_rows(self, cost):
        assert cost.sort(0) == 0.0

    def test_aggregate_grows_with_input(self, cost):
        assert cost.hash_aggregate(10_000, 10) > cost.hash_aggregate(100, 10)

    def test_aggregate_grows_with_groups(self, cost):
        assert cost.hash_aggregate(1000, 1000) > cost.hash_aggregate(1000, 1)

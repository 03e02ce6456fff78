"""Tests for repro.stats.builder and repro.stats.cost."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.stats.builder import build_statistic
from repro.stats.cost import (
    STAT_FIXED_COST,
    statistic_build_cost,
    statistic_update_cost,
)
from repro.stats.statistic import StatKey

from tests.util import simple_db


class TestBuildStatistic:
    def test_single_column(self, db):
        stat = build_statistic(
            db.table("emp"), StatKey("emp", ("age",)), DEFAULT_CONFIG
        )
        assert stat.row_count == db.row_count("emp")
        assert stat.histogram.row_count == db.row_count("emp")
        assert len(stat.prefix_densities) == 1

    def test_multi_column_prefix_densities(self, db):
        stat = build_statistic(
            db.table("emp"),
            StatKey("emp", ("dept_id", "age")),
            DEFAULT_CONFIG,
        )
        d1, d2 = stat.prefix_densities
        # more columns can only increase distinct tuples -> smaller density
        assert d2 <= d1

    def test_density_matches_true_distinct(self, db):
        stat = build_statistic(
            db.table("emp"), StatKey("emp", ("dept_id",)), DEFAULT_CONFIG
        )
        true_ndv = len(np.unique(db.table("emp").column_array("dept_id")))
        assert stat.distinct_for_prefix(("dept_id",)) == pytest.approx(
            true_ndv
        )

    def test_histogram_leading_column_only(self, db):
        stat = build_statistic(
            db.table("emp"),
            StatKey("emp", ("age", "salary")),
            DEFAULT_CONFIG,
        )
        ages = db.table("emp").column_array("age")
        assert stat.histogram.min_value == ages.min()
        assert stat.histogram.max_value == ages.max()

    def test_build_cost_positive(self, db):
        stat = build_statistic(
            db.table("emp"), StatKey("emp", ("age",)), DEFAULT_CONFIG
        )
        assert stat.build_cost > 0

    def test_sampling_scales_counts(self, db):
        config = OptimizerConfig(sample_rows=50)
        stat = build_statistic(
            db.table("emp"), StatKey("emp", ("age",)), config
        )
        # scaled back up to full-table cardinality
        assert stat.histogram.counts.sum() == pytest.approx(
            db.row_count("emp"), rel=0.01
        )
        assert stat.histogram.row_count == db.row_count("emp")


class TestCostModel:
    def test_more_rows_cost_more(self):
        key = StatKey("t", ("a",))
        assert statistic_build_cost(10_000, key) > statistic_build_cost(
            100, key
        )

    def test_more_columns_cost_more(self):
        assert statistic_build_cost(
            1000, StatKey("t", ("a", "b"))
        ) > statistic_build_cost(1000, StatKey("t", ("a",)))

    def test_sampling_reduces_cost(self):
        key = StatKey("t", ("a",))
        assert statistic_build_cost(
            100_000, key, sample_rows=1000
        ) < statistic_build_cost(100_000, key)

    def test_update_equals_build(self):
        key = StatKey("t", ("a",))
        assert statistic_update_cost(5000, key) == statistic_build_cost(
            5000, key
        )

    def test_fixed_cost_floor(self):
        assert (
            statistic_build_cost(0, StatKey("t", ("a",))) >= STAT_FIXED_COST
        )

"""Tests for incremental histogram maintenance (paper ref [8])."""

import numpy as np
import pytest

from repro.catalog import ColumnRef
from repro.errors import StatisticsError
from repro.stats.histogram import build_maxdiff

from tests.util import simple_db

AGE = ColumnRef("emp", "age")


def _hist(values=None, buckets=10):
    if values is None:
        values = np.repeat(np.arange(20), 50)
    return build_maxdiff(np.asarray(values), buckets)


class TestAddValues:
    def test_row_count_advances(self):
        hist = _hist()
        before = hist.row_count
        hist.add_values([3, 4, 5])
        assert hist.row_count == before + 3

    def test_counts_absorb_values(self):
        hist = _hist()
        total_before = hist.counts.sum()
        hist.add_values([3, 3, 3])
        assert hist.counts.sum() == total_before + 3

    def test_estimates_track_inserts(self):
        values = np.repeat(np.arange(10), 100)
        hist = _hist(values, buckets=10)
        before = hist.selectivity_equal(5)
        hist.add_values(np.full(1000, 5))
        after = hist.selectivity_equal(5)
        assert after > before

    def test_out_of_range_values_extend_edges(self):
        hist = _hist(np.arange(100))
        hist.add_values([-50, 500])
        assert hist.min_value == -50
        assert hist.max_value == 500
        assert hist.selectivity_range(low=-60, high=600) == pytest.approx(
            1.0
        )

    def test_empty_input_noop(self):
        hist = _hist()
        before = hist.row_count
        hist.add_values([])
        assert hist.row_count == before

    def test_empty_histogram_rejected(self):
        hist = build_maxdiff(np.array([]), 5)
        with pytest.raises(StatisticsError):
            hist.add_values([1.0])


class TestNeedsRebuild:
    def test_fresh_histogram_never_needs_rebuild(self):
        assert not _hist().needs_rebuild()

    def test_stationary_inserts_do_not_trip(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 20, size=2000)
        hist = build_maxdiff(values, 10)
        hist.add_values(rng.integers(0, 20, size=500))
        assert not hist.needs_rebuild()

    def test_drifted_inserts_trip(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 20, size=2000)
        hist = build_maxdiff(values, 10)
        hist.add_values(np.full(500, 19))  # all mass in one bucket
        assert hist.needs_rebuild()

    def test_few_inserts_never_trip(self):
        hist = _hist()
        hist.add_values([19] * 5)
        assert not hist.needs_rebuild()


class TestManagerIntegration:
    def test_apply_incremental_inserts(self, db):
        db.stats.create(AGE)
        before_rows = db.stats.get(AGE).histogram.row_count
        cost = db.stats.apply_incremental_inserts(
            "emp", {"age": np.array([30, 31, 32])}
        )
        assert cost > 0
        assert db.stats.get(AGE).histogram.row_count == before_rows + 3
        assert db.stats.update_cost_total == cost

    def test_fold_is_copy_on_write(self, db):
        """An estimator reads a histogram it fetched earlier outside the
        shard lock: the fold must leave that object alone and hand the
        next lookup a new one with the folded counts."""
        db.stats.create(AGE)
        held = db.stats.histogram_for(AGE)
        arrays = (held.lows, held.highs, held.counts, held.distincts)
        before = [array.tobytes() for array in arrays]
        rows = held.row_count
        # out-of-range values stretch the boundary buckets as well
        db.stats.apply_incremental_inserts(
            "emp", {"age": np.array([-5, 30, 30, 31, 500])}
        )
        assert [array.tobytes() for array in arrays] == before
        assert held.row_count == rows
        fresh = db.stats.histogram_for(AGE)
        assert fresh is not held and fresh is db.stats.get(AGE).histogram
        assert fresh.row_count == rows + 5
        assert fresh.counts.sum() == held.counts.sum() + 5
        assert fresh.lows[0] == -5 and fresh.highs[-1] == 500
        # same arithmetic as the in-place fold
        held.add_values(np.array([-5, 30, 30, 31, 500]))
        for a, b in zip(arrays[:3], (fresh.lows, fresh.highs, fresh.counts)):
            assert a.tobytes() == b.tobytes()
        # the second fold keeps the first one's build-time baseline
        db.stats.apply_incremental_inserts("emp", {"age": np.full(500, 64)})
        assert db.stats.keys_needing_rebuild("emp")

    def test_uncovered_columns_ignored(self, db):
        db.stats.create(AGE)
        cost = db.stats.apply_incremental_inserts(
            "emp", {"salary": np.array([1.0])}
        )
        assert cost == 0.0

    def test_incremental_cheaper_than_refresh(self, db):
        db.stats.create(AGE)
        incr = db.stats.apply_incremental_inserts(
            "emp", {"age": np.arange(50)}
        )
        refresh = db.stats.refresh_table("emp")
        assert incr < refresh / 10

    def test_keys_needing_rebuild(self, db):
        db.stats.create(AGE)
        db.stats.apply_incremental_inserts(
            "emp", {"age": np.full(500, 64)}
        )
        assert db.stats.keys_needing_rebuild("emp")

    def test_rebuild_resets_trigger_and_counts_update(self, db):
        db.stats.create(AGE)
        db.stats.apply_incremental_inserts(
            "emp", {"age": np.full(500, 64)}
        )
        key = db.stats.keys_needing_rebuild("emp")[0]
        cost = db.stats.rebuild(key)
        assert cost > 0
        assert db.stats.get(key).update_count == 1
        assert not db.stats.keys_needing_rebuild("emp")

    def test_rebuild_missing_rejected(self, db):
        with pytest.raises(StatisticsError):
            db.stats.rebuild(AGE)

"""Tests for repro.stats.manager."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.catalog import ColumnRef
from repro.errors import StatisticsError
from repro.stats.manager import ensure_index_statistics
from repro.stats.statistic import StatKey

from tests.util import simple_db

AGE = ColumnRef("emp", "age")
SAL = ColumnRef("emp", "salary")
DEPT = ColumnRef("emp", "dept_id")


class TestLifecycle:
    def test_create_single(self, db):
        stat = db.stats.create(AGE)
        assert stat.key == StatKey("emp", ("age",))
        assert db.stats.has(AGE)

    def test_create_multi(self, db):
        stat = db.stats.create([DEPT, AGE])
        assert stat.key.columns == ("dept_id", "age")

    def test_create_duplicate_rejected(self, db):
        db.stats.create(AGE)
        with pytest.raises(StatisticsError):
            db.stats.create(AGE)

    def test_create_unknown_column_rejected(self, db):
        with pytest.raises(Exception):
            db.stats.create(ColumnRef("emp", "zzz"))

    def test_drop(self, db):
        db.stats.create(AGE)
        db.stats.drop(AGE)
        assert not db.stats.has(AGE)

    def test_drop_missing_rejected(self, db):
        with pytest.raises(StatisticsError):
            db.stats.drop(AGE)

    def test_get(self, db):
        created = db.stats.create(AGE)
        assert db.stats.get(AGE) is created

    def test_get_missing_rejected(self, db):
        with pytest.raises(StatisticsError):
            db.stats.get(AGE)

    def test_keys_on_table(self, db):
        db.stats.create(AGE)
        db.stats.create(ColumnRef("dept", "budget"))
        assert db.stats.keys_on_table("emp") == [StatKey("emp", ("age",))]

    def test_drop_all(self, db):
        db.stats.create(AGE)
        db.stats.create(SAL)
        db.stats.drop_all()
        assert db.stats.keys() == []

    def test_creation_cost_ledger(self, db):
        assert db.stats.creation_cost_total == 0.0
        db.stats.create(AGE)
        assert db.stats.creation_cost_total > 0
        db.stats.reset_cost_ledger()
        assert db.stats.creation_cost_total == 0.0


class TestDropList:
    def test_mark_and_revive(self, db):
        db.stats.create(AGE)
        db.stats.mark_droppable(AGE)
        assert db.stats.is_droppable(AGE)
        assert not db.stats.is_visible(StatKey("emp", ("age",)))
        db.stats.revive(AGE)
        assert db.stats.is_visible(StatKey("emp", ("age",)))

    def test_mark_missing_rejected(self, db):
        with pytest.raises(StatisticsError):
            db.stats.mark_droppable(AGE)

    def test_droplisted_hidden_from_estimator(self, db):
        db.stats.create(AGE)
        db.stats.mark_droppable(AGE)
        assert db.stats.histogram_for(AGE) is None

    def test_create_on_droplisted_revives_without_rebuild(self, db):
        db.stats.create(AGE)
        cost_after_first = db.stats.creation_cost_total
        db.stats.mark_droppable(AGE)
        db.stats.create(AGE)  # revive, not rebuild
        assert db.stats.creation_cost_total == cost_after_first
        assert db.stats.is_visible(StatKey("emp", ("age",)))

    def test_purge_drop_list(self, db):
        db.stats.create(AGE)
        db.stats.create(SAL)
        db.stats.mark_droppable(AGE)
        purged = db.stats.purge_drop_list()
        assert purged == [StatKey("emp", ("age",))]
        assert not db.stats.has(AGE)
        assert db.stats.has(SAL)

    def test_purge_forgets_the_ignored_name_like_drop_does(self, db):
        """Regression: a purged key used to stay in the ignore buffer, so
        the same statistic built again came back invisible."""
        key = StatKey("emp", ("age",))
        db.stats.create(AGE)
        db.stats.set_ignored([AGE])
        db.stats.mark_droppable(AGE)
        db.stats.purge_drop_list()
        assert all(
            key not in db.stats.shard(i).ignored()
            for i in range(db.stats.shard_count)
        )
        db.stats.create(AGE)
        assert db.stats.is_visible(key)
        assert db.stats.histogram_for(AGE) is not None

    def test_scope_exit_does_not_name_a_purged_statistic_again(self, db):
        key = StatKey("emp", ("age",))
        db.stats.create(AGE)
        db.stats.create(SAL)
        with db.stats.ignore_subset([AGE]):
            with db.stats.ignore_subset([SAL]):
                db.stats.mark_droppable(AGE)
                db.stats.purge_drop_list()
            # the inner scope's snapshot still named AGE
            assert not any(
                key in db.stats.shard(i).ignored()
                for i in range(db.stats.shard_count)
            )
        db.stats.create(AGE)
        assert db.stats.is_visible(key)


class TestIgnoreSubset:
    def test_scoped_hiding(self, db):
        db.stats.create(AGE)
        with db.stats.ignore_subset([AGE]):
            assert db.stats.histogram_for(AGE) is None
        assert db.stats.histogram_for(AGE) is not None

    def test_nested_scopes_restore(self, db):
        db.stats.create(AGE)
        db.stats.create(SAL)
        with db.stats.ignore_subset([AGE]):
            with db.stats.ignore_subset([SAL]):
                assert db.stats.histogram_for(SAL) is None
                assert db.stats.histogram_for(AGE) is None
            assert db.stats.histogram_for(SAL) is not None
            assert db.stats.histogram_for(AGE) is None

    def test_exception_restores(self, db):
        db.stats.create(AGE)
        try:
            with db.stats.ignore_subset([AGE]):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert db.stats.histogram_for(AGE) is not None

    def test_reshard_inside_a_scope_restores_by_key(self, db):
        """The scope exit must reach the shard that owns the key *now*:
        restoring by the shard ids captured at entry left the statistic
        hidden for ever in the shard it moved to."""
        db.stats.create(AGE)
        db.stats.create(SAL)
        db.stats.set_ignored([SAL])
        assert db.stats.shard_count == 1
        with db.stats.ignore_subset([AGE, SAL]):
            db.stats.reshard(3)
            assert db.stats.router.shard_of("emp") != 0
            assert db.stats.histogram_for(AGE) is None
        assert db.stats.histogram_for(AGE) is not None
        # hidden before the scope, so still hidden after it
        assert db.stats.histogram_for(SAL) is None
        ignored = set()
        for i in range(db.stats.shard_count):
            ignored |= db.stats.shard(i).ignored()
        assert ignored == {StatKey("emp", ("salary",))}
        with db.stats.ignore_subset([AGE]):
            db.stats.reshard(1)
        assert db.stats.histogram_for(AGE) is not None

    def test_set_and_clear(self, db):
        db.stats.create(AGE)
        db.stats.set_ignored([AGE])
        assert db.stats.visible_keys() == []
        db.stats.clear_ignored()
        assert db.stats.visible_keys() == [StatKey("emp", ("age",))]


class TestEstimatorLookups:
    def test_histogram_prefers_single_column(self, db):
        db.stats.create([AGE, SAL])
        multi_hist = db.stats.histogram_for(AGE)
        db.stats.create(AGE)
        single_hist = db.stats.histogram_for(AGE)
        assert single_hist is db.stats.get(AGE).histogram
        assert multi_hist is not None

    def test_histogram_from_leading_multicolumn(self, db):
        db.stats.create([AGE, SAL])
        assert db.stats.histogram_for(AGE) is not None
        assert db.stats.histogram_for(SAL) is None  # non-leading

    def test_density_for_columns_any_order(self, db):
        db.stats.create([DEPT, AGE])
        assert db.stats.density_for_columns("emp", {"age", "dept_id"}) is not None
        assert db.stats.density_for_columns("emp", {"dept_id"}) is not None

    def test_density_missing(self, db):
        assert db.stats.density_for_columns("emp", {"age"}) is None

    def test_distinct_for_columns(self, db):
        db.stats.create([DEPT])
        ndv = db.stats.distinct_for_columns("emp", {"dept_id"})
        true_ndv = len(
            np.unique(db.table("emp").column_array("dept_id"))
        )
        assert ndv == pytest.approx(true_ndv)


    def test_lookups_racing_the_drop_list_see_the_state_of_their_epoch(
        self, db
    ):
        """One thread flips the single-column statistic on and off the
        drop-list; a lookup bracketed by two equal epoch reads must
        return what was visible at that epoch — the single-column
        histogram, or the multi-column fallback while it is hidden."""
        stats = db.stats
        fallback = stats.create([AGE, SAL]).histogram
        single = stats.create(AGE).histogram
        visible_parity = stats.epoch % 2  # each flip bumps the epoch once
        stop = threading.Event()
        wrong = []
        checked = [0]

        def look_up():
            while not stop.is_set():
                before = stats.epoch
                found = stats.histogram_for(AGE)
                if stats.epoch != before:
                    continue
                checked[0] += 1
                hidden = before % 2 != visible_parity
                if found is not (fallback if hidden else single):
                    wrong.append((before, found))

        readers = [threading.Thread(target=look_up) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                stats.mark_droppable(AGE)
                stats.revive(AGE)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert checked[0] > 0
        assert wrong == []


class TestRefresh:
    def test_tables_needing_refresh(self, db):
        db.stats.create(AGE)
        assert db.stats.tables_needing_refresh() == []
        mask = np.ones(db.row_count("emp"), dtype=bool)
        db.update("emp", mask, {"age": 50})
        assert "emp" in db.stats.tables_needing_refresh()

    def test_refresh_resets_counter_and_counts_updates(self, db):
        db.stats.create(AGE)
        db.update(
            "emp", np.ones(db.row_count("emp"), dtype=bool), {"age": 50}
        )
        cost = db.stats.refresh_table("emp")
        assert cost > 0
        assert db.table("emp").rows_modified_since_stats == 0
        assert db.stats.get(AGE).update_count == 1
        assert db.stats.update_cost_total == cost

    def test_refresh_rebuilds_content(self, db):
        db.stats.create(AGE)
        db.update(
            "emp", np.ones(db.row_count("emp"), dtype=bool), {"age": 55}
        )
        db.stats.refresh_table("emp")
        hist = db.stats.get(AGE).histogram
        assert hist.selectivity_equal(55) == pytest.approx(1.0)

    def test_counter_exactly_at_trigger_is_due(self, db):
        """The boundary case: counter == fraction * rows triggers.

        SQL Server 7.0's rule is ``rows_modified >= max(1, fraction *
        row_count)`` — reaching the threshold exactly counts as due.
        """
        db.stats.create(AGE)
        rows = db.row_count("emp")
        fraction = 0.2
        trigger = int(fraction * rows)  # 40 for the 200-row emp table
        assert trigger == max(1, fraction * rows)

        mask = np.zeros(rows, dtype=bool)
        mask[: trigger - 1] = True
        db.update("emp", mask, {"age": 50})
        table = db.table("emp")
        assert table.rows_modified_since_stats == trigger - 1
        assert db.stats.tables_needing_refresh(fraction) == []

        one_more = np.zeros(rows, dtype=bool)
        one_more[trigger - 1] = True
        db.update("emp", one_more, {"age": 51})
        assert table.rows_modified_since_stats == trigger
        assert db.stats.tables_needing_refresh(fraction) == ["emp"]

    def test_tables_without_stats_not_due(self, db):
        db.update(
            "emp", np.ones(db.row_count("emp"), dtype=bool), {"age": 50}
        )
        assert db.stats.tables_needing_refresh() == []

    def test_update_cost_of_keys(self, db):
        db.stats.create(AGE)
        db.stats.create(SAL)
        one = db.stats.update_cost_of_keys([StatKey("emp", ("age",))])
        both = db.stats.update_cost_of_keys(db.stats.keys())
        assert both > one > 0


class TestEnsureIndexStatistics:
    def test_creates_stats_on_indexed_columns(self, db):
        db.indexes.create_index("idx_age", AGE)
        created = ensure_index_statistics(db)
        assert created == [StatKey("emp", ("age",))]
        assert db.stats.has(AGE)

    def test_idempotent(self, db):
        db.indexes.create_index("idx_age", AGE)
        ensure_index_statistics(db)
        assert ensure_index_statistics(db) == []

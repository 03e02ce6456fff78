"""Tests for the staleness monitor (repro.service.monitor)."""

import threading
import time
import warnings

import numpy as np

from repro.config import RefreshPolicy
from repro.feedback import FeedbackPolicy, FeedbackStore
from repro.feedback.observation import (
    FeedbackKey,
    OperatorObservation,
    q_error,
)
from repro.service.metrics import MetricsRegistry
from repro.service.monitor import StalenessMonitor
from repro.stats.statistic import StatKey

AGE = StatKey("emp", ("age",))
BUDGET = StatKey("dept", ("budget",))


def make_monitor(db, **kwargs) -> StalenessMonitor:
    return StalenessMonitor(
        db, MetricsRegistry(), threading.RLock(), **kwargs
    )


def touch_all_rows(db, table: str, assignments) -> None:
    mask = np.ones(db.row_count(table), dtype=bool)
    db.update(table, mask, assignments)


class TestRunOnce:
    def test_refreshes_due_table_and_resets_counter(self, db):
        db.stats.create(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        monitor = make_monitor(db)
        spent = monitor.run_once()
        assert spent > 0
        assert db.table("emp").rows_modified_since_stats == 0
        assert db.stats.get(AGE).update_count == 1
        assert monitor._metrics.counter("monitor.refreshes") == 1

    def test_nothing_due_spends_nothing(self, db):
        db.stats.create(AGE)
        monitor = make_monitor(db)
        assert monitor.run_once() == 0.0

    def test_budget_defers_tables(self, db):
        db.stats.create(AGE)
        db.stats.create(BUDGET)
        touch_all_rows(db, "emp", {"age": 44})
        touch_all_rows(db, "dept", {"budget": 1.0})
        # a budget so small the first refresh exhausts it
        monitor = make_monitor(db, budget_per_cycle=0.001)
        monitor.run_once()
        metrics = monitor._metrics
        assert metrics.counter("monitor.refreshes") == 1
        assert metrics.counter("monitor.deferred") == 1
        # the deferred table is picked up next cycle
        monitor.run_once()
        assert metrics.counter("monitor.refreshes") == 2

    def test_purge_drop_list_before_refresh(self, db):
        db.stats.create(AGE)
        db.stats.create(StatKey("emp", ("salary",)))
        db.stats.mark_droppable(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        monitor = make_monitor(db, purge_drop_list=True)
        monitor.run_once()
        assert not db.stats.has(AGE)  # purged, not refreshed
        assert db.stats.get(StatKey("emp", ("salary",))).update_count == 1
        assert monitor._metrics.counter("monitor.purged") == 1


class TestRefreshFailureBackoff:
    """Regression: a failing table refresh must not be silently skipped
    forever — the error is recorded, other tables still refresh, and the
    failing table is retried with exponential backoff."""

    def _failing_refresh(self, db, broken):
        """Patch ``refresh_table`` to raise for ``broken`` while a flag
        is set; returns the flag holder."""
        original = db.stats.refresh_table
        state = {"broken": True}

        def refresh_table(table):
            if table == broken and state["broken"]:
                raise RuntimeError(f"simulated I/O error on {table}")
            return original(table)

        db.stats.refresh_table = refresh_table
        return state

    def test_failure_recorded_and_other_tables_still_refresh(self, db):
        db.stats.create(AGE)
        db.stats.create(BUDGET)
        touch_all_rows(db, "emp", {"age": 44})
        touch_all_rows(db, "dept", {"budget": 1.0})
        self._failing_refresh(db, broken="emp")
        monitor = make_monitor(db)
        monitor.run_once()
        # dept was refreshed despite emp's failure earlier in the sweep
        assert db.stats.get(BUDGET).update_count == 1
        assert db.stats.get(AGE).update_count == 0
        assert len(monitor.errors) == 1
        assert "simulated I/O error" in str(monitor.errors[0])
        assert monitor._metrics.counter("monitor.refresh_errors") == 1
        # first failure: retry eligible two cycles later
        assert monitor.failed_tables() == {"emp": (1, 3)}

    def test_backoff_skips_then_retries_and_recovers(self, db):
        db.stats.create(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        state = self._failing_refresh(db, broken="emp")
        monitor = make_monitor(db)
        monitor.run_once()  # cycle 1: fails, eligible at cycle 3
        monitor.run_once()  # cycle 2: backed off, no new attempt
        metrics = monitor._metrics
        assert metrics.counter("monitor.backoff_skips") == 1
        assert len(monitor.errors) == 1
        state["broken"] = False  # the transient fault clears
        monitor.run_once()  # cycle 3: retried and succeeds
        assert db.stats.get(AGE).update_count == 1
        assert monitor.failed_tables() == {}
        assert metrics.counter("monitor.refreshes") == 1

    def test_backoff_doubles_on_repeated_failure(self, db):
        db.stats.create(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        self._failing_refresh(db, broken="emp")
        monitor = make_monitor(db)
        monitor.run_once()  # cycle 1: attempt 1, eligible at 3
        monitor.run_once()  # cycle 2: skipped
        monitor.run_once()  # cycle 3: attempt 2, eligible at 3 + 4
        assert monitor.failed_tables() == {"emp": (2, 7)}
        assert len(monitor.errors) == 2


class TestFeedbackPolicyIntegration:
    def _observe(self, store, table, columns, estimated, actual):
        observation = OperatorObservation(
            operator="scan",
            tables=(table,),
            targets=(FeedbackKey.of(table, columns),),
            estimated_rows=float(estimated),
            actual_rows=int(actual),
            q_error=q_error(estimated, actual),
        )
        store.record_all([observation])

    def test_qerror_policy_defers_accurate_churned_table(self, db):
        db.stats.create(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        store = FeedbackStore()
        policy = FeedbackPolicy(
            store, refresh_policy=RefreshPolicy.QERROR
        )
        monitor = make_monitor(db, policy=policy)
        # churn-due, but no observed misestimation: deferred
        assert monitor.run_once() == 0.0
        assert db.stats.get(AGE).update_count == 0
        # a bad estimate lands; the same churn now triggers a refresh
        self._observe(store, "emp", ("age",), 1000, 2)
        assert monitor.run_once() > 0.0
        assert db.stats.get(AGE).update_count == 1
        # refreshed table's aggregates were reset
        assert store.q_error_for_columns("emp", ("age",)) == 1.0
        assert store.counters()["resets"] == 1


class TestUpdateThresholdDeprecation:
    def test_fraction_path_does_not_warn(self, db):
        db.stats.create(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monitor = make_monitor(db, fraction=2.0)
            # churn below the trigger fraction is not due
            assert monitor.run_once() == 0.0
        assert monitor._fraction == 2.0
        assert db.stats.get(AGE).update_count == 0


class TestThreadLifecycle:
    def test_background_thread_refreshes_and_stops(self, db):
        db.stats.create(AGE)
        touch_all_rows(db, "emp", {"age": 44})
        monitor = make_monitor(db, poll_seconds=0.01)
        monitor.start()
        deadline = time.monotonic() + 5.0
        while (
            monitor._metrics.counter("monitor.refreshes") < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        monitor.stop(timeout=5.0)
        assert not monitor.is_alive()
        assert monitor._metrics.counter("monitor.refreshes") >= 1
        assert monitor.errors == []


class TestFairnessAndStarvation:
    def _make_both_due(self, db):
        db.stats.create(AGE)
        db.stats.create(BUDGET)
        touch_all_rows(db, "emp", {"age": 44})
        touch_all_rows(db, "dept", {"budget": 1.0})

    def test_deferred_table_is_refreshed_first_next_cycle(self, db):
        self._make_both_due(db)
        monitor = make_monitor(db, budget_per_cycle=0.001)
        monitor.run_once()  # name order: dept refreshed, emp deferred
        assert monitor.starved_tables() == {"emp": 1}
        monitor.run_once()  # emp outranks anything newly due
        assert monitor.starved_tables() == {}
        assert monitor._metrics.counter("monitor.refreshes") == 2
        assert monitor._metrics.counter("monitor.starved") == 0

    def test_starvation_counter_fires_at_the_bound(self, db):
        self._make_both_due(db)
        monitor = make_monitor(
            db, budget_per_cycle=0.001, starvation_cycles=1
        )
        monitor.run_once()
        assert monitor._metrics.counter("monitor.starved") == 1

    def test_table_leaving_the_due_set_drops_out_of_aging(self, db):
        self._make_both_due(db)
        monitor = make_monitor(db, budget_per_cycle=0.001)
        monitor.run_once()
        assert "emp" in monitor.starved_tables()
        # the deferred table is refreshed out-of-band; its age resets
        db.stats.refresh_table("emp")
        monitor.run_once()
        assert monitor.starved_tables() == {}


class TestShardOwnership:
    def test_monitor_refreshes_only_owned_tables(self, db):
        db.stats.reshard(2)
        router = db.stats.router
        db.stats.create(AGE)
        db.stats.create(BUDGET)
        touch_all_rows(db, "emp", {"age": 44})
        touch_all_rows(db, "dept", {"budget": 1.0})
        monitor = make_monitor(
            db, router=router, shard_id=router.shard_of("emp")
        )
        monitor.run_once()
        assert db.table("emp").rows_modified_since_stats == 0
        assert db.table("dept").rows_modified_since_stats > 0
        assert monitor._metrics.counter("monitor.refreshes") == 1

    def test_two_shard_monitors_cover_the_whole_database(self, db):
        db.stats.reshard(2)
        router = db.stats.router
        db.stats.create(AGE)
        db.stats.create(BUDGET)
        touch_all_rows(db, "emp", {"age": 44})
        touch_all_rows(db, "dept", {"budget": 1.0})
        for shard_id in range(2):
            make_monitor(
                db, router=router, shard_id=shard_id
            ).run_once()
        assert db.table("emp").rows_modified_since_stats == 0
        assert db.table("dept").rows_modified_since_stats == 0

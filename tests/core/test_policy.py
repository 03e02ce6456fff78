"""Tests for the Sec 6 policies: the maintenance pass's refresh and drop
rules (repro.service.monitor) and aging (repro.core.policy)."""

import sys
import threading

import numpy as np
import pytest

from repro.catalog import ColumnRef
from repro.config import ServiceConfig
from repro.core.policy import AgingPolicy
from repro.errors import PolicyError
from repro.service.metrics import MetricsRegistry
from repro.service.monitor import StalenessMonitor
from repro.stats.statistic import StatKey

AGE = ColumnRef("emp", "age")
AGE_KEY = StatKey("emp", ("age",))


def _modify_all(db, table="emp"):
    mask = np.ones(db.row_count(table), dtype=bool)
    db.update(table, mask, {"age": 41})


def _pass(db, **kwargs) -> StalenessMonitor:
    """An unstarted monitor: its ``run_once`` is the maintenance pass."""
    return StalenessMonitor(
        db, MetricsRegistry(), threading.RLock(), **kwargs
    )


def _dropped(maintenance) -> float:
    return maintenance._metrics.counter("monitor.dropped")


class TestAutoDropPolicy:
    """The SQL Server 7.0 refresh/drop rule, run by the pass."""

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(staleness_fraction=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(drop_after_refreshes=0)

    def test_refresh_triggered_by_counter(self, db):
        db.stats.create(AGE)
        _modify_all(db)
        maintenance = _pass(db)
        assert maintenance.run_once() > 0
        assert maintenance._metrics.counter("monitor.refreshes") == 1
        assert db.table("emp").rows_modified_since_stats == 0

    def test_no_refresh_below_threshold(self, db):
        db.stats.create(AGE)
        maintenance = _pass(db)
        assert maintenance.run_once() == 0.0
        assert maintenance._metrics.counter("monitor.refreshes") == 0

    def test_drop_after_max_updates_drop_list_only(self, db):
        db.stats.create(AGE)
        db.stats.mark_droppable(AGE)
        maintenance = _pass(db, drop_after_refreshes=2)
        for _ in range(3):
            _modify_all(db)
            maintenance.run_once()
        assert _dropped(maintenance) == 1
        assert not db.stats.has(AGE)

    def test_visible_statistics_protected_when_drop_list_only(self, db):
        db.stats.create(AGE)
        maintenance = _pass(db, drop_after_refreshes=1)
        for _ in range(3):
            _modify_all(db)
            maintenance.run_once()
        assert db.stats.has(AGE)
        assert _dropped(maintenance) == 0

    def test_vanilla_sql_server_mode_drops_any(self, db):
        """drop_list_only=False reproduces SQL Server 7.0 behaviour."""
        db.stats.create(AGE)
        aging = AgingPolicy(window=10)
        maintenance = _pass(
            db, drop_after_refreshes=1, drop_list_only=False, aging=aging
        )
        for _ in range(3):
            _modify_all(db)
            maintenance.run_once()
        assert not db.stats.has(AGE)
        assert _dropped(maintenance) == 1
        # every physical drop starts an aging window
        assert aging.recently_dropped() == [AGE_KEY]


class TestAgingPolicy:
    def test_validation(self):
        with pytest.raises(PolicyError):
            AgingPolicy(window=-1)

    def test_recent_drop_suppressed(self):
        aging = AgingPolicy(window=10)
        aging.tick(100)
        aging.record_drop(AGE_KEY)
        aging.tick(5)
        assert aging.suppresses(AGE_KEY, query_estimated_cost=1.0)

    def test_suppression_expires(self):
        aging = AgingPolicy(window=10)
        aging.tick(100)
        aging.record_drop(AGE_KEY)
        aging.tick(11)
        assert not aging.suppresses(AGE_KEY, query_estimated_cost=1.0)

    def test_expensive_query_overrides(self):
        """Sec 6: expensive queries must not suffer from aging."""
        aging = AgingPolicy(window=10, expensive_query_cost=1000.0)
        aging.tick(100)
        aging.record_drop(AGE_KEY)
        aging.tick(5)
        assert not aging.suppresses(AGE_KEY, query_estimated_cost=5000.0)
        assert aging.suppresses(AGE_KEY, query_estimated_cost=10.0)

    def test_never_dropped_never_suppressed(self):
        aging = AgingPolicy()
        aging.tick(5)
        assert not aging.suppresses(AGE_KEY, query_estimated_cost=1.0)

    def test_recently_dropped_listing(self):
        aging = AgingPolicy(window=10)
        aging.tick(100)
        aging.record_drop(AGE_KEY)
        aging.tick(5)
        assert aging.recently_dropped() == [AGE_KEY]
        aging.tick(95)
        assert aging.recently_dropped() == []

    def test_shared_clock_loses_no_tick(self):
        """Workers and passes of every shard share one policy: racing
        ticks, drops and suppression checks lose no clock update."""
        aging = AgingPolicy(window=10**6)
        threads, ticks = 8, 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(n):
                key = StatKey("emp", (f"c{n}",))
                for _ in range(ticks):
                    aging.tick()
                    aging.record_drop(key)
                    aging.suppresses(key, query_estimated_cost=1.0)

            workers = [
                threading.Thread(target=work, args=(n,))
                for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert aging.now == threads * ticks
        assert len(aging.recently_dropped()) == threads

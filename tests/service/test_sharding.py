"""Tests for the sharded service: routing, isolation, degradation."""

import threading

from repro.config import ServiceConfig
from repro.service import ServiceRequest, StatsService
from repro.sql.binder import parse_and_bind
from repro.stats import ShardRouter
from repro.stats.statistic import StatKey

JOIN_SQL = "SELECT COUNT(*) FROM emp, dept WHERE emp.dept_id = dept.id"


def make_service(db, **overrides) -> StatsService:
    defaults = dict(
        advisor_workers=0, staleness_poll_seconds=5.0, shards=2
    )
    defaults.update(overrides)
    return StatsService(db, ServiceConfig(**defaults))


def request(db, sql) -> ServiceRequest:
    return ServiceRequest(parse_and_bind(sql, db.schema))


class TestRouter:
    def test_round_robin_assignment_is_deterministic(self):
        router = ShardRouter(2, tables=("emp", "dept"))
        again = ShardRouter(2, tables=("dept", "emp"))
        assert router.assignment() == again.assignment()
        assert router.shard_of("dept") != router.shard_of("emp")

    def test_shard_ids_for_is_ascending(self):
        router = ShardRouter(3, tables=("a", "b", "c"))
        ids = router.shard_ids_for(("c", "a", "b"))
        assert ids == tuple(sorted(ids))

    def test_unseen_tables_are_assigned_on_demand(self):
        router = ShardRouter(2)
        first = router.shard_of("late")
        assert router.shard_of("late") == first


class TestShardedStatistics:
    def test_epoch_isolation_across_shards(self, db):
        stats = db.stats
        stats.reshard(2)
        emp_before = stats.versions_for(("emp",))
        dept_before = stats.versions_for(("dept",))
        stats.create(StatKey("emp", ("age",)))
        assert stats.versions_for(("emp",)) != emp_before
        assert stats.versions_for(("dept",)) == dept_before

    def test_dml_bumps_only_the_owning_shard(self, db):
        stats = db.stats
        stats.reshard(2)
        emp_before = stats.versions_for(("emp",))
        dept_before = stats.versions_for(("dept",))
        db.delete("emp", db.table("emp").column_array("age") == 30)
        assert stats.versions_for(("emp",)) != emp_before
        assert stats.versions_for(("dept",)) == dept_before

    def test_reshard_moves_no_version_and_keeps_the_count(self, db):
        stats = db.stats
        stats.create(StatKey("emp", ("age",)))
        stats.create(StatKey("dept", ("budget",)))
        before = stats.versions_for(("emp", "dept"))
        epoch = stats.epoch
        stats.reshard(2)
        assert stats.versions_for(("emp", "dept")) == before
        assert stats.epoch == epoch
        stats.reshard(1)
        assert stats.versions_for(("emp", "dept")) == before
        assert stats.epoch == epoch

    def test_reshard_preserves_statistics(self, db):
        stats = db.stats
        key = StatKey("emp", ("age",))
        stats.create(key)
        stats.reshard(4)
        assert stats.has(key)
        assert stats.is_visible(key)
        stats.reshard(1)
        assert stats.has(key)


class TestShardedSubmitPath:
    def test_single_shard_fast_path(self, db):
        with make_service(db) as service:
            response = service.submit(
                request(db, "SELECT COUNT(*) FROM emp WHERE age > 30")
            )
            assert len(response.shard_ids) == 1
            assert service.metrics.counter("service.shard.single") == 1
            assert service.metrics.counter("service.shard.multi") == 0

    def test_cross_shard_query_takes_every_involved_shard(self, db):
        with make_service(db) as service:
            response = service.submit(request(db, JOIN_SQL))
            assert response.shard_ids == service.router.shard_ids_for(
                ("emp", "dept")
            )
            assert len(response.shard_ids) == 2
            assert service.metrics.counter("service.shard.multi") == 1

    def test_dml_routes_to_the_owning_shard(self, db):
        with make_service(db) as service:
            response = service.submit(
                request(db, "DELETE FROM emp WHERE age = 30")
            )
            assert response.shard_ids == (
                service.router.shard_of("emp"),
            )

    def test_shards_have_independent_capture_segments(self, db):
        with make_service(db) as service:
            service.submit(
                request(db, "SELECT COUNT(*) FROM emp WHERE age > 30")
            )
            service.submit(
                request(db, "SELECT COUNT(*) FROM dept WHERE budget > 0")
            )
            emp_log = service.shards[service.router.shard_of("emp")].log
            dept_log = service.shards[service.router.shard_of("dept")].log
            assert len(emp_log) == 1
            assert len(dept_log) == 1

    def test_concurrent_cross_shard_load_never_deadlocks(self, db):
        """Joins (multi-shard), single-table queries, and DML hammer the
        service from many threads; everything must finish."""
        statements = [
            JOIN_SQL,
            "SELECT COUNT(*) FROM emp WHERE age > 30",
            "SELECT COUNT(*) FROM dept WHERE budget > 0",
            "UPDATE emp SET age = 44 WHERE age > 60",
        ]
        with make_service(db) as service:
            errors = []

            def client(offset: int):
                try:
                    for i in range(10):
                        sql = statements[(offset + i) % len(statements)]
                        service.submit(request(db, sql))
                except BaseException as exc:  # surface in the assertion
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(n,))
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            alive = [t for t in threads if t.is_alive()]
            assert alive == [], "threads deadlocked"
            assert errors == []
        assert service.metrics.counter("service.queries") == 30
        assert service.metrics.counter("service.dml_statements") == 10


class TestGracefulDegradation:
    def test_engages_at_high_water_and_releases_at_low(self, db):
        with make_service(
            db,
            shards=1,
            degraded_backlog_high=2,
            degraded_backlog_low=0,
        ) as service:
            sql = "SELECT COUNT(*) FROM emp WHERE age > 40"
            first = service.submit(request(db, sql))
            second = service.submit(request(db, sql))
            assert not first.degraded and not second.degraded
            # backlog is now 2 (capture-only mode: nothing drains it)
            third = service.submit(request(db, sql))
            assert third.degraded
            assert third.result.actual_cost > 0  # still executes
            assert service.metrics.counter("service.degraded") == 1
            # hysteresis: still degraded while the backlog sits above low
            fourth = service.submit(request(db, sql))
            assert fourth.degraded
            # drain the backlog by hand and degradation disengages
            service.shards[0].log.take(10)
            fifth = service.submit(request(db, sql))
            assert not fifth.degraded
            assert (
                service.metrics.gauge_value("service.degraded_active") == 0
            )

    def test_degraded_queries_leave_no_capture_events(self, db):
        with make_service(
            db,
            shards=1,
            degraded_backlog_high=1,
            degraded_backlog_low=0,
        ) as service:
            sql = "SELECT COUNT(*) FROM emp WHERE age > 40"
            service.submit(request(db, sql))  # fills the backlog to 1
            before = service.metrics.counter("capture.events")
            degraded = service.submit(request(db, sql))
            assert degraded.degraded
            assert service.metrics.counter("capture.events") == before

    def test_degraded_queries_feed_no_store(self, db):
        """A degraded plan's estimates are magic numbers: executing it
        must neither charge q-error to statistics targets nor train
        corrections."""
        with make_service(
            db,
            shards=1,
            degraded_backlog_high=1,
            degraded_backlog_low=0,
            feedback_enabled=True,
            learned_enabled=True,
        ) as service:
            sql = "SELECT COUNT(*) FROM emp WHERE age > 40"
            service.submit(request(db, sql))  # fills the backlog to 1
            store = service.feedback
            # hits / misses count the planner's correction reads, which a
            # degraded plan makes none of
            before, version = store.counters(), store.version
            assert before["observations"] > 0
            degraded = service.submit(request(db, sql))
            assert degraded.degraded
            assert degraded.result.actual_cost > 0  # it did execute
            assert store.counters() == before
            assert service.corrections.version == version

    def test_degradation_disabled_by_default(self, db):
        with make_service(db, shards=1) as service:
            sql = "SELECT COUNT(*) FROM emp WHERE age > 40"
            for _ in range(5):
                response = service.submit(request(db, sql))
                assert not response.degraded
            assert service.metrics.counter("service.degraded") == 0

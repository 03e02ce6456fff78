"""Tests for the StatsService facade (repro.service.service)."""

import pytest

from repro.config import ServiceConfig
from repro.errors import ServiceError
from repro.service import ServiceRequest, StatsService
from repro.sql.binder import parse_and_bind
from repro.stats.statistic import StatKey


def make_service(db, **overrides) -> StatsService:
    defaults = dict(
        advisor_workers=2,
        advisor_poll_seconds=0.01,
        staleness_poll_seconds=0.02,
    )
    defaults.update(overrides)
    return StatsService(db, ServiceConfig(**defaults))


def submit(service, sql):
    """Run one SQL statement through the typed request surface."""
    request = ServiceRequest(parse_and_bind(sql, service.database.schema))
    return service.submit(request).result


class TestLifecycle:
    def test_submit_before_start_raises(self, db):
        service = make_service(db)
        with pytest.raises(ServiceError):
            submit(service, "SELECT COUNT(*) FROM emp")

    def test_double_start_raises(self, db):
        service = make_service(db).start()
        try:
            with pytest.raises(ServiceError):
                service.start()
        finally:
            service.stop()

    def test_stop_is_idempotent(self, db):
        service = make_service(db).start()
        service.stop()
        service.stop()
        assert not service.started

    def test_capture_only_mode_does_not_hang(self, db):
        """Zero advisor workers: drain/stop return instead of waiting
        on a log nobody will ever drain."""
        with make_service(db, advisor_workers=0) as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            assert service.drain(timeout=1.0)
        assert not service.started
        assert service.metrics.counter("capture.events") == 1
        assert service.created_off_path == []

    def test_context_manager_starts_and_stops(self, db):
        with make_service(db) as service:
            assert service.started
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 30")
        assert not service.started


class TestSubmitPath:
    def test_query_returns_execution_result(self, db):
        with make_service(db) as service:
            result = submit(service, 
                "SELECT COUNT(*) FROM emp WHERE age > 30"
            )
            assert result.actual_cost > 0
            assert service.metrics.counter("service.queries") == 1

    def test_plan_only_mode(self, db):
        with make_service(db, execute_queries=False) as service:
            result = submit(service, 
                "SELECT COUNT(*) FROM emp WHERE age > 30"
            )
            assert hasattr(result, "plan")
            assert (
                service.metrics.counter("service.execution_cost") == 0
            )

    def test_dml_returns_affected_rows(self, db):
        with make_service(db) as service:
            affected = submit(service, "DELETE FROM emp WHERE age = 30")
            assert affected > 0
            assert (
                service.metrics.counter("service.rows_modified")
                == affected
            )

    def test_sessions_track_their_own_counts(self, db):
        with make_service(db) as service:
            a, b = service.session(), service.session()
            a.submit("SELECT COUNT(*) FROM emp WHERE age > 30")
            a.submit("DELETE FROM emp WHERE age = 21")
            b.submit("SELECT COUNT(*) FROM dept WHERE budget > 0")
            assert (a.statements, a.queries, a.dml) == (2, 1, 1)
            assert (b.statements, b.queries, b.dml) == (1, 1, 0)
            assert a.session_id != b.session_id


class TestBackgroundAdvisor:
    def test_statistics_created_off_the_query_path(self, db):
        with make_service(db, creation_policy="mnsa") as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            assert service.drain(timeout=30.0)
            created = service.created_off_path
        assert created, "advisor workers built nothing"
        assert service.metrics.counter("advisor.stats_created") >= 1
        assert service.worker_errors() == []
        # the created statistics are actually visible to the optimizer
        for key in created:
            assert db.stats.is_visible(key)

    def test_covered_queries_are_skipped(self, db):
        with make_service(db) as service:
            submit(service, "SELECT COUNT(*) FROM emp")  # no predicates
            assert service.drain(timeout=30.0)
            assert service.metrics.counter("advisor.skipped") == 1
            assert service.metrics.counter("advisor.stats_created") == 0

    def test_mnsad_drop_lists_useless_statistics(self, db):
        with make_service(db, creation_policy="mnsad") as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            submit(service, 
                "SELECT COUNT(*) FROM emp WHERE salary > 100000"
            )
            assert service.drain(timeout=30.0)
        total = service.metrics.counter("advisor.stats_created")
        listed = service.metrics.counter("advisor.stats_drop_listed")
        assert total >= 1
        assert 0 <= listed <= total

    def test_final_metrics_dump_has_service_sections(self, db):
        with make_service(db) as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            service.drain(timeout=30.0)
        text = service.metrics_text()
        assert "service.queries 1" in text
        assert "stats.visible" in text
        assert "capture.events 1" in text


class TestStalenessIntegration:
    def test_dml_triggers_background_refresh(self, db):
        db.stats.create(StatKey("emp", ("age",)))
        with make_service(db, staleness_fraction=0.05) as service:
            submit(service, "UPDATE emp SET age = 44 WHERE age > 20")
            # stop() runs a final monitor pass, so no sleep is needed
        assert service.metrics.counter("monitor.refreshes") >= 1
        assert db.table("emp").rows_modified_since_stats == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("capture_capacity", 0),
            ("advisor_workers", -1),
            ("advisor_batch_size", 0),
            ("advisor_poll_seconds", 0.0),
            ("creation_policy", "bogus"),
            ("drop_after_refreshes", 0),
            ("aging_window", -1),
            ("staleness_fraction", 0.0),
            ("staleness_fraction", 1.5),
            ("staleness_poll_seconds", -1.0),
            ("refresh_budget_per_cycle", 0.0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServiceConfig(**{field: value})


class TestFeedbackLoop:
    def test_feedback_off_by_default(self, db):
        service = make_service(db)
        assert service.feedback is None
        assert service.feedback_policy is None

    def test_observations_flow_into_the_store(self, db):
        with make_service(db, feedback_enabled=True) as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            service.drain(timeout=30.0)
        assert service.feedback.counters()["observations"] >= 1
        assert service.feedback.q_error_for_columns("emp", ["age"]) >= 1.0
        assert (
            service.metrics.gauge_value("feedback.observations") >= 1
        )

    def test_misestimated_plan_queues_a_retune(self, db):
        # thresholds of 1.0 make any estimation error retune-worthy, so
        # the first executed query exercises the full retune path
        with make_service(
            db,
            feedback_enabled=True,
            refresh_policy="qerror",
            qerror_refresh_threshold=1.0,
            qerror_retune_threshold=1.0,
        ) as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            service.drain(timeout=30.0)
        metrics = service.metrics
        assert metrics.counter("feedback.retunes_requested") >= 1
        assert metrics.counter("advisor.retunes") >= 1

    def test_same_plan_retunes_once_per_epoch(self, db):
        with make_service(
            db,
            feedback_enabled=True,
            advisor_workers=0,  # capture only: the epoch never moves
            qerror_refresh_threshold=1.0,
            qerror_retune_threshold=1.0,
        ) as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
        assert service.metrics.counter("feedback.retunes_requested") == 1

    def test_a_write_to_another_table_does_not_rearm_the_retune(self, db):
        with make_service(
            db,
            feedback_enabled=True,
            advisor_workers=0,
            qerror_refresh_threshold=1.0,
            qerror_retune_threshold=1.0,
        ) as service:
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
            submit(
                service,
                "INSERT INTO dept (id, dname, budget) VALUES (999, 'x', 1.0)",
            )
            submit(service, "SELECT COUNT(*) FROM emp WHERE age > 40")
        assert service.metrics.counter("feedback.retunes_requested") == 1

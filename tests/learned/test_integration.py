"""Learned corrections wired through optimizer, plan cache, monitor,
advisor re-tune, and service."""

import threading

import numpy as np
import pytest

from repro.config import RefreshPolicy, ServiceConfig
from repro.feedback import (
    FeedbackKey,
    FeedbackPolicy,
    FeedbackStore,
    OperatorObservation,
    q_error,
)
from repro.optimizer import Optimizer
from repro.optimizer.cache import OptimizationRequest, PlanCache
from repro.service import MetricsRegistry, StalenessMonitor, StatsService
from repro.service.events import QueryEvent
from repro.service.worker import AdvisorWorker
from repro.sql.builder import QueryBuilder
from repro.stats.statistic import StatKey

AGE = StatKey("emp", ("age",))


def observation(
    operator="scan", table="emp", columns=("age",), estimated=10.0, actual=1000
):
    return OperatorObservation(
        operator=operator,
        tables=(table,),
        targets=(FeedbackKey.of(table, columns),),
        estimated_rows=estimated,
        actual_rows=actual,
        q_error=q_error(estimated, actual),
    )


def trained_store(**kwargs) -> FeedbackStore:
    store = FeedbackStore(corrections=True, **kwargs)
    store.record_all([observation()])
    return store


def filter_query(db):
    return (
        QueryBuilder(db.schema).where("emp.age", "<", 30).build()
    )


def join_query(db):
    return (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "<", 30)
        .build()
    )


class TestOptimizerIntegration:
    def test_trained_corrections_change_the_estimate(self, db):
        query = filter_query(db)
        plain = Optimizer(db).optimize(query)
        corrected = Optimizer(
            db, corrections=trained_store()
        ).optimize(query)
        # a 100x underestimate correction must move the cardinality
        assert corrected.rows > plain.rows

    def test_untrained_store_changes_nothing(self, db):
        query = filter_query(db)
        plain = Optimizer(db).optimize(query)
        corrected = Optimizer(
            db, corrections=FeedbackStore(corrections=True)
        ).optimize(query)
        assert corrected.cost == plain.cost
        assert corrected.plan.rows == plain.plan.rows

    def test_magic_variables_ignore_corrections(self, db):
        query = join_query(db)
        assert Optimizer(
            db, corrections=trained_store()
        ).magic_variables(query) == Optimizer(db).magic_variables(query)


class TestPlanCacheKeying:
    def test_corrected_and_plain_plans_never_alias(self, db):
        """The pin for the cache-key contract: two optimizers sharing one
        cache, one corrected and one not, must each take their own cold
        miss, then hit only their own entries — and a correction-version
        bump must force the corrected side (only) to re-optimize."""
        cache = PlanCache()
        store = trained_store()
        plain = Optimizer(db, cache=cache)
        corrected = Optimizer(db, cache=cache, corrections=store)
        query = filter_query(db)

        plain.optimize(query)
        assert cache.counters()["misses"] == 1
        corrected.optimize(query)  # must NOT reuse the plain plan
        assert cache.counters()["misses"] == 2
        assert cache.counters()["hits"] == 0
        corrected.optimize(query)  # same version: now it hits
        assert cache.counters()["hits"] == 1

        store.invalidate("emp")  # version bump
        corrected.optimize(query)  # corrected side re-optimizes
        assert cache.counters()["misses"] == 3
        plain.optimize(query)  # the plain entry is untouched
        assert cache.counters()["hits"] == 2

    def test_a_degraded_request_plans_uncorrected_under_a_fixed_key(self, db):
        """A degraded plan's selectivities are magic numbers: no learned
        factor applies to them, and no version move may re-plan them."""
        cache = PlanCache()
        store = trained_store()
        corrected = Optimizer(db, cache=cache, corrections=store)
        request = OptimizationRequest(filter_query(db), degraded=True)
        plain = Optimizer(db).optimize_request(request)
        first = corrected.optimize_request(request)
        assert (first.cost, first.rows) == (plain.cost, plain.rows)
        assert cache.counters()["misses"] == 1
        store.invalidate("emp")  # version bump
        store.record_all([observation()])
        assert corrected.optimize_request(request) is first
        assert cache.counters()["misses"] == 1

    def test_explicit_learned_component_is_respected(self, db):
        query = filter_query(db)
        request = OptimizationRequest(query, learned=3)
        assert request.with_learned_version(3) is request
        other = request.with_learned_version(4)
        assert other != request
        assert hash(other) != hash(request)


class TestInvalidationPins:
    def test_monitor_refresh_drops_the_tables_corrections(self, db):
        db.stats.create(AGE)
        mask = np.ones(db.row_count("emp"), dtype=bool)
        db.update("emp", mask, {"age": 44})  # make emp due for refresh
        store = trained_store()
        assert store.correct_filter("emp", ("age",), 0.001) != (
            pytest.approx(0.001)
        )
        monitor = StalenessMonitor(
            db,
            MetricsRegistry(),
            threading.RLock(),
            policy=FeedbackPolicy(store, refresh_policy=RefreshPolicy.CHURN),
        )
        version = store.version
        assert monitor.run_once() > 0
        # identity restored, version moved: cached corrected plans die
        assert store.correct_filter("emp", ("age",), 0.001) == (
            pytest.approx(0.001)
        )
        assert store.version == version + 1
        assert len(store) == 0

    def test_retune_rebuild_drops_the_tables_corrections(self, db):
        db.stats.create(AGE)
        service = StatsService(
            db,
            ServiceConfig(
                feedback_enabled=True,
                learned_enabled=True,
                qerror_refresh_threshold=2.0,
            ),
        )
        store = service.corrections
        assert store is service.feedback
        store.record_all([observation()])  # q-error 100 on emp.age
        version = store.version
        worker = AdvisorWorker(service, service.shards[0])
        event = QueryEvent(
            seq=0,
            query=filter_query(db),
            estimated_cost=1.0,
            magic_variable_count=0,
            tables=("emp",),
            retune=True,
            worst_q_error=100.0,
        )
        worker._retune(event)
        assert db.stats.get(AGE).update_count == 1
        assert store.correct_filter("emp", ("age",), 0.001) == (
            pytest.approx(0.001)
        )
        assert store.version == version + 1
        assert store.q_error_for_columns("emp", ("age",)) == 1.0


class TestServiceWiring:
    def test_learned_service_trains_and_reports(self, db):
        config = ServiceConfig(
            advisor_workers=0,
            feedback_enabled=True,
            learned_enabled=True,
        )
        with StatsService(db, config) as service:
            assert service.corrections is not None
            session = service.session()
            session.submit("SELECT COUNT(*) FROM emp WHERE age > 40")
        counters = service.corrections.counters()
        assert counters["observations"] > 0
        assert counters["hits"] + counters["misses"] > 0
        assert "correction.version" in service.metrics_text()

    def test_learned_off_leaves_no_store(self, db):
        service = StatsService(
            db, ServiceConfig(advisor_workers=0)
        )
        assert service.corrections is None
        # feedback alone keeps a store that learns no corrections
        service = StatsService(
            db, ServiceConfig(advisor_workers=0, feedback_enabled=True)
        )
        assert service.corrections is None
        assert service.feedback.corrections is False

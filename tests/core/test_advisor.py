"""Tests for the lock-step driver of the online regime
(repro.service.lockstep) and the offline regime (core.shrinking)."""

import pytest

from repro.config import ServiceConfig
from repro.core.mnsa import MnsaConfig
from repro.core.shrinking import offline_tune
from repro.backends.memory import MemoryBackend
from repro.errors import ServiceError
from repro.optimizer.optimizer import Optimizer
from repro.service import LockStepAdvisor, StatsService
from repro.sql.builder import QueryBuilder
from repro.sql.query import DmlStatement
from repro.workload import generate_workload


def _query(db):
    return (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "=", 30)
        .build()
    )


def _advisor(db, mnsa_config=None, **config):
    return LockStepAdvisor(db, ServiceConfig(**config), mnsa_config)


class TestOnlineModes:
    def test_none_policy_creates_nothing(self, db):
        """No creation policy is capture-only: a service without advisor
        workers executes the query and builds no statistic."""
        with StatsService(db, ServiceConfig(advisor_workers=0)) as service:
            service.session().submit_statement(_query(db))
        assert service.created_off_path == []
        assert db.stats.keys() == []

    def test_syntactic_policy_creates_all_singles(self, db):
        """SQL Server 7.0 auto-statistics behaviour."""
        advisor = _advisor(db, creation_policy="syntactic")
        advisor.process_statement(_query(db))
        created = {str(k) for k in advisor.report().created}
        assert created == {"emp.age", "emp.dept_id", "dept.id"}

    def test_mnsa_policy(self, db):
        advisor = _advisor(db, creation_policy="mnsa")
        advisor.process_statement(_query(db))
        assert advisor.report().creation_cost > 0

    def test_mnsad_policy_maintains_droplist(self, db):
        advisor = _advisor(
            db,
            MnsaConfig(t_percent=1e-9),
            creation_policy="mnsad",
        )
        advisor.process_statement(_query(db))
        # created stats are split between visible and drop-listed
        assert set(db.stats.keys()) == set(
            db.stats.visible_keys()
        ) | set(db.stats.drop_list())

    def test_queries_executed_and_cost_recorded(self, db):
        advisor = _advisor(db)
        result = advisor.process_statement(_query(db))
        assert result.actual_cost > 0
        assert advisor.report().execution_cost == result.actual_cost

    def test_execute_queries_false_returns_plan(self, db):
        advisor = _advisor(db, execute_queries=False)
        result = advisor.process_statement(_query(db))
        assert hasattr(result, "plan")
        assert advisor.report().execution_cost == 0.0

    def test_dml_advances_counters_and_policy(self, db):
        db.stats.create(_query(db).relevant_columns()[0])
        advisor = _advisor(db, staleness_fraction=0.01)
        dml = DmlStatement(
            kind="update",
            table="emp",
            predicate=None,
            assignments={"age": 44},
        )
        advisor.process_statement(dml)
        metrics = advisor.service.metrics
        assert metrics.counter("monitor.refreshes") == 1
        assert advisor.report().update_cost > 0

    def test_unknown_statement_rejected(self, db):
        advisor = _advisor(db)
        with pytest.raises(ServiceError):
            advisor.process_statement("SELECT 1")

    def test_run_workload(self, fresh_tpcd_db):
        db = fresh_tpcd_db()
        workload = generate_workload(db, "U25-S-100")
        advisor = _advisor(db)
        report = advisor.run_workload(workload.statements[:30])
        assert report.statements == 30
        assert report.execution_cost > 0


class TestAging:
    def test_aging_suppresses_recreation(self, db):
        advisor = _advisor(
            db,
            creation_policy="syntactic",
            aging_window=100,
            staleness_fraction=0.01,
            drop_after_refreshes=1,
            drop_list_only=False,
        )
        query = _query(db)
        advisor.process_statement(query)
        # churn the table so the pass refreshes twice and drops
        dml = DmlStatement(
            kind="update", table="emp", assignments={"age": 50}
        )
        for _ in range(3):
            advisor.process_statement(dml)
        dropped = set(advisor.service.aging.recently_dropped())
        assert dropped
        assert advisor.report().dropped
        advisor.process_statement(query)
        # aged-out statistics were not recreated immediately
        assert not any(db.stats.has(key) for key in dropped)


class TestIncrementalMaintenance:
    def test_inserts_maintained_without_full_refresh(self, db):
        from repro.catalog import ColumnRef

        db.stats.create(ColumnRef("dept", "budget"))
        advisor = _advisor(
            db, staleness_fraction=0.01, incremental_maintenance=True
        )
        rows_before = db.stats.get(
            ColumnRef("dept", "budget")
        ).histogram.row_count
        dml = DmlStatement(
            kind="insert",
            table="dept",
            rows=tuple(
                {"id": 100 + i, "dname": f"d{i}", "budget": 500_000.0}
                for i in range(5)
            ),
        )
        advisor.process_statement(dml)
        hist = db.stats.get(ColumnRef("dept", "budget")).histogram
        assert hist.row_count == rows_before + 5
        assert advisor.report().update_cost > 0
        # the counter was credited, so no counter-driven refresh looms
        assert db.table("dept").rows_modified_since_stats == 0
        assert advisor.service.metrics.counter("monitor.refreshes") == 0

    def test_updates_still_use_drop_policy(self, db):
        from repro.catalog import ColumnRef

        db.stats.create(ColumnRef("emp", "age"))
        advisor = _advisor(
            db, staleness_fraction=0.01, incremental_maintenance=True
        )
        dml = DmlStatement(
            kind="update", table="emp", assignments={"age": 44}
        )
        advisor.process_statement(dml)
        assert advisor.service.metrics.counter("monitor.refreshes") == 1


class TestOfflineTune:
    def test_offline_tune_leaves_essential_set(self, fresh_tpcd_db):
        db = fresh_tpcd_db()
        workload = generate_workload(db, "U0-S-100")
        backend = MemoryBackend(db, Optimizer(db))
        created, shrink = offline_tune(backend, workload.queries()[:10])
        assert set(db.stats.visible_keys()) == set(shrink.essential)
        assert created.created

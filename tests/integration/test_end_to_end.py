"""End-to-end integration: full pipeline over skewed TPC-D."""

import pytest

from repro.backends.memory import MemoryBackend
from repro.core.mnsa import mnsa_for_workload
from repro.core.mnsad import mnsad_for_workload
from repro.core.shrinking import shrinking_set
from repro.core.candidates import workload_candidate_statistics
from repro.executor import Executor
from repro.executor.dml import apply_dml
from repro.optimizer import Optimizer
from repro.workload import generate_workload


def _workload_execution_cost(db, queries):
    opt, exe = Optimizer(db), Executor(db)
    return sum(
        exe.execute(opt.optimize(q).plan, q).actual_cost for q in queries
    )


class TestFullPipeline:
    def test_statistics_do_not_change_results(self, fresh_tpcd_db):
        """Query answers are identical with and without statistics —
        only plans (and costs) change."""
        db = fresh_tpcd_db()
        opt, exe = Optimizer(db), Executor(db)
        queries = generate_workload(db, "U0-C-100").queries()[:10]
        before = [
            sorted(exe.execute(opt.optimize(q).plan, q).rows())
            for q in queries
        ]
        mnsa_for_workload(MemoryBackend(db, opt), queries)
        after = [
            sorted(exe.execute(opt.optimize(q).plan, q).rows())
            for q in queries
        ]
        assert before == after

    def test_mnsa_reduces_creation_cost_vs_all_candidates(
        self, fresh_tpcd_db
    ):
        """The Figure 4 effect, qualitatively."""
        db_all = fresh_tpcd_db(z=2.0)
        db_mnsa = fresh_tpcd_db(z=2.0)
        queries = generate_workload(db_all, "U0-S-100").queries()[:20]

        for key in workload_candidate_statistics(queries):
            db_all.stats.create(key)
        all_cost = db_all.stats.creation_cost_total

        result = mnsa_for_workload(
            MemoryBackend(db_mnsa, Optimizer(db_mnsa)), queries
        )
        assert result.creation_cost < all_cost

    def test_mnsa_execution_cost_close_to_full(self, fresh_tpcd_db):
        """Skipping non-essential statistics must not blow up execution
        cost (paper: <= 2%; we allow generous slack for the small scale)."""
        db_all = fresh_tpcd_db(z=2.0)
        db_mnsa = fresh_tpcd_db(z=2.0)
        queries_all = generate_workload(db_all, "U0-S-100").queries()[:15]
        queries_mnsa = generate_workload(db_mnsa, "U0-S-100").queries()[:15]

        for key in workload_candidate_statistics(queries_all):
            db_all.stats.create(key)
        mnsa_for_workload(
            MemoryBackend(db_mnsa, Optimizer(db_mnsa)), queries_mnsa
        )

        full_cost = _workload_execution_cost(db_all, queries_all)
        mnsa_cost = _workload_execution_cost(db_mnsa, queries_mnsa)
        assert mnsa_cost <= full_cost * 1.25

    def test_mnsa_then_shrinking_preserves_plans(self, fresh_tpcd_db):
        db = fresh_tpcd_db()
        opt = Optimizer(db)
        queries = generate_workload(db, "U0-S-100").queries()[:15]
        backend = MemoryBackend(db, opt)
        mnsa_for_workload(backend, queries)
        plans_before = [opt.optimize(q).signature for q in queries]
        shrinking_set(backend, queries)
        plans_after = [opt.optimize(q).signature for q in queries]
        assert plans_before == plans_after

    def test_update_workload_drives_refresh(self, fresh_tpcd_db):
        import threading

        from repro.service import MetricsRegistry, StalenessMonitor

        db = fresh_tpcd_db()
        opt = Optimizer(db)
        workload = generate_workload(db, "U50-S-100")
        mnsa_for_workload(MemoryBackend(db, opt), workload.queries()[:10])
        metrics = MetricsRegistry()
        maintenance = StalenessMonitor(
            db, metrics, threading.RLock(), fraction=0.01
        )
        for stmt in workload.dml()[:30]:
            apply_dml(db, stmt)
            maintenance.run_once()
        # modifications eventually trigger refreshes
        assert metrics.counter("monitor.refreshes") > 0

    def test_mnsad_pipeline(self, fresh_tpcd_db):
        db = fresh_tpcd_db()
        opt = Optimizer(db)
        queries = generate_workload(db, "U0-S-100").queries()[:15]
        result = mnsad_for_workload(MemoryBackend(db, opt), queries)
        # invariants: every created stat is either visible or drop-listed
        for key in result.created:
            assert db.stats.has(key)
        for key in result.dropped:
            assert db.stats.is_droppable(key) or key in result.retained

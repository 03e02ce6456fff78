"""Tests for repro.core.shrinking (Figure 2)."""

import pytest

from repro.backends.memory import MemoryBackend
from repro.catalog import ColumnRef
from repro.core.candidates import workload_candidate_statistics
from repro.core.equivalence import (
    ExecutionTreeEquivalence,
    TOptimizerCostEquivalence,
)
from repro.core.essential import (
    find_minimal_essential_set,
    is_equivalent_to_candidates,
    is_essential_set,
    plan_with_stats,
)
from repro.core.mnsa import MnsaConfig, mnsa_for_workload
from repro.core.shrinking import shrinking_set
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder
from repro.stats.statistic import StatKey
from repro.workload import generate_workload

from tests.util import simple_db


def _queries(db):
    return [
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "=", 30)
        .build(),
        QueryBuilder(db.schema).where("emp.salary", ">", 100_000.0).build(),
    ]


@pytest.fixture
def prepared(db):
    backend = MemoryBackend(db, Optimizer(db))
    queries = _queries(db)
    # build a superset via MNSA with tiny t (creates all candidates)
    mnsa_for_workload(backend, queries, config=MnsaConfig(t_percent=1e-9))
    return db, backend, queries


class TestShrinkingSet:
    def test_result_partitions_initial(self, prepared):
        db, backend, queries = prepared
        initial = db.stats.visible_keys()
        result = shrinking_set(backend, queries)
        assert set(result.essential) | set(result.removed) == set(initial)
        assert not (set(result.essential) & set(result.removed))

    def test_removed_physically_dropped(self, prepared):
        db, backend, queries = prepared
        result = shrinking_set(backend, queries)
        for key in result.removed:
            assert not db.stats.has(key)

    def test_plans_preserved(self, prepared):
        """The retained set yields the same plan as the initial set."""
        db, backend, queries = prepared
        opt = backend.optimizer
        baselines = [opt.optimize(q).signature for q in queries]
        result = shrinking_set(backend, queries)
        after = [opt.optimize(q).signature for q in queries]
        assert baselines == after

    def test_result_is_minimal(self, prepared):
        """Removing any retained statistic changes some query's plan —
        the Figure 2 guarantee of an essential set."""
        db, backend, queries = prepared
        result = shrinking_set(backend, queries)
        baselines = [
            plan_with_stats(backend, q, keys=result.essential).signature
            for q in queries
        ]
        for key in result.essential:
            without = [k for k in result.essential if k != key]
            changed = False
            for query, baseline in zip(queries, baselines):
                probe = plan_with_stats(backend, query, keys=without)
                if probe.signature != baseline:
                    changed = True
                    break
            assert changed, f"{key} could have been removed"

    def test_memo_reduces_calls(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        queries = _queries(db) * 3  # repeated queries share probes
        mnsa_for_workload(
            backend, queries, config=MnsaConfig(t_percent=1e-9)
        )
        result = shrinking_set(backend, queries, memoize=True)
        assert result.memo_hits > 0

    def test_memo_equivalence(self, fresh_tpcd_db):
        """Memoized and non-memoized runs retain the same statistics."""
        from repro.workload import generate_workload

        results = []
        for memoize in (True, False):
            db = fresh_tpcd_db(scale=0.002, z=2.0)
            backend = MemoryBackend(db, Optimizer(db))
            queries = generate_workload(db, "U0-S-100").queries()[:10]
            mnsa_for_workload(backend, queries)
            result = shrinking_set(backend, queries, memoize=memoize)
            results.append(sorted(result.essential))
        assert results[0] == results[1]

    def test_explicit_initial_set(self, prepared):
        db, backend, queries = prepared
        subset = db.stats.visible_keys()[:2]
        result = shrinking_set(backend, queries, initial=subset)
        assert set(result.essential) | set(result.removed) == set(subset)

    def test_t_cost_criterion(self, prepared):
        db, backend, queries = prepared
        criterion = TOptimizerCostEquivalence(t_percent=1e9)
        result = shrinking_set(backend, queries, criterion=criterion)
        # absurdly loose criterion -> everything is removable
        assert result.essential == []

    def test_dml_statements_skipped(self, prepared):
        db, backend, queries = prepared
        from repro.sql.query import DmlStatement

        dml = DmlStatement(
            kind="insert", table="dept", rows=({"id": 1, "dname": "x", "budget": 1.0},)
        )
        result = shrinking_set(backend, queries + [dml])
        assert result is not None


def _seeded_workloads(db):
    """Workloads of 1, 2 and 3 consecutive RAGS queries from three
    seeds, each with at most 10 candidate statistics."""
    workloads = []
    for seed in (1, 2, 3):
        queries = generate_workload(db, "U0-S-12", seed=seed).queries()
        for size in (1, 2, 3):
            for start in range(0, len(queries) - size + 1, 4):
                workload = queries[start : start + size]
                if len(workload_candidate_statistics(workload)) <= 10:
                    workloads.append(workload)
    return workloads


@pytest.mark.parametrize(
    "criterion",
    [ExecutionTreeEquivalence(), TOptimizerCostEquivalence(20.0)],
    ids=["execution_tree", "t_cost"],
)
class TestShrinkingSetIsEssential:
    """Brute force over small candidate sets: Figure 2's result is an
    essential set (Definition 1) under the criterion it ran with."""

    def test_result_is_an_essential_set(self, fresh_tpcd_db, criterion):
        db = fresh_tpcd_db(scale=0.002, z=2.0)
        backend = MemoryBackend(db, Optimizer(db))
        workloads = _seeded_workloads(db)
        assert {len(w) for w in workloads} == {1, 2, 3}
        removed_any = retained_any = False
        for queries in workloads:
            candidates = workload_candidate_statistics(queries)
            for key in candidates:
                if not db.stats.has(key):
                    db.stats.create(key)
            result = shrinking_set(
                backend, queries, initial=candidates, criterion=criterion
            )
            for key in result.removed:  # Plan(Q, C) needs them built
                db.stats.create(key)
            removed_any = removed_any or bool(result.removed)
            retained_any = retained_any or bool(result.essential)
            essential = result.essential
            for query in queries:
                assert is_equivalent_to_candidates(
                    backend, query, essential, candidates, criterion
                )
            if len(queries) == 1:
                (query,) = queries
                assert is_essential_set(
                    backend, query, essential, candidates, criterion
                )
                minimal = find_minimal_essential_set(
                    backend, query, candidates, criterion
                )
                assert len(essential) >= len(minimal)
            # Definition 1 over the workload: each retained statistic
            # is needed by some query
            for key in essential:
                smaller = [k for k in essential if k != key]
                assert not all(
                    is_equivalent_to_candidates(
                        backend, query, smaller, candidates, criterion
                    )
                    for query in queries
                ), f"{key} could have been removed"
        assert removed_any and retained_any

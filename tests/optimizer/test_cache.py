"""Tests for repro.optimizer.cache (OptimizationRequest + PlanCache).

Covers request canonicalization, the version/fingerprint invalidation
matrix over every StatisticsManager mutation path and DML, LRU bounding, the
``optimize(query)`` shorthand, and call-count atomicity.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import ColumnRef
from repro.config import ServiceConfig
from repro.errors import OptimizerError
from repro.optimizer import OptimizationRequest, Optimizer, PlanCache
from repro.optimizer.cache import statistics_fingerprint
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.variables import PredicateVariable
from repro.service import MetricsRegistry, ServiceRequest, StatsService
from repro.sql.builder import QueryBuilder
from repro.sql.predicates import ComparisonPredicate
from repro.stats import StatKey

AGE = ColumnRef("emp", "age")
SALARY = ColumnRef("emp", "salary")
DEPT_ID = ColumnRef("emp", "dept_id")


def _age_query(db, value=30):
    return QueryBuilder(db.schema).where("emp.age", "<", value).build()


def _emp_versions(db):
    return db.stats.versions_for(("emp",))


class TestOptimizationRequest:
    def test_dict_and_pairs_canonicalize_identically(self, db):
        query = _age_query(db)
        pred = ComparisonPredicate(AGE, "<", 30)
        variable = PredicateVariable(pred)
        a = OptimizationRequest(query, {variable: 0.25})
        b = OptimizationRequest(query, [(variable, 0.25)])
        assert a == b
        assert hash(a) == hash(b)

    def test_override_order_is_irrelevant(self, db):
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", "<", 30)
            .where("emp.salary", ">", 50_000.0)
            .build()
        )
        variables = Optimizer(db).magic_variables(query)
        assert len(variables) == 2
        forward = dict(zip(variables, (0.1, 0.9)))
        backward = dict(
            zip(reversed(variables), reversed((0.1, 0.9)))
        )
        assert OptimizationRequest(query, forward) == OptimizationRequest(
            query, backward
        )

    def test_differently_ordered_pins_collide(self, db):
        """The hash is computed on first use: two spellings of one
        request must still land in one cache slot, whichever of them is
        hashed first and however often."""
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", "<", 30)
            .where("emp.salary", ">", 50_000.0)
            .build()
        )
        first, second = Optimizer(db).magic_variables(query)
        forward = OptimizationRequest(query, [(first, 0.1), (second, 0.9)])
        backward = OptimizationRequest(query, [(second, 0.9), (first, 0.1)])
        assert hash(backward) == hash(forward) == hash(forward)
        assert {forward: "plan"}[backward] == "plan"
        versioned = forward.with_learned_version(3)
        assert versioned != forward
        assert versioned.with_learned_version(3) is versioned
        assert hash(versioned) == hash(backward.with_learned_version(3))
        assert OptimizationRequest(query, [(first, 0.9), (second, 0.1)]) != (
            forward
        )

    def test_ignore_set_deduped_and_sorted(self, db):
        query = _age_query(db)
        a = OptimizationRequest(query, ignore=[AGE, SALARY, AGE])
        b = OptimizationRequest(
            query, ignore=[StatKey.single(SALARY), StatKey.single(AGE)]
        )
        assert a == b
        assert a.ignore == tuple(
            sorted({StatKey.single(AGE), StatKey.single(SALARY)})
        )

    def test_requires_bound_query(self):
        with pytest.raises(OptimizerError):
            OptimizationRequest("SELECT * FROM emp")


class TestPlanCacheBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(OptimizerError):
            PlanCache(0)

    def test_cold_then_hot(self, db):
        cache = PlanCache(8)
        opt = Optimizer(db, cache=cache)
        query = _age_query(db)
        first = opt.optimize_request(OptimizationRequest(query))
        second = opt.optimize_request(OptimizationRequest(query))
        assert first is second
        assert opt.cold_optimize_count == 1
        assert opt.call_count == 2
        assert cache.hit_count == 1
        assert cache.miss_count == 1

    def test_lru_eviction(self, db):
        cache = PlanCache(2)
        opt = Optimizer(db, cache=cache)
        requests = [
            OptimizationRequest(_age_query(db, value)) for value in (25, 35, 45)
        ]
        for request in requests:
            opt.optimize_request(request)
        assert len(cache) == 2
        assert cache.eviction_count == 1
        assert cache.requests() == requests[1:]
        # the evicted request is cold again
        opt.optimize_request(requests[0])
        assert opt.cold_optimize_count == 4

    def test_metrics_registry_mirrors_counters(self, db):
        metrics = MetricsRegistry()
        cache = PlanCache(4, metrics=metrics)
        opt = Optimizer(db, cache=cache)
        request = OptimizationRequest(_age_query(db))
        opt.optimize_request(request)
        opt.optimize_request(request)
        assert metrics.counter("plan_cache.misses") == 1
        assert metrics.counter("plan_cache.hits") == 1
        assert metrics.gauge_value("plan_cache.size") == 1

    def test_clear(self, db):
        cache = PlanCache(4)
        opt = Optimizer(db, cache=cache)
        opt.optimize_request(OptimizationRequest(_age_query(db)))
        cache.clear()
        assert len(cache) == 0


class TestInvalidationMatrix:
    """Every StatisticsManager mutation path that changes what the
    optimizer can see, and every DML, must move the versions of the
    table it touches and force the cache to re-optimize rather than
    serve a stale plan."""

    def _warm(self, db, opt, query):
        request = OptimizationRequest(query)
        result = opt.optimize_request(request)
        # hot on the second call: version fast path
        assert opt.optimize_request(request) is result
        return request, result

    def test_create_invalidates(self, db):
        opt = Optimizer(db, cache=PlanCache(8))
        query = _age_query(db)
        request, stale = self._warm(db, opt, query)
        before = _emp_versions(db)
        db.stats.create(AGE)
        assert _emp_versions(db) != before
        fresh = opt.optimize_request(request)
        assert fresh is not stale
        assert opt.cold_optimize_count == 2

    def test_drop_invalidates(self, db):
        db.stats.create(AGE)
        opt = Optimizer(db, cache=PlanCache(8))
        request, stale = self._warm(db, opt, _age_query(db))
        before = _emp_versions(db)
        db.stats.drop(AGE)
        assert _emp_versions(db) != before
        assert opt.optimize_request(request) is not stale
        assert opt.cold_optimize_count == 2

    def test_drop_all_invalidates(self, db):
        db.stats.create(AGE)
        opt = Optimizer(db, cache=PlanCache(8))
        request, stale = self._warm(db, opt, _age_query(db))
        before = _emp_versions(db)
        db.stats.drop_all()
        assert _emp_versions(db) != before
        assert opt.optimize_request(request) is not stale

    def test_refresh_table_invalidates(self, db):
        db.stats.create(AGE)
        opt = Optimizer(db, cache=PlanCache(8))
        request, stale = self._warm(db, opt, _age_query(db))
        before = _emp_versions(db)
        db.stats.refresh_table("emp")
        assert _emp_versions(db) != before
        # update_count changed, so the fingerprint no longer matches
        assert opt.optimize_request(request) is not stale
        assert opt.cold_optimize_count == 2

    def test_apply_incremental_inserts_invalidates(self, db):
        import numpy as np

        db.stats.create(AGE)
        opt = Optimizer(db, cache=PlanCache(8))
        request, stale = self._warm(db, opt, _age_query(db))
        before = _emp_versions(db)
        db.stats.apply_incremental_inserts(
            "emp", {"age": np.array([21, 22, 23], dtype=np.int64)}
        )
        assert _emp_versions(db) != before
        assert opt.optimize_request(request) is not stale

    def test_ignore_subset_enter_and_exit_invalidate(self, db):
        """Entering a scope that hides a statistic moves the key; leaving
        it returns the key to where it was, so the entry stored before
        the scope is a fast-path hit again."""
        db.stats.create(AGE)
        cache = PlanCache(8)
        opt = Optimizer(db, cache=cache)
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        request, with_stats = self._warm(db, opt, query)
        before = _emp_versions(db)
        hits, revalidations = cache.hit_count, cache.revalidation_count
        with db.stats.ignore_subset([AGE]):
            inside = _emp_versions(db)
            assert inside != before
            assert cache.get_fresh(request, inside) is None
            hidden = Optimizer(db).optimize_request(request)
            assert hidden.rows != with_stats.rows
        assert _emp_versions(db) == before
        assert opt.optimize_request(request) is with_stats
        assert cache.hit_count == hits + 1
        assert cache.revalidation_count == revalidations
        # planned through the cache inside the scope, the entry follows
        # the hidden state, and leaving the scope re-plans
        with db.stats.ignore_subset([AGE]):
            assert opt.optimize_request(request).rows == hidden.rows
        assert opt.optimize_request(request).rows == with_stats.rows

    def test_set_ignored_invalidates(self, db):
        db.stats.create(AGE)
        opt = Optimizer(db, cache=PlanCache(8))
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        request, with_stats = self._warm(db, opt, query)
        before = _emp_versions(db)
        db.stats.set_ignored([AGE])
        assert _emp_versions(db) != before
        assert opt.optimize_request(request).rows != with_stats.rows
        db.stats.clear_ignored()
        assert opt.optimize_request(request).rows == with_stats.rows

    def test_dml_invalidates_via_data_change(self, db):
        opt = Optimizer(db, cache=PlanCache(8))
        query = QueryBuilder(db.schema).table("emp").build()
        request, stale = self._warm(db, opt, query)
        before = _emp_versions(db)
        db.insert(
            "emp",
            [
                {
                    "id": 10_001,
                    "age": 40,
                    "salary": 90_000.0,
                    "dept_id": 1,
                    "name": "late",
                    "hired": 100,
                }
            ],
        )
        assert _emp_versions(db) != before
        fresh = opt.optimize_request(request)
        assert fresh is not stale
        assert fresh.rows == stale.rows + 1

    def test_irrelevant_change_revalidates_without_reoptimizing(self, db):
        """A mutation of the query's table that cannot affect its plan
        costs one fingerprint check, not a cold optimization."""
        opt = Optimizer(db, cache=PlanCache(8))
        query = _age_query(db)
        request, cached = self._warm(db, opt, query)
        db.stats.create(SALARY)
        assert opt.optimize_request(request) is cached
        assert opt.cold_optimize_count == 1
        assert opt.cache.revalidation_count == 1

    @pytest.mark.parametrize("change", ["create", "dml"])
    def test_change_to_another_table_keeps_the_fast_path(self, db, change):
        """A statistics change or DML on ``dept`` leaves a cached ``emp``
        plan on the fast path: no fingerprint check, no re-optimization."""
        opt = Optimizer(db, cache=PlanCache(8))
        request, cached = self._warm(db, opt, _age_query(db))
        if change == "create":
            db.stats.create(ColumnRef("dept", "budget"))
        else:
            db.insert("dept", [{"id": 999, "dname": "x", "budget": 1.0}])
        assert opt.optimize_request(request) is cached
        assert opt.cold_optimize_count == 1
        assert opt.cache.revalidation_count == 0


class TestFingerprint:
    def test_fingerprint_ignores_unrelated_tables(self, db):
        query = _age_query(db)
        before = statistics_fingerprint(db, query)
        db.stats.create(ColumnRef("dept", "budget"))
        assert statistics_fingerprint(db, query) == before
        db.stats.create(AGE)
        assert statistics_fingerprint(db, query) != before

    def test_fingerprint_respects_ignore(self, db):
        db.stats.create(AGE)
        query = _age_query(db)
        ignoring = statistics_fingerprint(db, query, ignore=(StatKey.single(AGE),))
        seeing = statistics_fingerprint(db, query)
        assert ignoring != seeing


    def test_fingerprint_equals_the_per_key_relevance_scan(
        self, fresh_tpcd_db
    ):
        """The digest is pinned to what the per-key filter it replaced
        produced: (tables, sorted visible statistics sharing a relevant
        column with the query), for every query x statistics state.  The
        sampled-build field joined both sides with the two-phase build."""
        from repro.core.candidates import workload_candidate_statistics
        from repro.workload import generate_workload

        db = fresh_tpcd_db()
        queries = generate_workload(db, "U0-C-30", seed=7).queries()

        def per_key_scan(query, ignore=()):
            tables = tuple(
                (
                    name,
                    db.table(name).row_count,
                    db.table(name).rows_modified_since_stats,
                )
                for name in sorted(query.tables)
            )
            relevant = []
            for key in db.stats.visible_keys():
                if key in set(ignore) or key.table not in query.tables:
                    continue
                columns = {
                    ref.column
                    for ref in query.relevant_columns()
                    if ref.table == key.table
                }
                if not set(key.columns) & columns:
                    continue
                stat = db.stats.get(key)
                relevant.append(
                    (key, stat.update_count, stat.row_count, stat.sample_rows)
                )
            return (tables, tuple(sorted(relevant)))

        candidates = list(workload_candidate_statistics(queries))
        assert candidates
        for state in range(4):
            if state == 1:
                for key in candidates:
                    db.stats.create(key)
            elif state == 2:
                for key in candidates[::3]:
                    db.stats.mark_droppable(key)
                db.stats.refresh_table("orders")
            elif state == 3:
                db.stats.set_ignored(candidates[1::3])
            nonempty = 0
            for query in queries:
                ignore = tuple(candidates[:2])
                assert statistics_fingerprint(db, query) == per_key_scan(
                    query
                )
                assert statistics_fingerprint(
                    db, query, ignore
                ) == per_key_scan(query, ignore)
                nonempty += bool(statistics_fingerprint(db, query)[1])
            assert (nonempty > 0) == (state > 0)


#: statistics the operation sequences below create, hide and drop
_KEYS = (
    StatKey.single(AGE),
    StatKey.single(SALARY),
    StatKey.single(DEPT_ID),
    StatKey.single(ColumnRef("dept", "id")),
    StatKey("emp", ("dept_id", "age")),
)

_STAT_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "create",
                "drop-list",
                "revive",
                "drop",
                "refresh",
                "ignore-scope",
                "insert",
                "delete",
                "update",
            ]
        ),
        st.integers(0, len(_KEYS) - 1),
    ),
    min_size=1,
    max_size=12,
)


def _missing_queries(db):
    return [
        QueryBuilder(db.schema)
        .where("emp.age", "<", 30)
        .where("emp.salary", ">", 50_000.0)
        .build(),
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", ">", 40)
        .select("emp.dept_id")
        .group_by("emp.dept_id")
        .aggregate("count")
        .build(),
    ]


class TestEntryCarriedMissingVariables:
    """``optimize_with_missing``: the plan-cache entry carries the missing
    set of its fingerprint, and what it serves is always what a fresh
    ``magic_variables`` returns."""

    @staticmethod
    def _check(db, opt, queries):
        fresh = Optimizer(db)
        for query in queries:
            for _ in range(2):  # the first ask computes, the second is kept
                _, missing = opt.optimize_with_missing(
                    OptimizationRequest(query)
                )
                assert list(missing) == fresh.magic_variables(query)

    @given(ops=_STAT_OPS)
    @settings(max_examples=60, deadline=None)
    def test_served_set_equals_a_fresh_one_after_any_operations(self, ops):
        from tests.util import simple_db

        db = simple_db(n_emp=60)
        opt = Optimizer(db, cache=PlanCache(8))
        queries = _missing_queries(db)
        stats = db.stats
        self._check(db, opt, queries)
        for op, pick in ops:
            key = _KEYS[pick]
            if op == "create":
                if not stats.has(key) or stats.is_droppable(key):
                    stats.create(key)
            elif op == "drop-list":
                if stats.has(key):
                    stats.mark_droppable(key)
            elif op == "revive":
                if stats.has(key):
                    stats.revive(key)
            elif op == "drop":
                if stats.has(key):
                    stats.drop(key)
            elif op == "refresh":
                stats.refresh_table(key.table)
            elif op == "ignore-scope":
                with stats.ignore_subset(_KEYS[: pick + 1]):
                    self._check(db, opt, queries)
            elif op == "insert":
                db.insert(
                    "dept", [{"id": 90 + pick, "dname": "new", "budget": 1.0}]
                )
            elif op == "delete":
                db.delete("emp", db.table("emp").column_array("id") == 1 + pick)
            else:
                db.update(
                    "emp",
                    db.table("emp").column_array("id") == 7 + pick,
                    {"age": 20 + pick},
                )
            self._check(db, opt, queries)

    def test_kept_across_hits_and_revalidations(self, db, monkeypatch):
        calls = []
        real = SelectivityEstimator.missing_variables
        monkeypatch.setattr(
            SelectivityEstimator,
            "missing_variables",
            lambda self, query: calls.append(1) or real(self, query),
        )
        cache = PlanCache(4)
        opt = Optimizer(db, cache=cache)
        request = OptimizationRequest(_age_query(db))
        first = opt.optimize_with_missing(request)[1]
        assert len(first) == 1 and len(calls) == 1
        assert opt.optimize_with_missing(request)[1] is first  # fresh hit
        db.stats.create(StatKey.single(SALARY))  # emp, not a relevant column
        assert opt.optimize_with_missing(request)[1] is first  # revalidated
        assert cache.revalidation_count == 1
        assert len(calls) == 1

    def test_a_re_store_resets_the_kept_set(self, db):
        cache = PlanCache(4)
        opt = Optimizer(db, cache=cache)
        request = OptimizationRequest(_age_query(db))
        result, missing = opt.optimize_with_missing(request)
        versions = _emp_versions(db)
        assert cache.missing_for(request, versions) is missing
        fingerprint = statistics_fingerprint(db, request.query)
        cache.store(request, versions, fingerprint, result)
        assert cache.missing_for(request, versions) is None
        # ... and a statistics change that re-optimizes re-stores
        opt.optimize_with_missing(request)
        db.stats.create(StatKey.single(AGE))
        versions = _emp_versions(db)
        assert cache.missing_for(request, versions) is None
        assert opt.optimize_with_missing(request)[1] == ()
        assert cache.missing_for(request, versions) == ()

    def test_kept_only_at_the_epoch_it_was_computed_under(self, db):
        cache = PlanCache(4)
        opt = Optimizer(db, cache=cache)
        request = OptimizationRequest(_age_query(db))
        opt.optimize_request(request)
        versions = _emp_versions(db)
        db.stats.create(StatKey.single(SALARY))
        later = _emp_versions(db)
        assert later != versions
        cache.keep_missing(request, later, ("stale",))
        assert cache.missing_for(request, versions) is None
        cache.keep_missing(request, versions, ("current",))
        assert cache.missing_for(request, versions) == ("current",)
        assert cache.missing_for(request, later) is None

    def test_an_ignore_set_request_is_never_served_a_kept_set(
        self, db, monkeypatch
    ):
        db.stats.create(StatKey.single(AGE))
        calls = []
        real = SelectivityEstimator.missing_variables
        monkeypatch.setattr(
            SelectivityEstimator,
            "missing_variables",
            lambda self, query: calls.append(1) or real(self, query),
        )
        cache = PlanCache(4)
        opt = Optimizer(db, cache=cache)
        query = _age_query(db)
        ignoring = OptimizationRequest(query, ignore=[AGE])
        for asked in (1, 2, 3):
            # the fingerprint of this entry leaves the ignored statistic
            # out; magic_variables(query) does not
            assert opt.optimize_with_missing(ignoring)[1] == ()
            assert len(calls) == asked
        assert cache.missing_for(ignoring, _emp_versions(db)) is None

    def test_degraded_and_uncached_requests(self, db):
        query = _age_query(db)
        cached = Optimizer(db, cache=PlanCache(4))
        degraded = OptimizationRequest(query, degraded=True)
        assert cached.optimize_with_missing(degraded)[1] == ()
        uncached = Optimizer(db)
        result, missing = uncached.optimize_with_missing(
            OptimizationRequest(query)
        )
        assert list(missing) == uncached.magic_variables(query)
        assert result.signature == uncached.optimize(query).signature

    def test_serving_computes_the_missing_set_once_per_stored_entry(
        self, db, monkeypatch
    ):
        """A ``serve_repeat``-shaped loop: recurring reads, lock-step
        drain, an advisor that keeps creating and drop-listing."""
        events = []
        real = Optimizer.magic_variables
        monkeypatch.setattr(
            Optimizer,
            "magic_variables",
            lambda self, query: events.append(("ask", query))
            or real(self, query),
        )
        store = PlanCache.store

        def noting_store(self, request, *rest):
            if not request.overrides and not request.ignore:
                events.append(("store", request.query))
            store(self, request, *rest)

        monkeypatch.setattr(PlanCache, "store", noting_store)
        queries = _missing_queries(db) + [_age_query(db, value=25)]
        service = StatsService(
            db, ServiceConfig(advisor_workers=1, staleness_poll_seconds=3600.0)
        )
        service.start()
        try:
            rounds = 6
            for _ in range(rounds):
                for query in queries:
                    service.submit(ServiceRequest(query))
                    service.drain()
        finally:
            service.stop()
        asks = [query for kind, query in events if kind == "ask"]
        assert len(queries) <= len(asks) < rounds * len(queries)
        # every ask is the first one after a store of that query's entry
        # (the advisor shares the cache and stores plans too)
        stored_since_ask = set()
        for kind, query in events:
            if kind == "store":
                stored_since_ask.add(query)
            else:
                assert query in stored_since_ask
                stored_since_ask.discard(query)


class TestDeprecatedShims:
    def test_optimize_kwargs_warn(self, db):
        """``optimize`` takes the query alone: pins and ignore sets are
        spelled as an :class:`OptimizationRequest`, and the plain
        shorthand is the default request's cache entry."""
        opt = Optimizer(db, cache=PlanCache(4))
        query = _age_query(db)
        pred = ComparisonPredicate(AGE, "<", 30)
        pin = {PredicateVariable(pred): 0.25}
        with pytest.raises(TypeError):
            opt.optimize(query, selectivity_overrides=pin)
        with pytest.raises(TypeError):
            opt.optimize(query, ignore_statistics=[AGE])
        plain = opt.optimize(query)
        assert plain is opt.optimize_request(OptimizationRequest(query))
        pinned = opt.optimize_request(OptimizationRequest(query, pin))
        assert pinned is not plain
        assert opt.cold_optimize_count == 2


class TestCallCountAtomicity:
    def test_concurrent_increments_are_not_lost(self, db):
        opt = Optimizer(db, cache=PlanCache(8))
        request = OptimizationRequest(_age_query(db))
        opt.optimize_request(request)  # warm once so threads only hit

        def hammer():
            for _ in range(50):
                opt.optimize_request(request)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert opt.call_count == 1 + 8 * 50

"""Tests for repro.feedback.observation — q-error and plan instrumentation."""

import math

from repro.catalog import ColumnRef
from repro.executor import Executor
from repro.feedback.observation import (
    MIN_CARDINALITY,
    FeedbackKey,
    PlanInstrumenter,
    q_error,
)
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder

from tests.util import simple_db


class TestQError:
    def test_exact_estimate_is_one(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric(self):
        assert q_error(10, 1000) == q_error(1000, 10) == 100.0

    def test_zero_actual_rows_is_the_estimate(self):
        # an estimate of 1000 rows against an empty output is a 1000x
        # error, not an infinite one
        assert q_error(1000, 0) == 1000.0

    def test_zero_estimated_rows_is_the_actual(self):
        assert q_error(0, 250) == 250.0

    def test_fractional_estimates_clamp_to_one(self):
        # the optimizer emits fractional estimates < 1 routinely
        assert q_error(0.25, 50) == 50.0

    def test_both_zero_empty_relation_is_one(self):
        # the estimate was as right as it could be
        assert q_error(0, 0) == 1.0

    def test_nan_and_negative_treated_as_zero(self):
        assert q_error(float("nan"), 10) == 10.0
        assert q_error(-5.0, 10) == 10.0
        assert math.isfinite(q_error(float("nan"), float("nan")))

    def test_always_finite_and_at_least_one(self):
        for est, act in [(0, 0), (0, 1), (1e12, 0), (3.7, 2)]:
            q = q_error(est, act)
            assert math.isfinite(q) and q >= MIN_CARDINALITY


class TestFeedbackKey:
    def test_of_sorts_and_dedupes_columns(self):
        key = FeedbackKey.of("emp", ["salary", "age", "salary"])
        assert key.columns == ("age", "salary")
        assert key == FeedbackKey.of("emp", ("age", "salary"))

    def test_str_forms(self):
        assert str(FeedbackKey.of("emp", ["age"])) == "emp.age"
        assert (
            str(FeedbackKey.of("emp", ["salary", "age"]))
            == "emp.(age, salary)"
        )


def _instrument(db, query):
    plan = Optimizer(db).optimize(query).plan
    return plan, PlanInstrumenter().instrument(plan)


class TestPlanInstrumenter:
    def test_scan_targets_are_predicate_columns(self, db):
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        plan, annotations = _instrument(db, query)
        kinds = {a.operator for a in annotations.values()}
        assert kinds <= {"scan", "seek"}
        (annotation,) = [
            a for a in annotations.values() if a.targets
        ]
        assert annotation.targets == (FeedbackKey.of("emp", ["age"]),)
        assert annotation.estimated_rows == plan.rows

    def test_unfiltered_scan_has_no_targets(self, db):
        query = QueryBuilder(db.schema).table("emp").build()
        _, annotations = _instrument(db, query)
        assert all(not a.targets for a in annotations.values())

    def test_join_targets_one_per_side(self, db):
        query = (
            QueryBuilder(db.schema)
            .join("emp.dept_id", "dept.id")
            .build()
        )
        _, annotations = _instrument(db, query)
        joins = [
            a for a in annotations.values() if a.operator == "join"
        ]
        assert len(joins) == 1
        assert set(joins[0].targets) == {
            FeedbackKey.of("dept", ["id"]),
            FeedbackKey.of("emp", ["dept_id"]),
        }
        assert set(joins[0].tables) == {"emp", "dept"}

    def test_aggregate_targets_group_by_columns(self, db):
        query = (
            QueryBuilder(db.schema)
            .group_by("emp.dept_id")
            .aggregate("count", None)
            .build()
        )
        _, annotations = _instrument(db, query)
        aggregates = [
            a for a in annotations.values() if a.operator == "aggregate"
        ]
        assert len(aggregates) == 1
        assert aggregates[0].targets == (
            FeedbackKey.of("emp", ["dept_id"]),
        )

    def test_sort_has_no_targets(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .order_by("emp.salary")
            .build()
        )
        _, annotations = _instrument(db, query)
        sorts = [a for a in annotations.values() if a.operator == "sort"]
        assert len(sorts) == 1
        assert sorts[0].targets == ()

    def test_observe_zips_annotation_with_actual(self, db):
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        plan, annotations = _instrument(db, query)
        instrumenter = PlanInstrumenter()
        observation = instrumenter.observe(annotations, plan, 7)
        assert observation.actual_rows == 7
        assert observation.estimated_rows == plan.rows
        assert observation.q_error == q_error(plan.rows, 7)


class TestAnnotationMapCachedOnThePlan:
    """The annotation map is a function of the immutable plan: derived
    once, kept on the root, never carried over to another plan."""

    def _query(self, db):
        return (
            QueryBuilder(db.schema)
            .join("emp.dept_id", "dept.id")
            .where("emp.age", "<", 40)
            .group_by("dept.dname")
            .build()
        )

    def test_observations_equal_with_and_without_the_cached_map(self, db):
        query = self._query(db)
        plan = Optimizer(db).optimize(query).plan
        executor = Executor(db)
        first = executor.execute(plan, query).operator_observations
        assert plan.feedback_annotations is not None
        cached = executor.execute(plan, query).operator_observations
        plan.feedback_annotations = None
        rederived = executor.execute(plan, query).operator_observations
        assert len(first) == len(list(plan.walk()))
        for a, b, c in zip(first, cached, rederived):
            assert a == b == c

    def test_instrument_returns_the_same_map_for_the_same_plan(self, db):
        plan = Optimizer(db).optimize(self._query(db)).plan
        first = PlanInstrumenter().instrument(plan)
        assert PlanInstrumenter().instrument(plan) is first
        assert set(first) == {id(node) for node in plan.walk()}

    def test_reoptimized_plan_gets_a_fresh_map(self, db):
        query = self._query(db)
        optimizer = Optimizer(db)
        plan = optimizer.optimize(query).plan
        before = PlanInstrumenter().instrument(plan)
        db.stats.create(ColumnRef("emp", "age"))
        replanned = optimizer.optimize(query).plan
        assert replanned is not plan
        after = PlanInstrumenter().instrument(replanned)
        assert after is not before
        assert set(after) == {id(node) for node in replanned.walk()}
        scan = next(n for n in replanned.walk() if n.tables() == ("emp",))
        assert after[id(scan)].estimated_rows == scan.rows

    def test_tables_are_computed_once_per_node(self, db):
        plan = Optimizer(db).optimize(self._query(db)).plan
        assert plan.tables() is plan.tables()
        assert sorted(plan.tables()) == ["dept", "emp"]


class TestEmptyRelationPlans:
    """Satellite: executed plans over empty outputs yield finite q-errors."""

    def test_predicate_matching_nothing_is_finite(self, db):
        query = QueryBuilder(db.schema).where("emp.age", "=", -1).build()
        result = Optimizer(db).optimize(query)
        executed = Executor(db).execute(result.plan, query)
        assert executed.row_count == 0
        assert executed.operator_observations
        for observation in executed.operator_observations:
            assert math.isfinite(observation.q_error)
            assert observation.q_error >= 1.0

    def test_empty_base_relation_is_finite(self):
        db = simple_db(n_emp=0)
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        result = Optimizer(db).optimize(query)
        executed = Executor(db).execute(result.plan, query)
        assert executed.row_count == 0
        for observation in executed.operator_observations:
            assert math.isfinite(observation.q_error)
            # zero estimated over zero actual: documented q-error 1.0
            assert observation.q_error == 1.0

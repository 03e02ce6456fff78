"""Tests for repro.optimizer.selectivity."""

import numpy as np
import pytest

from repro.catalog import ColumnRef
from repro.errors import OptimizerError
from repro.optimizer.selectivity import (
    MAGIC_BETWEEN,
    MAGIC_EQUALITY,
    MAGIC_GROUP_BY_FRACTION,
    MAGIC_INEQUALITY,
    MAGIC_JOIN,
    MAGIC_LIKE,
    MAGIC_RANGE,
    SelectivityEstimator,
)
from repro.optimizer.variables import (
    GroupByVariable,
    JoinVariable,
    PredicateVariable,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    LikePredicate,
)
from repro.sql.query import Query

from tests.util import simple_db

AGE = ColumnRef("emp", "age")
SAL = ColumnRef("emp", "salary")
NAME = ColumnRef("emp", "name")
DEPT_ID = ColumnRef("emp", "dept_id")
DID = ColumnRef("dept", "id")


class TestMagicFallbacks:
    """Without statistics, predicates use the magic numbers."""

    def test_equality_magic(self, db):
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(AGE, "=", 30)
        assert est.predicate_selectivity(pred) == MAGIC_EQUALITY

    def test_range_magic(self, db):
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(AGE, "<", 30)
        assert est.predicate_selectivity(pred) == MAGIC_RANGE

    def test_between_magic(self, db):
        est = SelectivityEstimator(db)
        pred = BetweenPredicate(AGE, 20, 40)
        assert est.predicate_selectivity(pred) == MAGIC_BETWEEN

    def test_inequality_magic(self, db):
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(AGE, "<>", 30)
        assert (
            est.predicate_selectivity(pred)
            == MAGIC_INEQUALITY
        )

    def test_in_list_magic_scales_with_items(self, db):
        est = SelectivityEstimator(db)
        one = est.predicate_selectivity(InPredicate(AGE, (1,)))
        three = est.predicate_selectivity(InPredicate(AGE, (1, 2, 3)))
        assert three == pytest.approx(3 * one)

    def test_like_magic(self, db):
        est = SelectivityEstimator(db)
        assert (
            est.predicate_selectivity(LikePredicate(NAME, "e%"))
            == MAGIC_LIKE
        )

    def test_join_magic(self, db):
        est = SelectivityEstimator(db)
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        assert est.join_group_selectivity(var) == MAGIC_JOIN

    def test_group_by_magic(self, db):
        est = SelectivityEstimator(db)
        var = GroupByVariable("emp", ("age",))
        assert (
            est.group_by_fraction(var)
            == MAGIC_GROUP_BY_FRACTION
        )


class TestOverrides:
    """The Sec 7.2 extension: inject selectivities for magic variables."""

    def test_override_applies_without_stats(self, db):
        pred = ComparisonPredicate(AGE, "<", 30)
        est = SelectivityEstimator(
            db, overrides={PredicateVariable(pred): 0.007}
        )
        assert est.predicate_selectivity(pred) == 0.007

    def test_override_ignored_with_stats(self, db):
        db.stats.create(AGE)
        pred = ComparisonPredicate(AGE, "<", 30)
        est = SelectivityEstimator(
            db, overrides={PredicateVariable(pred): 0.007}
        )
        assert est.predicate_selectivity(pred) != 0.007

    def test_join_override(self, db):
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        est = SelectivityEstimator(db, overrides={var: 0.33})
        assert est.join_group_selectivity(var) == 0.33

    def test_group_by_override(self, db):
        var = GroupByVariable("emp", ("age",))
        est = SelectivityEstimator(db, overrides={var: 0.25})
        assert est.group_by_fraction(var) == 0.25

    def test_invalid_override_rejected(self, db):
        pred = ComparisonPredicate(AGE, "<", 30)
        with pytest.raises(OptimizerError):
            SelectivityEstimator(
                db, overrides={PredicateVariable(pred): 1.5}
            )


class TestHistogramEstimates:
    def test_equality_from_histogram(self, db):
        db.stats.create(AGE)
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(AGE, "=", 30)
        true = float((db.table("emp").column_array("age") == 30).mean())
        assert est.predicate_selectivity(pred) == pytest.approx(
            true, rel=0.25
        )

    def test_range_from_histogram(self, db):
        db.stats.create(AGE)
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(AGE, "<=", 35)
        true = float((db.table("emp").column_array("age") <= 35).mean())
        assert est.predicate_selectivity(pred) == pytest.approx(
            true, abs=0.15
        )

    def test_string_equality_via_dictionary(self, db):
        db.stats.create(NAME)
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(NAME, "=", "emp1")
        assert est.predicate_selectivity(pred) == pytest.approx(
            1.0 / db.row_count("emp"), rel=0.5
        )

    def test_unknown_string_is_zero(self, db):
        db.stats.create(NAME)
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(NAME, "=", "nobody")
        assert est.predicate_selectivity(pred) == 0.0

    def test_unknown_string_not_equal_is_one(self, db):
        db.stats.create(NAME)
        est = SelectivityEstimator(db)
        pred = ComparisonPredicate(NAME, "<>", "nobody")
        assert est.predicate_selectivity(pred) == 1.0

    def test_like_via_histogram(self, db):
        db.stats.create(NAME)
        est = SelectivityEstimator(db)
        # every name starts with 'emp'
        pred = LikePredicate(NAME, "emp%")
        assert est.predicate_selectivity(pred) == pytest.approx(1.0, rel=0.1)

    def test_between_from_histogram(self, db):
        db.stats.create(AGE)
        est = SelectivityEstimator(db)
        pred = BetweenPredicate(AGE, 25, 35)
        true = float(
            np.logical_and(
                db.table("emp").column_array("age") >= 25,
                db.table("emp").column_array("age") <= 35,
            ).mean()
        )
        assert est.predicate_selectivity(pred) == pytest.approx(
            true, abs=0.2
        )


class TestConjunctions:
    def test_independence_multiplication(self, db):
        est = SelectivityEstimator(db)
        preds = [
            ComparisonPredicate(AGE, "<", 30),
            ComparisonPredicate(SAL, ">", 100.0),
        ]
        combined = est.table_filter_selectivity("emp", preds)
        product = est.predicate_selectivity(
            preds[0]
        ) * est.predicate_selectivity(preds[1])
        assert combined == pytest.approx(product)

    def test_density_path_for_equality_pairs(self, db):
        db.stats.create([DEPT_ID, AGE])
        est = SelectivityEstimator(db)
        preds = [
            ComparisonPredicate(DEPT_ID, "=", 1),
            ComparisonPredicate(AGE, "=", 30),
        ]
        combined = est.table_filter_selectivity("emp", preds)
        density = db.stats.density_for_columns("emp", {"dept_id", "age"})
        assert combined == pytest.approx(density)

    def test_empty_conjunction_is_one(self, db):
        est = SelectivityEstimator(db)
        assert est.table_filter_selectivity("emp", []) == 1.0


class TestJoinEstimates:
    def test_join_with_both_histograms(self, db):
        """Default (paper-faithful): the 1/max(ndv) containment rule."""
        db.stats.create(DEPT_ID)
        db.stats.create(DID)
        est = SelectivityEstimator(db)
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        ndv_dept = db.stats.get(DID).leading_distinct
        ndv_emp = db.stats.get(DEPT_ID).leading_distinct
        assert est.join_group_selectivity(var) == pytest.approx(
            1.0 / max(ndv_dept, ndv_emp)
        )

    def test_histogram_join_estimation_opt_in(self, db):
        """With the flag on, full FK coverage still agrees with the ndv
        rule (the two coincide when domains align)."""
        from repro.config import OptimizerConfig

        db.stats.create(DEPT_ID)
        db.stats.create(DID)
        config = OptimizerConfig(enable_histogram_join_estimation=True)
        est = SelectivityEstimator(db, config)
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        ndv_dept = db.stats.get(DID).leading_distinct
        ndv_emp = db.stats.get(DEPT_ID).leading_distinct
        assert est.join_group_selectivity(var) == pytest.approx(
            1.0 / max(ndv_dept, ndv_emp), rel=0.05
        )

    def test_join_selectivity_cached_per_estimator(self, db):
        db.stats.create(DEPT_ID)
        db.stats.create(DID)
        est = SelectivityEstimator(db)
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        first = est.join_group_selectivity(var)
        # drop the statistics; the cached value must still be served
        db.stats.drop(DEPT_ID)
        db.stats.drop(DID)
        assert est.join_group_selectivity(var) == first

    def test_join_with_one_histogram(self, db):
        db.stats.create(DID)
        est = SelectivityEstimator(db)
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        assert est.join_group_selectivity(var) == pytest.approx(
            1.0 / db.stats.get(DID).leading_distinct
        )
        assert est.join_has_statistics(var)

    def test_join_without_stats(self, db):
        est = SelectivityEstimator(db)
        var = JoinVariable((JoinPredicate(DEPT_ID, DID),))
        assert not est.join_has_statistics(var)


class TestGroupByEstimates:
    def test_fraction_from_histogram(self, db):
        db.stats.create(DEPT_ID)
        est = SelectivityEstimator(db)
        var = GroupByVariable("emp", ("dept_id",))
        ndv = db.stats.get(DEPT_ID).leading_distinct
        assert est.group_by_fraction(var) == pytest.approx(
            ndv / db.row_count("emp")
        )

    def test_multi_column_fraction_from_density(self, db):
        db.stats.create([DEPT_ID, AGE])
        est = SelectivityEstimator(db)
        var = GroupByVariable("emp", ("dept_id", "age"))
        assert est.group_by_has_statistics(var)
        assert 0 < est.group_by_fraction(var) <= 1.0


class TestMissingVariables:
    """Step (a) of the Sec 4.1 test."""

    def _query(self):
        return Query(
            tables=("emp", "dept"),
            predicates=(
                ComparisonPredicate(AGE, "<", 30),
                ComparisonPredicate(SAL, ">", 100.0),
            ),
            joins=(JoinPredicate(DEPT_ID, DID),),
            group_by=(ColumnRef("dept", "dname"),),
        )

    def test_all_missing_without_stats(self, db):
        est = SelectivityEstimator(db)
        missing = est.missing_variables(self._query())
        kinds = [type(v).__name__ for v in missing]
        assert kinds.count("PredicateVariable") == 2
        assert kinds.count("JoinVariable") == 1
        assert kinds.count("GroupByVariable") == 1

    def test_histogram_removes_predicate_variable(self, db):
        db.stats.create(AGE)
        est = SelectivityEstimator(db)
        missing = est.missing_variables(self._query())
        names = [str(v) for v in missing]
        assert not any("emp.age" in n and "sel[" in n for n in names)

    def test_join_stat_removes_join_variable(self, db):
        db.stats.create(DEPT_ID)
        est = SelectivityEstimator(db)
        missing = est.missing_variables(self._query())
        assert not any(isinstance(v, JoinVariable) for v in missing)

    def test_group_stat_removes_group_variable(self, db):
        db.stats.create(ColumnRef("dept", "dname"))
        est = SelectivityEstimator(db)
        missing = est.missing_variables(self._query())
        assert not any(isinstance(v, GroupByVariable) for v in missing)

    def test_density_covers_equality_pair(self, db):
        db.stats.create([DEPT_ID, AGE])
        query = Query(
            tables=("emp",),
            predicates=(
                ComparisonPredicate(DEPT_ID, "=", 1),
                ComparisonPredicate(AGE, "=", 30),
            ),
        )
        est = SelectivityEstimator(db)
        assert est.missing_variables(query) == []

"""Tests for repro.optimizer.optimizer (plan selection end to end)."""

import pytest

from repro.catalog import ColumnRef
from repro.config import OptimizerConfig
from repro.optimizer import OptimizationRequest, Optimizer
from repro.optimizer.plans import (
    AggregateNode,
    IndexSeekNode,
    JoinNode,
    ScanNode,
    SortNode,
)
from repro.optimizer.variables import PredicateVariable
from repro.sql.builder import QueryBuilder
from repro.sql.predicates import ComparisonPredicate

from tests.util import simple_db

AGE = ColumnRef("emp", "age")


def _query(db, **extra):
    builder = (
        QueryBuilder(db.schema)
        .table("emp")
        .table("dept")
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "<", 30)
    )
    return builder.build()


class TestSingleTable:
    def test_scan_plan(self, db):
        query = QueryBuilder(db.schema).table("emp").build()
        result = Optimizer(db).optimize(query)
        assert isinstance(result.plan, ScanNode)
        assert result.cost > 0

    def test_rows_estimate_uses_magic(self, db):
        query = (
            QueryBuilder(db.schema).where("emp.age", "<", 30).build()
        )
        result = Optimizer(db).optimize(query)
        assert result.rows == pytest.approx(0.3 * db.row_count("emp"))

    def test_rows_estimate_uses_histogram(self, db):
        db.stats.create(AGE)
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        result = Optimizer(db).optimize(query)
        true = float((db.table("emp").column_array("age") == 30).sum())
        assert result.rows == pytest.approx(true, rel=0.3)

    def test_index_seek_chosen_when_selective(self):
        db = simple_db(n_emp=20_000)
        db.indexes.create_index("idx_id", ColumnRef("emp", "id"))
        db.stats.create(ColumnRef("emp", "id"))
        query = QueryBuilder(db.schema).where("emp.id", "=", 1).build()
        result = Optimizer(db).optimize(query)
        assert isinstance(result.plan, IndexSeekNode)

    def test_scan_chosen_when_unselective(self, db):
        db.indexes.create_index("idx_age", AGE)
        db.stats.create(AGE)
        query = QueryBuilder(db.schema).where("emp.age", ">", 0).build()
        result = Optimizer(db).optimize(query)
        assert isinstance(result.plan, ScanNode)

    def test_index_paths_disabled(self, db):
        db.indexes.create_index("idx_id", ColumnRef("emp", "id"))
        config = OptimizerConfig(enable_index_paths=False)
        query = QueryBuilder(db.schema).where("emp.id", "=", 1).build()
        result = Optimizer(db, config).optimize(query)
        assert isinstance(result.plan, ScanNode)


class TestJoins:
    def test_two_table_join_plan(self, db):
        result = Optimizer(db).optimize(_query(db))
        assert isinstance(result.plan, JoinNode)
        assert set(result.plan.tables()) == {"emp", "dept"}

    def test_deterministic(self, db):
        opt = Optimizer(db)
        a = opt.optimize(_query(db))
        b = opt.optimize(_query(db))
        assert a.signature == b.signature
        assert a.cost == b.cost

    def test_cross_product_fallback(self, db):
        query = (
            QueryBuilder(db.schema).table("emp").table("dept").build()
        )
        result = Optimizer(db).optimize(query)
        assert isinstance(result.plan, JoinNode)
        assert result.plan.join_predicates == ()

    def test_call_count_increments(self, db):
        opt = Optimizer(db)
        opt.optimize(_query(db))
        opt.optimize(_query(db))
        assert opt.call_count == 2


class TestAggregationAndSort:
    def test_aggregate_node_added(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .group_by("emp.dept_id")
            .aggregate("count")
            .build()
        )
        result = Optimizer(db).optimize(query)
        assert isinstance(result.plan, AggregateNode)

    def test_group_count_estimate_with_stats(self, db):
        db.stats.create(ColumnRef("emp", "dept_id"))
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .group_by("emp.dept_id")
            .aggregate("count")
            .build()
        )
        result = Optimizer(db).optimize(query)
        assert result.rows == pytest.approx(8, rel=0.3)

    def test_scalar_aggregate_single_row(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .aggregate("sum", "emp.salary")
            .build()
        )
        result = Optimizer(db).optimize(query)
        assert result.rows == 1.0

    def test_order_by_adds_sort(self, db):
        query = (
            QueryBuilder(db.schema).table("emp").order_by("emp.age").build()
        )
        result = Optimizer(db).optimize(query)
        assert isinstance(result.plan, SortNode)

    def test_no_sort_for_single_row(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .aggregate("count")
            .order_by("emp.age")
            .build()
        )
        result = Optimizer(db).optimize(query)
        assert not isinstance(result.plan, SortNode)


class TestStreamAggregate:
    def _group_order_query(self, db):
        return (
            QueryBuilder(db.schema)
            .table("emp")
            .select("emp.age")
            .group_by("emp.age")
            .aggregate("count")
            .order_by("emp.age")
            .build()
        )

    def test_aggregate_method_recorded(self, db):
        result = Optimizer(db).optimize(self._group_order_query(db))
        node = result.plan
        while not isinstance(node, AggregateNode):
            node = node.children[0]
        assert node.method in ("hash", "stream")

    def test_stream_avoids_top_sort(self, db):
        """When stream aggregation wins, no SortNode sits on top."""
        result = Optimizer(db).optimize(self._group_order_query(db))
        if (
            isinstance(result.plan, AggregateNode)
            and result.plan.method == "stream"
        ):
            assert not isinstance(result.plan, SortNode)

    def test_methods_agree_on_results(self, db):
        """Whatever method is chosen, executed rows are identical."""
        from repro.executor import Executor

        query = self._group_order_query(db)
        result = Optimizer(db).optimize(query)
        rows = Executor(db).execute(result.plan, query).rows()
        ages = [r[0] for r in rows]
        assert ages == sorted(ages)
        emp_ages = db.table("emp").column_array("age")
        assert len(rows) == len(set(emp_ages.tolist()))

    def test_method_in_signature(self, db):
        from repro.optimizer.plans import AggregateNode as AN

        scan = Optimizer(db).optimize(
            QueryBuilder(db.schema).table("emp").build()
        ).plan
        a = AN(scan, (AGE,), (), 3, 9.0, method="hash")
        b = AN(scan, (AGE,), (), 3, 9.0, method="stream")
        assert a.signature() != b.signature()

    def test_invalid_method_rejected(self, db):
        from repro.optimizer.plans import AggregateNode as AN

        scan = Optimizer(db).optimize(
            QueryBuilder(db.schema).table("emp").build()
        ).plan
        with pytest.raises(ValueError):
            AN(scan, (AGE,), (), 3, 9.0, method="bogus")


class TestServerExtensions:
    """The two Sec 7.2 extensions."""

    def test_selectivity_override_changes_estimates(self, db):
        pred = ComparisonPredicate(AGE, "<", 30)
        query = QueryBuilder(db.schema).where("emp.age", "<", 30).build()
        opt = Optimizer(db)
        low = opt.optimize_request(
            OptimizationRequest(query, {PredicateVariable(pred): 0.001})
        )
        high = opt.optimize_request(
            OptimizationRequest(query, {PredicateVariable(pred): 0.999})
        )
        assert low.rows < high.rows
        assert low.cost <= high.cost

    def test_ignore_statistics_scoped(self, db):
        db.stats.create(AGE)
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        opt = Optimizer(db)
        with_stats = opt.optimize(query)
        without = opt.optimize_request(
            OptimizationRequest(query, ignore=[AGE])
        )
        assert without.rows != with_stats.rows
        # the ignore set is restored after the call
        assert opt.optimize(query).rows == with_stats.rows

    def test_magic_variables_listing(self, db):
        opt = Optimizer(db)
        missing = opt.magic_variables(_query(db))
        assert len(missing) == 2  # age predicate + join
        db.stats.create(AGE)
        assert len(opt.magic_variables(_query(db))) == 1


class TestBushyJoins:
    def test_bushy_never_costs_more(self, fresh_tpcd_db):
        """Bushy enumeration strictly enlarges the plan space, so the
        estimated cost of the chosen plan can only go down."""
        from repro.workload import tpcd_queries

        db = fresh_tpcd_db()
        left_deep = Optimizer(db)
        bushy = Optimizer(db, OptimizerConfig(enable_bushy_joins=True))
        for query in tpcd_queries(db.schema)[:8]:
            assert bushy.optimize(query).cost <= (
                left_deep.optimize(query).cost + 1e-9
            )

    def test_bushy_same_rows_estimate(self, fresh_tpcd_db):
        from repro.workload import tpcd_queries

        db = fresh_tpcd_db()
        bushy = Optimizer(db, OptimizerConfig(enable_bushy_joins=True))
        left_deep = Optimizer(db)
        for query in tpcd_queries(db.schema)[:5]:
            assert bushy.optimize(query).rows == pytest.approx(
                left_deep.optimize(query).rows, rel=1e-6
            )

    def test_bushy_plans_execute_correctly(self, db):
        from repro.executor import Executor

        config = OptimizerConfig(enable_bushy_joins=True)
        query = (
            QueryBuilder(db.schema)
            .join("emp.dept_id", "dept.id")
            .where("emp.age", "=", 30)
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db, config).optimize(query).plan, query
        )
        expected = int((db.table("emp").column_array("age") == 30).sum())
        assert result.row_count == expected


class TestPlanQuality:
    def test_statistics_change_join_order_on_skew(self, fresh_tpcd_db):
        """With skew, statistics should change at least some TPC-D plans."""
        from repro.workload import tpcd_queries

        db = fresh_tpcd_db(scale=0.002, z=2.0)
        opt = Optimizer(db)
        queries = tpcd_queries(db.schema)
        before = [opt.optimize(q).signature for q in queries]
        for query in queries:
            for ref in query.relevant_columns():
                key = ref
                if not db.stats.has(key):
                    db.stats.create(key)
        after = [opt.optimize(q).signature for q in queries]
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed >= 5

"""Tests for repro.executor.executor — plan interpretation correctness."""

import numpy as np
import pytest

from repro.catalog import ColumnRef
from repro.config import OptimizerConfig
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder

from tests.util import simple_db


def _run(db, query, config=None):
    opt = Optimizer(db, config) if config else Optimizer(db)
    exe = Executor(db)
    result = opt.optimize(query)
    return exe.execute(result.plan, query)


def _reference_filter(db, column, op, value):
    arr = db.table("emp").column_array(column)
    ops = {
        "=": arr == value,
        "<": arr < value,
        ">": arr > value,
    }
    return int(ops[op].sum())


class TestScanExecution:
    def test_full_scan_row_count(self, db):
        query = QueryBuilder(db.schema).table("emp").build()
        assert _run(db, query).row_count == db.row_count("emp")

    def test_filtered_scan(self, db):
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        assert _run(db, query).row_count == _reference_filter(
            db, "age", "=", 30
        )

    def test_conjunction(self, db):
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", "=", 30)
            .where("emp.salary", ">", 100_000.0)
            .build()
        )
        emp = db.table("emp")
        expected = int(
            (
                (emp.column_array("age") == 30)
                & (emp.column_array("salary") > 100_000.0)
            ).sum()
        )
        assert _run(db, query).row_count == expected

    def test_actual_cost_positive(self, db):
        query = QueryBuilder(db.schema).table("emp").build()
        assert _run(db, query).actual_cost > 0


class TestSeekExecution:
    def test_seek_matches_scan_semantics(self):
        db = simple_db(n_emp=20_000)
        db.indexes.create_index("idx_id", ColumnRef("emp", "id"))
        db.stats.create(ColumnRef("emp", "id"))
        query = QueryBuilder(db.schema).where("emp.id", "=", 77).build()
        result = _run(db, query)
        assert result.row_count == 1

    def test_seek_with_residual(self):
        db = simple_db(n_emp=20_000)
        db.indexes.create_index("idx_id", ColumnRef("emp", "id"))
        db.stats.create(ColumnRef("emp", "id"))
        query = (
            QueryBuilder(db.schema)
            .where("emp.id", "<", 100)
            .where("emp.age", "=", 30)
            .build()
        )
        emp = db.table("emp")
        expected = int(
            (
                (emp.column_array("id") < 100)
                & (emp.column_array("age") == 30)
            ).sum()
        )
        assert _run(db, query).row_count == expected


class TestJoinExecution:
    def test_fk_join_cardinality(self, db):
        query = (
            QueryBuilder(db.schema)
            .join("emp.dept_id", "dept.id")
            .build()
        )
        # every emp row matches exactly one dept row
        assert _run(db, query).row_count == db.row_count("emp")

    def test_join_with_filters(self, db):
        query = (
            QueryBuilder(db.schema)
            .join("emp.dept_id", "dept.id")
            .where("emp.age", "=", 30)
            .build()
        )
        assert _run(db, query).row_count == _reference_filter(
            db, "age", "=", 30
        )

    def test_all_algorithms_same_rows(self, db):
        results = set()
        for kwargs in (
            {},
            {"enable_hash_join": False},
            {"enable_hash_join": False, "enable_merge_join": False},
        ):
            config = OptimizerConfig(**kwargs)
            query = (
                QueryBuilder(db.schema)
                .join("emp.dept_id", "dept.id")
                .where("emp.age", "<", 30)
                .build()
            )
            results.add(_run(db, query, config).row_count)
        assert len(results) == 1

    def test_three_way_join(self, fresh_tpcd_db):
        db = fresh_tpcd_db()
        query = (
            QueryBuilder(db.schema)
            .join("orders.o_custkey", "customer.c_custkey")
            .join("customer.c_nationkey", "nation.n_nationkey")
            .build()
        )
        assert _run(db, query).row_count == db.row_count("orders")

    def test_composite_join(self, fresh_tpcd_db):
        """lineitem joins partsupp on (partkey, suppkey) pairs."""
        db = fresh_tpcd_db()
        query = (
            QueryBuilder(db.schema)
            .join("lineitem.l_partkey", "partsupp.ps_partkey")
            .join("lineitem.l_suppkey", "partsupp.ps_suppkey")
            .build()
        )
        result = _run(db, query)
        # every lineitem references an existing part and supplier, but the
        # (part, supplier) pair exists in partsupp only for ~per_part rows
        li = db.table("lineitem")
        ps = db.table("partsupp")
        pairs = set(
            zip(
                ps.column_array("ps_partkey").tolist(),
                ps.column_array("ps_suppkey").tolist(),
            )
        )
        expected = sum(
            1
            for p, s in zip(
                li.column_array("l_partkey").tolist(),
                li.column_array("l_suppkey").tolist(),
            )
            if (p, s) in pairs
        )
        assert result.row_count == expected


class TestAggregationExecution:
    def test_count_star_groups(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .select("emp.dept_id")
            .group_by("emp.dept_id")
            .aggregate("count")
            .build()
        )
        result = _run(db, query)
        depts = np.unique(db.table("emp").column_array("dept_id"))
        assert result.row_count == depts.shape[0]
        counts = {row[0]: row[1] for row in result.rows()}
        for dept in depts:
            true = int(
                (db.table("emp").column_array("dept_id") == dept).sum()
            )
            assert counts[int(dept)] == true

    def test_sum_avg_min_max(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .aggregate("sum", "emp.salary")
            .aggregate("avg", "emp.salary")
            .aggregate("min", "emp.salary")
            .aggregate("max", "emp.salary")
            .build()
        )
        (row,) = _run(db, query).rows()
        sal = db.table("emp").column_array("salary")
        assert row[0] == pytest.approx(sal.sum())
        assert row[1] == pytest.approx(sal.mean())
        assert row[2] == pytest.approx(sal.min())
        assert row[3] == pytest.approx(sal.max())

    def test_scalar_aggregate_one_row(self, db):
        query = (
            QueryBuilder(db.schema).table("emp").aggregate("count").build()
        )
        result = _run(db, query)
        assert result.rows() == [(float(db.row_count("emp")),)]

    def test_group_by_empty_input(self, db):
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", "=", -99)
            .group_by("emp.dept_id")
            .aggregate("count")
            .build()
        )
        assert _run(db, query).row_count == 0

    def test_multi_column_grouping(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .group_by("emp.dept_id", "emp.age")
            .aggregate("count")
            .build()
        )
        result = _run(db, query)
        emp = db.table("emp")
        pairs = set(
            zip(
                emp.column_array("dept_id").tolist(),
                emp.column_array("age").tolist(),
            )
        )
        assert result.row_count == len(pairs)


class TestSortExecution:
    def test_numeric_sort(self, db):
        query = (
            QueryBuilder(db.schema)
            .select("emp.age")
            .order_by("emp.age")
            .build()
        )
        rows = _run(db, query).rows()
        ages = [r[0] for r in rows]
        assert ages == sorted(ages)

    def test_string_sort_lexicographic(self, db):
        query = (
            QueryBuilder(db.schema)
            .select("emp.name")
            .order_by("emp.name")
            .build()
        )
        rows = _run(db, query).rows()
        names = [r[0] for r in rows]
        assert names == sorted(names)


class TestOutputRendering:
    def test_strings_decoded(self, db):
        query = QueryBuilder(db.schema).select("emp.name").build()
        rows = _run(db, query).rows(limit=3)
        assert all(isinstance(r[0], str) for r in rows)

    def test_dates_decoded_iso(self, db):
        query = QueryBuilder(db.schema).select("emp.hired").build()
        rows = _run(db, query).rows(limit=1)
        assert rows[0][0].count("-") == 2

    def test_limit(self, db):
        query = QueryBuilder(db.schema).table("emp").build()
        assert len(_run(db, query).rows(limit=5)) == 5

    def test_select_star_all_columns(self, db):
        query = QueryBuilder(db.schema).table("dept").build()
        rows = _run(db, query).rows()
        assert len(rows[0]) == 3


class TestOperatorObservations:
    def test_every_operator_observed_bottom_up(self, db):
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", ">", 25)
            .join("emp.dept_id", "dept.id")
            .build()
        )
        result = _run(db, query)
        kinds = [o.operator for o in result.operator_observations]
        assert kinds.count("join") == 1
        assert len(kinds) >= 3  # two inputs + the join
        # the root operator is observed last and its actual cardinality
        # is the result's row count
        assert result.operator_observations[-1].actual_rows == result.row_count

    def test_observations_feed_a_store(self, db):
        from repro.feedback import FeedbackStore

        store = FeedbackStore()
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        opt, exe = Optimizer(db), Executor(db)
        plan = opt.optimize(query).plan
        exe.execute(plan, query, feedback=store)
        assert store.counters()["observations"] == len(
            exe.execute(plan, query).operator_observations
        )
        assert store.q_error_for_columns("emp", ["age"]) >= 1.0

    def test_repr_has_rows_cost_and_operator_count(self, db):
        query = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        result = _run(db, query)
        text = repr(result)
        assert text.startswith(f"ExecutionResult(row_count={result.row_count}")
        assert f"actual_cost={result.actual_cost:.2f}" in text
        assert f"operators={len(result.operator_observations)}" in text

"""Tests for HAVING support across parser, binder, builder, and render."""

import pytest

from repro.errors import SqlBindError, SqlParseError
from repro.sql.binder import parse_and_bind
from repro.sql.builder import QueryBuilder
from repro.sql.expressions import HavingPredicate
from repro.sql.parser import parse_statement
from repro.sql.render import render_statement

from tests.util import simple_schema


def _bind(sql):
    return parse_and_bind(sql, simple_schema())


class TestParsing:
    def test_basic_having(self):
        ast = parse_statement(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 5"
        )
        assert len(ast.having) == 1

    def test_multiple_conditions(self):
        ast = parse_statement(
            "SELECT dept_id FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 5 AND SUM(salary) < 1000000"
        )
        assert len(ast.having) == 2

    def test_having_then_order_by(self):
        ast = parse_statement(
            "SELECT dept_id FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 5 ORDER BY dept_id"
        )
        assert ast.having and ast.order_by

    def test_non_aggregate_having_rejected(self):
        with pytest.raises(SqlParseError):
            parse_statement(
                "SELECT dept_id FROM emp GROUP BY dept_id HAVING age > 5"
            )

    def test_missing_comparison_rejected(self):
        with pytest.raises(SqlParseError):
            parse_statement(
                "SELECT dept_id FROM emp GROUP BY dept_id HAVING COUNT(*)"
            )


class TestBinding:
    def test_bound_having(self):
        query = _bind(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 5"
        )
        assert len(query.having) == 1
        assert isinstance(query.having[0], HavingPredicate)
        assert query.has_aggregation

    def test_having_aggregate_need_not_be_projected(self):
        query = _bind(
            "SELECT dept_id FROM emp GROUP BY dept_id "
            "HAVING SUM(salary) > 100"
        )
        assert len(query.all_aggregates()) == 1

    def test_all_aggregates_dedupes(self):
        query = _bind(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 5"
        )
        assert len(query.all_aggregates()) == 1

    def test_string_literal_rejected(self):
        with pytest.raises(SqlBindError):
            _bind(
                "SELECT dept_id FROM emp GROUP BY dept_id "
                "HAVING COUNT(*) > 'five'"
            )

    def test_having_without_group_by_rejected(self):
        from repro.sql.expressions import (
            Aggregate,
            AggregateFunction,
        )
        from repro.sql.query import Query

        with pytest.raises(SqlBindError):
            Query(
                tables=("emp",),
                having=(
                    HavingPredicate(
                        Aggregate(AggregateFunction.COUNT, None), ">", 5
                    ),
                ),
            )

    def test_invalid_operator_rejected(self):
        from repro.sql.expressions import Aggregate, AggregateFunction

        with pytest.raises(ValueError):
            HavingPredicate(
                Aggregate(AggregateFunction.COUNT, None), "LIKE", 5
            )


class TestBuilderAndRender:
    def test_builder_having(self):
        query = (
            QueryBuilder(simple_schema())
            .table("emp")
            .select("emp.dept_id")
            .group_by("emp.dept_id")
            .having("count", None, ">", 5)
            .build()
        )
        assert len(query.having) == 1

    def test_render_round_trip(self):
        schema = simple_schema()
        sql = (
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 5 AND SUM(salary) < 500000.5"
        )
        bound = parse_and_bind(sql, schema)
        rendered = render_statement(bound, schema)
        assert parse_and_bind(rendered, schema) == bound


class TestExecution:
    def test_having_filters_groups(self, db):
        from repro.executor import Executor
        from repro.optimizer import Optimizer

        query = parse_and_bind(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 20",
            db.schema,
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        rows = result.rows()
        assert rows  # the skewed dept distribution has big departments
        assert all(count > 20 for _, count in rows)
        # reference check
        import numpy as np

        depts, counts = np.unique(
            db.table("emp").column_array("dept_id"), return_counts=True
        )
        expected = {int(d) for d, c in zip(depts, counts) if c > 20}
        assert {int(d) for d, _ in rows} == expected

    def test_having_on_unprojected_aggregate(self, db):
        from repro.executor import Executor
        from repro.optimizer import Optimizer

        query = parse_and_bind(
            "SELECT dept_id FROM emp GROUP BY dept_id "
            "HAVING SUM(salary) > 1000000",
            db.schema,
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        rows = result.rows()
        assert all(len(row) == 1 for row in rows)

    def test_having_plan_has_having_node(self, db):
        from repro.optimizer import Optimizer
        from repro.optimizer.plans import HavingNode

        query = parse_and_bind(
            "SELECT dept_id FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 3",
            db.schema,
        )
        plan = Optimizer(db).optimize(query).plan
        assert any(isinstance(n, HavingNode) for n in plan.walk())

    def test_having_estimate_uses_magic(self, db):
        from repro.optimizer.selectivity import MAGIC_RANGE
        from repro.optimizer import Optimizer

        base = parse_and_bind(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id",
            db.schema,
        )
        filtered = parse_and_bind(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id "
            "HAVING COUNT(*) > 3",
            db.schema,
        )
        opt = Optimizer(db)
        rows_base = opt.optimize(base).rows
        rows_filtered = opt.optimize(filtered).rows
        assert rows_filtered == pytest.approx(
            rows_base * MAGIC_RANGE
        )

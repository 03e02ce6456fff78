"""Tests for repro.sql.binder."""

import pytest

from repro.catalog import ColumnRef
from repro.datagen.dates import date_to_daynum
from repro.errors import SqlBindError
from repro.sql.binder import bind, parse_and_bind
from repro.sql.expressions import Aggregate, ColumnExpression
from repro.sql.parser import parse_statement
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    LikePredicate,
)
from repro.sql.query import DmlStatement, Query

from tests.util import simple_schema


def _bind(sql):
    return parse_and_bind(sql, simple_schema())


class TestSelectBinding:
    def test_simple_select(self):
        query = _bind("SELECT * FROM emp")
        assert isinstance(query, Query)
        assert query.tables == ("emp",)

    def test_unknown_table(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM missing")

    def test_unknown_column(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT zz FROM emp")

    def test_alias_resolution(self):
        query = _bind("SELECT e.age FROM emp e")
        assert query.projections == (
            ColumnExpression(ColumnRef("emp", "age")),
        )

    def test_bare_column_resolution(self):
        query = _bind("SELECT age FROM emp, dept WHERE dept_id = dept.id")
        assert query.projections[0].column == ColumnRef("emp", "age")

    def test_ambiguous_bare_column(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT id FROM emp, dept WHERE dept_id = dept.id")

    def test_self_join_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp, emp")

    def test_join_predicate_separated(self):
        query = _bind("SELECT * FROM emp, dept WHERE emp.dept_id = dept.id")
        assert len(query.joins) == 1
        assert len(query.predicates) == 0
        assert isinstance(query.joins[0], JoinPredicate)

    def test_selection_predicates_kept(self):
        query = _bind("SELECT * FROM emp WHERE age > 30 AND salary <= 100")
        assert len(query.predicates) == 2

    def test_non_equi_join_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp, dept WHERE emp.dept_id < dept.id")

    def test_same_table_column_comparison_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE age = id")

    def test_join_type_mismatch_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp, dept WHERE emp.name = dept.id")


class TestLiteralCoercion:
    def test_date_string_converted(self):
        query = _bind("SELECT * FROM emp WHERE hired >= '1995-06-01'")
        (pred,) = query.predicates
        assert pred.value == date_to_daynum("1995-06-01")

    def test_date_keyword_literal(self):
        query = _bind("SELECT * FROM emp WHERE hired >= DATE '1995-06-01'")
        (pred,) = query.predicates
        assert pred.value == date_to_daynum("1995-06-01")

    def test_invalid_date_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE hired >= 'June 1st'")

    def test_string_equality(self):
        query = _bind("SELECT * FROM emp WHERE name = 'e7'")
        (pred,) = query.predicates
        assert pred.value == "e7"

    def test_string_range_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE name > 'a'")

    def test_numeric_string_mismatch(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE age = 'thirty'")

    def test_string_numeric_mismatch(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE name = 5")

    def test_flipped_comparison_normalized(self):
        query = _bind("SELECT * FROM emp WHERE 30 < age")
        (pred,) = query.predicates
        assert pred.op == ">"
        assert pred.column == ColumnRef("emp", "age")

    def test_between_bound_coercion(self):
        query = _bind(
            "SELECT * FROM emp WHERE hired BETWEEN '1994-01-01' AND "
            "'1995-01-01'"
        )
        (pred,) = query.predicates
        assert isinstance(pred, BetweenPredicate)
        assert pred.low == date_to_daynum("1994-01-01")

    def test_in_list_coercion(self):
        query = _bind("SELECT * FROM emp WHERE name IN ('a', 'b')")
        (pred,) = query.predicates
        assert isinstance(pred, InPredicate)
        assert pred.values == ("a", "b")

    def test_like_on_string(self):
        query = _bind("SELECT * FROM emp WHERE name LIKE 'e%'")
        (pred,) = query.predicates
        assert isinstance(pred, LikePredicate)

    def test_like_on_numeric_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE age LIKE '3%'")

    def test_date_literal_on_numeric_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT * FROM emp WHERE age = DATE '1995-01-01'")


class TestDistinctAndAggregates:
    def test_distinct_becomes_group_by(self):
        query = _bind("SELECT DISTINCT name FROM emp")
        assert query.group_by == (ColumnRef("emp", "name"),)

    def test_distinct_with_expression_rejected(self):
        with pytest.raises(SqlBindError):
            _bind("SELECT DISTINCT age + 1 FROM emp")

    def test_aggregate_bound(self):
        query = _bind("SELECT COUNT(*), SUM(salary) FROM emp")
        assert isinstance(query.projections[0], Aggregate)
        assert query.has_aggregation

    @pytest.mark.parametrize("function", ["SUM", "AVG", "MIN", "MAX"])
    def test_value_aggregate_over_string_rejected(self, function):
        with pytest.raises(SqlBindError, match="STRING column emp.name"):
            _bind(f"SELECT {function}(name) FROM emp")
        with pytest.raises(SqlBindError, match="STRING column emp.name"):
            _bind(f"SELECT dept_id, {function}(name) FROM emp GROUP BY dept_id")
        with pytest.raises(SqlBindError, match="STRING column emp.name"):
            _bind(
                f"SELECT dept_id FROM emp GROUP BY dept_id "
                f"HAVING {function}(name) > 1"
            )

    def test_count_over_string_bound(self):
        query = _bind("SELECT COUNT(name), MAX(age) FROM emp")
        assert [str(p) for p in query.projections] == [
            "COUNT(emp.name)",
            "MAX(emp.age)",
        ]

    def test_group_by_bound(self):
        query = _bind(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id"
        )
        assert query.group_by == (ColumnRef("emp", "dept_id"),)

    def test_order_by_bound(self):
        query = _bind("SELECT age FROM emp ORDER BY age")
        assert query.order_by == (ColumnRef("emp", "age"),)


class TestDmlBinding:
    def test_insert(self):
        stmt = parse_and_bind(
            "INSERT INTO dept (id, dname, budget) VALUES (9, 'x', 1.5)",
            simple_schema(),
        )
        assert isinstance(stmt, DmlStatement)
        assert stmt.rows == ({"id": 9, "dname": "x", "budget": 1.5},)

    def test_insert_width_mismatch(self):
        with pytest.raises(SqlBindError):
            parse_and_bind(
                "INSERT INTO dept (id, dname) VALUES (1)", simple_schema()
            )

    def test_insert_unknown_column(self):
        with pytest.raises(SqlBindError):
            parse_and_bind(
                "INSERT INTO dept (zz) VALUES (1)", simple_schema()
            )

    def test_delete_with_predicate(self):
        stmt = parse_and_bind(
            "DELETE FROM emp WHERE age = 30", simple_schema()
        )
        assert stmt.kind == "delete"
        assert isinstance(stmt.predicate, ComparisonPredicate)

    def test_delete_whole_table(self):
        stmt = parse_and_bind("DELETE FROM emp", simple_schema())
        assert stmt.predicate is None

    def test_update(self):
        stmt = parse_and_bind(
            "UPDATE emp SET age = 40 WHERE id = 3", simple_schema()
        )
        assert stmt.assignments == {"age": 40}

    def test_update_unknown_table(self):
        with pytest.raises(SqlBindError):
            parse_and_bind("UPDATE zz SET a = 1", simple_schema())

    def test_bind_rejects_unknown_ast(self):
        with pytest.raises(SqlBindError):
            bind(object(), simple_schema())

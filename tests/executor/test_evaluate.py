"""Tests for repro.executor.evaluate."""

import numpy as np
import pytest

from repro.catalog import ColumnRef
from repro.errors import ExecutionError
from repro.executor.evaluate import (
    column_mask,
    decode_output_value,
    evaluate_scalar,
)
from repro.executor.relation import Relation
from repro.sql.expressions import (
    ArithmeticExpression,
    ColumnExpression,
    LiteralExpression,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
)

from tests.util import simple_db

AGE = ColumnRef("emp", "age")
NAME = ColumnRef("emp", "name")
SAL = ColumnRef("emp", "salary")


def predicate_mask(database, relation, predicate):
    (ref,) = predicate.columns()
    return column_mask(database, predicate, relation.column(ref))


@pytest.fixture
def emp_rel(db):
    data = db.table("emp")
    return Relation.from_table(data, "emp", data.schema.column_names())


class TestPredicateMask:
    def test_equality(self, db, emp_rel):
        mask = predicate_mask(db, emp_rel, ComparisonPredicate(AGE, "=", 30))
        assert mask.sum() == (emp_rel.column(AGE) == 30).sum()

    def test_range_ops(self, db, emp_rel):
        ages = emp_rel.column(AGE)
        for op, expect in [
            ("<", ages < 30),
            ("<=", ages <= 30),
            (">", ages > 30),
            (">=", ages >= 30),
            ("<>", ages != 30),
        ]:
            mask = predicate_mask(
                db, emp_rel, ComparisonPredicate(AGE, op, 30)
            )
            assert (mask == expect).all()

    def test_between(self, db, emp_rel):
        mask = predicate_mask(db, emp_rel, BetweenPredicate(AGE, 25, 35))
        ages = emp_rel.column(AGE)
        assert (mask == ((ages >= 25) & (ages <= 35))).all()

    def test_in_list(self, db, emp_rel):
        mask = predicate_mask(db, emp_rel, InPredicate(AGE, (20, 30)))
        ages = emp_rel.column(AGE)
        assert (mask == np.isin(ages, [20, 30])).all()

    def test_string_equality(self, db, emp_rel):
        mask = predicate_mask(
            db, emp_rel, ComparisonPredicate(NAME, "=", "emp3")
        )
        assert mask.sum() == 1

    def test_unknown_string_matches_nothing(self, db, emp_rel):
        mask = predicate_mask(
            db, emp_rel, ComparisonPredicate(NAME, "=", "ghost")
        )
        assert mask.sum() == 0

    def test_unknown_string_not_equal_matches_all(self, db, emp_rel):
        mask = predicate_mask(
            db, emp_rel, ComparisonPredicate(NAME, "<>", "ghost")
        )
        assert mask.all()

    def test_like(self, db, emp_rel):
        mask = predicate_mask(db, emp_rel, LikePredicate(NAME, "emp1%"))
        names = [f"emp{i}" for i in range(1, db.row_count("emp") + 1)]
        expected = sum(1 for n in names if n.startswith("emp1"))
        assert mask.sum() == expected

    def test_in_list_with_unknown_strings(self, db, emp_rel):
        mask = predicate_mask(
            db, emp_rel, InPredicate(NAME, ("emp1", "ghost"))
        )
        assert mask.sum() == 1


class TestEvaluateScalar:
    def test_column(self, db, emp_rel):
        out = evaluate_scalar(db, emp_rel, ColumnExpression(AGE))
        assert (out == emp_rel.column(AGE)).all()

    def test_literal_broadcast(self, db, emp_rel):
        out = evaluate_scalar(db, emp_rel, LiteralExpression(2.5))
        assert out.shape[0] == emp_rel.row_count
        assert (out == 2.5).all()

    def test_arithmetic(self, db, emp_rel):
        expr = ArithmeticExpression(
            "*",
            ColumnExpression(SAL),
            ArithmeticExpression(
                "-", LiteralExpression(1), LiteralExpression(0.1)
            ),
        )
        out = evaluate_scalar(db, emp_rel, expr)
        assert out == pytest.approx(emp_rel.column(SAL) * 0.9)

    def test_division_by_zero_guarded(self, db, emp_rel):
        expr = ArithmeticExpression(
            "/", ColumnExpression(SAL), LiteralExpression(0)
        )
        out = evaluate_scalar(db, emp_rel, expr)
        assert (out == 0.0).all()

    def test_string_arithmetic_rejected(self, db, emp_rel):
        expr = ArithmeticExpression(
            "+", ColumnExpression(NAME), LiteralExpression(1)
        )
        with pytest.raises(ExecutionError):
            evaluate_scalar(db, emp_rel, expr)


class TestDecodeOutput:
    def test_string_decoded(self, db):
        code = db.table("emp").string_dictionary("name").lookup("emp1")
        assert decode_output_value(db, NAME, code) == "emp1"

    def test_date_decoded(self, db):
        ref = ColumnRef("emp", "hired")
        assert decode_output_value(db, ref, 0) == "1992-01-01"

    def test_int_column(self, db):
        out = decode_output_value(db, AGE, np.int64(30))
        assert out == 30 and isinstance(out, int)

    def test_plain_float(self, db):
        out = decode_output_value(db, None, np.float64(1.5))
        assert out == 1.5 and isinstance(out, float)

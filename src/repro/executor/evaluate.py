"""Vectorized evaluation of predicates and scalar expressions."""

from __future__ import annotations

import numpy as np

from repro.catalog import ColumnRef, ColumnType
from repro.errors import ExecutionError
from repro.executor.relation import Relation
from repro.sql.expressions import (
    ArithmeticExpression,
    ColumnExpression,
    LiteralExpression,
    ScalarExpression,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
    Predicate,
)

COMPARATORS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def encode_literal(database, ref: ColumnRef, value):
    """Map a logical literal to the stored domain of ``ref``.

    Returns ``None`` for a string never present in the dictionary (the
    predicate then matches nothing / everything depending on the op).
    """
    ctype = database.schema.column(ref).type
    if ctype == ColumnType.STRING:
        return database.table(ref.table).string_dictionary(
            ref.column
        ).lookup(value)
    return value


# joins are evaluated by the join operator, not as row masks
# repro-lint: dispatch=Predicate except=JoinPredicate
def column_mask(
    database, predicate: Predicate, values: np.ndarray
) -> np.ndarray:
    """Boolean mask of the rows whose value of the predicate's one column,
    ``values``, satisfies a selection predicate."""
    (ref,) = predicate.columns()
    if isinstance(predicate, ComparisonPredicate):
        literal = encode_literal(database, ref, predicate.value)
        if literal is None:
            if predicate.op == "=":
                return np.zeros(values.shape[0], dtype=bool)
            if predicate.op == "<>":
                return np.ones(values.shape[0], dtype=bool)
            raise ExecutionError(
                f"order comparison with unknown string in {predicate}"
            )
        return COMPARATORS[predicate.op](values, literal)
    if isinstance(predicate, BetweenPredicate):
        return (values >= predicate.low) & (values <= predicate.high)
    if isinstance(predicate, InPredicate):
        encoded = [
            encode_literal(database, ref, value) for value in predicate.values
        ]
        present = [code for code in encoded if code is not None]
        if not present:
            return np.zeros(values.shape[0], dtype=bool)
        return np.isin(values, np.asarray(present))
    if isinstance(predicate, LikePredicate):
        dictionary = database.table(ref.table).string_dictionary(ref.column)
        codes = dictionary.codes_matching_like(predicate.pattern)
        if codes.shape[0] == 0:
            return np.zeros(values.shape[0], dtype=bool)
        return np.isin(values, codes)
    raise ExecutionError(f"unsupported predicate {predicate}")


# repro-lint: dispatch=ScalarExpression
def evaluate_scalar(
    database, relation: Relation, expression: ScalarExpression
) -> np.ndarray:
    """Evaluate a scalar expression to a per-row array.

    STRING columns evaluate to their dictionary codes; arithmetic over
    STRING columns is rejected.
    """
    if isinstance(expression, ColumnExpression):
        return relation.column(expression.column)
    if isinstance(expression, LiteralExpression):
        return np.full(relation.row_count, expression.value)
    if isinstance(expression, ArithmeticExpression):
        left = evaluate_scalar(database, relation, expression.left)
        right = evaluate_scalar(database, relation, expression.right)
        for part in (expression.left, expression.right):
            for ref in part.columns():
                if database.schema.column(ref).type == ColumnType.STRING:
                    raise ExecutionError(
                        f"arithmetic over STRING column {ref}"
                    )
        left = left.astype(np.float64, copy=False)
        right = right.astype(np.float64, copy=False)
        if expression.op == "+":
            return left + right
        if expression.op == "-":
            return left - right
        if expression.op == "*":
            return left * right
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(right != 0, left / right, 0.0)
    raise ExecutionError(f"unsupported scalar expression {expression}")


def decode_output_value(database, key, value):
    """Decode one output cell for display.

    String codes become strings, DATE day numbers become ISO dates, and
    numpy scalars become plain Python numbers.
    """
    if isinstance(key, ColumnRef):
        ctype = database.schema.column(key).type
        if ctype == ColumnType.STRING:
            return database.table(key.table).string_dictionary(
                key.column
            ).decode(int(value))
        if ctype == ColumnType.DATE:
            from repro.datagen.dates import daynum_to_date

            return daynum_to_date(int(value))
        if ctype == ColumnType.INT:
            return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value

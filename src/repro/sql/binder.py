"""Semantic binding: unbound AST + schema -> normalized statements.

The binder resolves aliases and bare column names, type-checks literals
against column types (converting ISO date strings to stored day numbers),
splits the WHERE conjunction into selection predicates and equijoins, and
folds ``SELECT DISTINCT c1, c2`` into ``GROUP BY c1, c2`` — the paper
treats SELECT DISTINCT and GROUP BY identically for statistics purposes
(Sec 4.1).
"""

from __future__ import annotations

from typing import Dict, List

from repro.catalog import ColumnRef, ColumnType, Schema
from repro.datagen.dates import date_to_daynum
from repro.errors import CatalogError, SqlBindError
from repro.sql.ast import (
    DeleteAst,
    InsertAst,
    RawAggregate,
    RawArithmetic,
    RawBetween,
    RawColumn,
    RawComparison,
    RawCondition,
    RawExpression,
    RawIn,
    RawLike,
    RawLiteral,
    SelectAst,
    UpdateAst,
)
from repro.sql.expressions import (
    Aggregate,
    AggregateFunction,
    ArithmeticExpression,
    ColumnExpression,
    HavingPredicate,
    LiteralExpression,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    LikePredicate,
)
from repro.sql.query import DmlStatement, Query

_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# repro-lint: dispatch=StatementAst
def bind(ast, schema: Schema):
    """Bind a parsed statement against ``schema``.

    Returns:
        :class:`~repro.sql.query.Query` for SELECT statements,
        :class:`~repro.sql.query.DmlStatement` for INSERT/DELETE/UPDATE.

    Raises:
        SqlBindError: on unknown tables/columns, ambiguous names, type
            mismatches, or constructs outside the supported subset.
    """
    if isinstance(ast, SelectAst):
        return _Binder(schema).bind_select(ast)
    if isinstance(ast, InsertAst):
        return _Binder(schema).bind_insert(ast)
    if isinstance(ast, DeleteAst):
        return _Binder(schema).bind_delete(ast)
    if isinstance(ast, UpdateAst):
        return _Binder(schema).bind_update(ast)
    raise SqlBindError(f"cannot bind object of type {type(ast).__name__}")


class _Binder:
    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._alias_to_table: Dict[str, str] = {}
        self._tables: List[str] = []

    # ------------------------------------------------------------------
    # scope handling
    # ------------------------------------------------------------------

    def _enter_tables(self, from_tables) -> None:
        for name, alias in from_tables:
            if not self._schema.has_table(name):
                raise SqlBindError(f"unknown table {name!r}")
            if name in self._tables:
                raise SqlBindError(
                    f"table {name!r} referenced more than once; self-joins "
                    "are outside the supported subset"
                )
            self._tables.append(name)
            self._alias_to_table[name] = name
            if alias:
                if alias in self._alias_to_table:
                    raise SqlBindError(f"duplicate alias {alias!r}")
                self._alias_to_table[alias] = name

    def _resolve(self, raw: RawColumn) -> ColumnRef:
        if raw.qualifier is not None:
            table = self._alias_to_table.get(raw.qualifier)
            if table is None:
                raise SqlBindError(
                    f"unknown table or alias {raw.qualifier!r}"
                )
            if raw.name not in self._schema.table(table):
                raise SqlBindError(
                    f"no column {raw.name!r} in table {table!r}"
                )
            return ColumnRef(table, raw.name)
        try:
            return self._schema.resolve_column(raw.name, self._tables)
        except CatalogError as exc:
            raise SqlBindError(str(exc)) from None

    def _column_type(self, ref: ColumnRef) -> ColumnType:
        return self._schema.column(ref).type

    # ------------------------------------------------------------------
    # literal coercion
    # ------------------------------------------------------------------

    def _coerce_literal(self, ref: ColumnRef, literal: RawLiteral):
        """Check and convert a literal for comparison against ``ref``."""
        ctype = self._column_type(ref)
        value = literal.value
        if ctype == ColumnType.DATE:
            if isinstance(value, str):
                try:
                    return date_to_daynum(value)
                except ValueError as exc:
                    raise SqlBindError(
                        f"invalid date literal {value!r} for {ref}: {exc}"
                    ) from None
            if isinstance(value, (int, float)) and not literal.is_date:
                return int(value)  # raw day number
            raise SqlBindError(f"expected a date literal for {ref}")
        if literal.is_date:
            raise SqlBindError(
                f"DATE literal compared to non-DATE column {ref}"
            )
        if ctype == ColumnType.STRING:
            if not isinstance(value, str):
                raise SqlBindError(
                    f"expected a string literal for {ref}, got {value!r}"
                )
            return value
        if isinstance(value, str):
            raise SqlBindError(
                f"expected a numeric literal for {ref}, got string {value!r}"
            )
        if ctype == ColumnType.INT:
            return int(value) if float(value).is_integer() else float(value)
        return float(value)

    def _check_op_for_type(self, ref: ColumnRef, op: str) -> None:
        if self._column_type(ref) == ColumnType.STRING and op not in ("=", "<>"):
            raise SqlBindError(
                f"order comparison {op!r} on STRING column {ref} is not "
                "supported (dictionary codes are unordered)"
            )

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def bind_select(self, ast: SelectAst) -> Query:
        if not ast.from_tables:
            raise SqlBindError("SELECT requires a FROM clause")
        self._enter_tables(ast.from_tables)

        predicates = []
        joins = []
        for condition in ast.where:
            bound = self._bind_condition(condition)
            if isinstance(bound, JoinPredicate):
                if bound not in joins:
                    joins.append(bound)
            else:
                predicates.append(bound)

        projections = [self._bind_select_item(item) for item in ast.select_items]
        group_by = [self._resolve(col) for col in ast.group_by]
        order_by = [self._resolve(col) for col in ast.order_by]
        having = [self._bind_having(cond) for cond in ast.having]

        has_aggregate = any(isinstance(p, Aggregate) for p in projections)
        if ast.distinct and not group_by and not has_aggregate:
            # SELECT DISTINCT c1, c2 == GROUP BY c1, c2 for our purposes
            distinct_columns = []
            for item in projections:
                if not isinstance(item, ColumnExpression):
                    raise SqlBindError(
                        "SELECT DISTINCT supports plain column lists only"
                    )
                distinct_columns.append(item.column)
            group_by = distinct_columns

        return Query(
            tables=tuple(self._tables),
            predicates=tuple(predicates),
            joins=tuple(joins),
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            projections=tuple(projections),
            having=tuple(having),
            text=ast.text,
        )

    def _bind_having(self, condition: RawComparison) -> HavingPredicate:
        if not isinstance(condition.left, RawAggregate):
            raise SqlBindError(
                "HAVING conditions must compare an aggregate to a number"
            )
        if not isinstance(condition.right, RawLiteral) or isinstance(
            condition.right.value, str
        ):
            raise SqlBindError(
                "HAVING conditions must compare against a numeric literal"
            )
        aggregate = self._bind_select_item(condition.left)
        return HavingPredicate(
            aggregate, condition.op, condition.right.value
        )

    def _bind_select_item(self, item: RawExpression):
        if isinstance(item, RawAggregate):
            function = AggregateFunction(item.function.lower())
            argument = (
                None
                if item.argument is None
                else self._bind_scalar(item.argument)
            )
            if function != AggregateFunction.COUNT and argument is not None:
                for ref in argument.columns():
                    if self._column_type(ref) == ColumnType.STRING:
                        raise SqlBindError(
                            f"{function.value.upper()} over STRING column "
                            f"{ref} is not supported (it would aggregate "
                            "dictionary codes)"
                        )
            return Aggregate(function, argument)
        return self._bind_scalar(item)

    # aggregates are bound by _bind_select_item, not as scalars
    # repro-lint: dispatch=RawExpression except=RawAggregate
    def _bind_scalar(self, expr: RawExpression):
        if isinstance(expr, RawColumn):
            return ColumnExpression(self._resolve(expr))
        if isinstance(expr, RawLiteral):
            return LiteralExpression(expr.value)
        if isinstance(expr, RawArithmetic):
            return ArithmeticExpression(
                expr.op,
                self._bind_scalar(expr.left),
                self._bind_scalar(expr.right),
            )
        raise SqlBindError(f"unsupported scalar expression {expr!r}")

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    # repro-lint: dispatch=RawCondition
    def _bind_condition(self, condition: RawCondition):
        if isinstance(condition, RawComparison):
            return self._bind_comparison(condition)
        if isinstance(condition, RawBetween):
            ref = self._resolve(condition.column)
            self._check_op_for_type(ref, "<")
            low = self._coerce_literal(ref, condition.low)
            high = self._coerce_literal(ref, condition.high)
            return BetweenPredicate(ref, low, high)
        if isinstance(condition, RawIn):
            ref = self._resolve(condition.column)
            values = tuple(
                self._coerce_literal(ref, value) for value in condition.values
            )
            return InPredicate(ref, values)
        if isinstance(condition, RawLike):
            ref = self._resolve(condition.column)
            if self._column_type(ref) != ColumnType.STRING:
                raise SqlBindError(
                    f"LIKE on non-STRING column {ref} is not supported"
                )
            return LikePredicate(ref, condition.pattern)
        raise SqlBindError(f"unsupported condition {condition!r}")

    def _bind_comparison(self, condition: RawComparison):
        left_is_col = isinstance(condition.left, RawColumn)
        right_is_col = isinstance(condition.right, RawColumn)
        if left_is_col and right_is_col:
            left = self._resolve(condition.left)
            right = self._resolve(condition.right)
            if left.table == right.table:
                raise SqlBindError(
                    f"column-to-column comparison within one table "
                    f"({left} {condition.op} {right}) is not supported"
                )
            if condition.op != "=":
                raise SqlBindError(
                    f"only equijoins are supported, got {condition.op!r}"
                )
            if self._column_type(left) != self._column_type(right):
                raise SqlBindError(
                    f"join column type mismatch: {left} vs {right}"
                )
            return JoinPredicate(left, right)
        if left_is_col and isinstance(condition.right, RawLiteral):
            ref = self._resolve(condition.left)
            op = condition.op
        elif right_is_col and isinstance(condition.left, RawLiteral):
            ref = self._resolve(condition.right)
            op = _FLIPPED_OP[condition.op]
            condition = RawComparison(op, condition.right, condition.left)
        else:
            raise SqlBindError(
                "comparisons must be column-vs-literal or column-vs-column"
            )
        self._check_op_for_type(ref, op)
        literal = condition.right
        assert isinstance(literal, RawLiteral)
        value = self._coerce_literal(ref, literal)
        return ComparisonPredicate(ref, op, value)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _bind_single_table_where(self, table: str, where):
        self._tables = [table]
        self._alias_to_table = {table: table}
        predicates = []
        for condition in where:
            bound = self._bind_condition(condition)
            if isinstance(bound, JoinPredicate):
                raise SqlBindError("DML WHERE clauses cannot contain joins")
            predicates.append(bound)
        if not predicates:
            return None
        if len(predicates) > 1:
            raise SqlBindError(
                "DML WHERE clauses support a single conjunct in this subset"
            )
        return predicates[0]

    def bind_insert(self, ast: InsertAst) -> DmlStatement:
        if not self._schema.has_table(ast.table):
            raise SqlBindError(f"unknown table {ast.table!r}")
        table = self._schema.table(ast.table)
        columns = ast.columns or table.column_names()
        for name in columns:
            try:
                table.column(name)
            except CatalogError as exc:
                raise SqlBindError(str(exc)) from None
        rows = []
        for raw_row in ast.rows:
            if len(raw_row) != len(columns):
                raise SqlBindError(
                    f"INSERT row has {len(raw_row)} values for "
                    f"{len(columns)} columns"
                )
            row = {}
            for name, literal in zip(columns, raw_row):
                ref = ColumnRef(ast.table, name)
                row[name] = self._coerce_literal(ref, literal)
            rows.append(row)
        return DmlStatement(
            kind="insert", table=ast.table, rows=tuple(rows), text=ast.text
        )

    def bind_delete(self, ast: DeleteAst) -> DmlStatement:
        if not self._schema.has_table(ast.table):
            raise SqlBindError(f"unknown table {ast.table!r}")
        predicate = self._bind_single_table_where(ast.table, ast.where)
        return DmlStatement(
            kind="delete", table=ast.table, predicate=predicate, text=ast.text
        )

    def bind_update(self, ast: UpdateAst) -> DmlStatement:
        if not self._schema.has_table(ast.table):
            raise SqlBindError(f"unknown table {ast.table!r}")
        table = self._schema.table(ast.table)
        assignments = {}
        for name, literal in ast.assignments:
            table.column(name)
            ref = ColumnRef(ast.table, name)
            assignments[name] = self._coerce_literal(ref, literal)
        predicate = self._bind_single_table_where(ast.table, ast.where)
        return DmlStatement(
            kind="update",
            table=ast.table,
            predicate=predicate,
            assignments=assignments,
            text=ast.text,
        )


def parse_and_bind(text: str, schema: Schema):
    """Convenience one-shot: parse SQL text and bind it against ``schema``."""
    from repro.sql.parser import parse_statement

    return bind(parse_statement(text), schema)

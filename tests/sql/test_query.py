"""Tests for repro.sql.query (normalized model and Sec 3.1 relevance)."""

import pytest

from repro.catalog import ColumnRef
from repro.errors import SqlBindError
from repro.sql.expressions import Aggregate, AggregateFunction, ColumnExpression
from repro.sql.predicates import ComparisonPredicate, JoinPredicate
from repro.sql.query import DmlStatement, Query

AGE = ColumnRef("emp", "age")
SAL = ColumnRef("emp", "salary")
DEPT_ID = ColumnRef("emp", "dept_id")
DID = ColumnRef("dept", "id")
DNAME = ColumnRef("dept", "dname")


def _two_table_query(**kwargs):
    defaults = dict(
        tables=("emp", "dept"),
        predicates=(ComparisonPredicate(AGE, "<", 30),),
        joins=(JoinPredicate(DEPT_ID, DID),),
    )
    defaults.update(kwargs)
    return Query(**defaults)


class TestValidation:
    def test_requires_tables(self):
        with pytest.raises(SqlBindError):
            Query(tables=())

    def test_duplicate_tables_rejected(self):
        with pytest.raises(SqlBindError):
            Query(tables=("emp", "emp"))

    def test_predicate_table_must_be_in_from(self):
        with pytest.raises(SqlBindError):
            Query(
                tables=("dept",),
                predicates=(ComparisonPredicate(AGE, "<", 30),),
            )

    def test_join_tables_must_be_in_from(self):
        with pytest.raises(SqlBindError):
            Query(tables=("emp",), joins=(JoinPredicate(DEPT_ID, DID),))

    def test_group_by_table_must_be_in_from(self):
        with pytest.raises(SqlBindError):
            Query(tables=("emp",), group_by=(DNAME,))


class TestRelevantColumns:
    """Paper Sec 3.1: WHERE and GROUP BY columns are relevant."""

    def test_where_columns_relevant(self):
        query = _two_table_query()
        relevant = query.relevant_columns()
        assert AGE in relevant

    def test_join_columns_relevant(self):
        relevant = _two_table_query().relevant_columns()
        assert DEPT_ID in relevant and DID in relevant

    def test_group_by_columns_relevant(self):
        query = _two_table_query(group_by=(DNAME,))
        assert DNAME in query.relevant_columns()

    def test_order_by_only_not_relevant(self):
        """Footnote 1: ORDER BY-only columns cannot affect cost estimates."""
        query = _two_table_query(order_by=(SAL,))
        assert SAL not in query.relevant_columns()

    def test_projection_only_not_relevant(self):
        query = _two_table_query(
            projections=(ColumnExpression(SAL),)
        )
        assert SAL not in query.relevant_columns()

    def test_no_duplicates(self):
        query = _two_table_query(group_by=(AGE,))
        relevant = query.relevant_columns()
        assert len(relevant) == len(set(relevant))


class TestPerTableAccessors:
    def test_selection_columns_of(self):
        query = _two_table_query()
        assert query.selection_columns_of("emp") == (AGE,)
        assert query.selection_columns_of("dept") == ()

    def test_join_columns_of(self):
        query = _two_table_query()
        assert query.join_columns_of("emp") == (DEPT_ID,)
        assert query.join_columns_of("dept") == (DID,)

    def test_group_by_columns_of(self):
        query = _two_table_query(group_by=(DNAME, AGE))
        assert query.group_by_columns_of("dept") == (DNAME,)
        assert query.group_by_columns_of("emp") == (AGE,)

    def test_predicates_of(self):
        query = _two_table_query()
        assert len(query.predicates_of("emp")) == 1
        assert query.predicates_of("dept") == ()

    def test_joins_between(self):
        query = _two_table_query()
        assert len(query.joins_between(("emp",), ("dept",))) == 1
        assert query.joins_between(("emp",), ("emp",)) == ()

    def test_joins_between_preserves_joins_order(self):
        """Over the join graph the result still follows ``query.joins``,
        not table, pair or string order; unknown names match nothing."""
        a_b = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "x"))
        b_c = JoinPredicate(ColumnRef("c", "y"), ColumnRef("b", "y"))
        a_c = JoinPredicate(ColumnRef("a", "z"), ColumnRef("c", "z"))
        a_b2 = JoinPredicate(ColumnRef("b", "w"), ColumnRef("a", "w"))
        query = Query(tables=("c", "a", "b"), joins=(b_c, a_c, a_b2, a_b))
        assert query.joins_between(("a",), ("b", "c")) == (a_c, a_b2, a_b)
        assert query.joins_between(("b", "c"), ("a",)) == (a_c, a_b2, a_b)
        assert query.joins_between({"c"}, ["b", "nope"]) == (b_c,)
        assert query.joins_between(("a", "b"), ("a", "b")) == (a_b2, a_b)
        graph = query.join_graph
        assert graph is query.join_graph
        assert graph.tables == ("a", "b", "c")
        assert graph.groups == ((a_b2, a_b), (a_c,), (b_c,))


class TestAggregationFlag:
    def test_group_by_implies_aggregation(self):
        assert _two_table_query(group_by=(DNAME,)).has_aggregation

    def test_aggregate_projection_implies_aggregation(self):
        query = _two_table_query(
            projections=(Aggregate(AggregateFunction.COUNT, None),)
        )
        assert query.has_aggregation

    def test_plain_query_not_aggregated(self):
        assert not _two_table_query().has_aggregation


class TestDmlStatement:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SqlBindError):
            DmlStatement(kind="merge", table="emp")

    def test_update_requires_assignments(self):
        with pytest.raises(SqlBindError):
            DmlStatement(kind="update", table="emp")

    def test_insert_requires_rows(self):
        with pytest.raises(SqlBindError):
            DmlStatement(kind="insert", table="emp")

    def test_str_forms(self):
        stmt = DmlStatement(kind="delete", table="emp")
        assert "DELETE" in str(stmt)

"""Edge-case coverage across the optimizer/executor stack."""

import numpy as np
import pytest

from repro.catalog import Column, ColumnRef, ColumnType, Schema, TableSchema
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder
from repro.storage import Database

from tests.util import simple_db, simple_schema


def _empty_db():
    """A database whose tables hold zero rows."""
    db = Database(simple_schema())
    db.load_table(
        "emp",
        {
            "id": [],
            "age": [],
            "salary": [],
            "dept_id": [],
            "name": [],
            "hired": [],
        },
    )
    db.load_table("dept", {"id": [], "dname": [], "budget": []})
    return db


def _run(db, query):
    return Executor(db).execute(Optimizer(db).optimize(query).plan, query)


class TestEmptyTables:
    def test_scan_empty_table(self):
        db = _empty_db()
        query = QueryBuilder(db.schema).table("emp").build()
        assert _run(db, query).row_count == 0

    def test_filter_empty_table(self):
        db = _empty_db()
        query = QueryBuilder(db.schema).where("emp.age", ">", 0).build()
        assert _run(db, query).row_count == 0

    def test_join_with_empty_side(self, db):
        empty = _empty_db()
        # copy emp data into the empty db, keep dept empty
        emp = db.table("emp")
        empty.load_table(
            "emp",
            {
                name: emp.column_array(name)
                if empty.schema.column(
                    ColumnRef("emp", name)
                ).type != ColumnType.STRING
                else emp.decoded_column(name)
                for name in emp.schema.column_names()
            },
        )
        query = (
            QueryBuilder(empty.schema)
            .join("emp.dept_id", "dept.id")
            .build()
        )
        assert _run(empty, query).row_count == 0

    def test_aggregate_empty_table(self):
        db = _empty_db()
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .aggregate("count")
            .build()
        )
        assert _run(db, query).rows() == [(0.0,)]

    def test_group_by_empty_table(self):
        db = _empty_db()
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .select("emp.dept_id")
            .group_by("emp.dept_id")
            .aggregate("count")
            .build()
        )
        assert _run(db, query).row_count == 0

    def test_statistics_on_empty_table(self):
        db = _empty_db()
        stat = db.stats.create(ColumnRef("emp", "age"))
        assert stat.histogram.row_count == 0
        query = QueryBuilder(db.schema).where("emp.age", "=", 1).build()
        assert _run(db, query).row_count == 0


class TestCartesianProducts:
    def test_cross_join_rows(self, db):
        query = QueryBuilder(db.schema).table("emp").table("dept").build()
        result = _run(db, query)
        assert result.row_count == db.row_count("emp") * db.row_count(
            "dept"
        )

    def test_cross_join_with_filter(self, db):
        query = (
            QueryBuilder(db.schema)
            .table("emp")
            .table("dept")
            .where("emp.age", "=", 30)
            .build()
        )
        expected = int(
            (db.table("emp").column_array("age") == 30).sum()
        ) * db.row_count("dept")
        assert _run(db, query).row_count == expected


class TestDegenerateValues:
    def test_predicate_matches_nothing(self, db):
        query = QueryBuilder(db.schema).where("emp.age", "=", -1).build()
        assert _run(db, query).row_count == 0

    def test_between_inverted_range(self, db):
        query = QueryBuilder(db.schema).between("emp.age", 60, 20).build()
        assert _run(db, query).row_count == 0

    def test_single_row_table(self):
        schema = Schema(
            [TableSchema("one", [Column("x", ColumnType.INT)])]
        )
        db = Database(schema)
        db.load_table("one", {"x": [42]})
        query = QueryBuilder(db.schema).where("one.x", "=", 42).build()
        assert _run(db, query).row_count == 1

    def test_all_rows_identical(self):
        schema = Schema(
            [TableSchema("t", [Column("x", ColumnType.INT)])]
        )
        db = Database(schema)
        db.load_table("t", {"x": np.full(100, 7)})
        db.stats.create(ColumnRef("t", "x"))
        query = QueryBuilder(db.schema).where("t.x", "=", 7).build()
        opt = Optimizer(db)
        result = opt.optimize(query)
        assert result.rows == pytest.approx(100)
        assert _run(db, query).row_count == 100


class TestEmptyGroupBy:
    def test_group_keys_keep_their_dtype_over_empty_input(self, db):
        """Zero groups still carry the key columns' own types."""
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", "=", -1)
            .select("emp.dept_id", "emp.salary")
            .group_by("emp.dept_id", "emp.salary")
            .aggregate("count")
            .build()
        )
        result = _run(db, query)
        assert result.row_count == 0 and result.rows() == []
        relation = result.relation
        assert relation.column(ColumnRef("emp", "dept_id")).dtype == np.int64
        assert relation.column(ColumnRef("emp", "salary")).dtype == np.float64

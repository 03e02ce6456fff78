"""Property tests: executor output equals a reference evaluation — a
naive numpy count for single-table filters, and SQLite's decoded rows
(as a sorted multiset) for joins, grouping and HAVING, including
aggregates that read one join side only (the other side's joins count
their matches instead of repeating rows)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SqliteBackend
from repro.catalog import Column, ColumnType, Schema, TableSchema
from repro.config import OptimizerConfig
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder
from repro.storage import Database

from tests.util import simple_db


@pytest.fixture(scope="module")
def shared_db():
    return simple_db(n_emp=300)


ops = st.sampled_from(["=", "<", "<=", ">", ">=", "<>"])
age_values = st.integers(min_value=15, max_value=70)


def _reference_count(db, conjuncts):
    emp = db.table("emp")
    mask = np.ones(db.row_count("emp"), dtype=bool)
    evaluators = {
        "=": np.equal,
        "<>": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }
    for column, op, value in conjuncts:
        mask &= evaluators[op](emp.column_array(column), value)
    return int(mask.sum())


class TestFilterEquivalence:
    @given(op=ops, value=age_values)
    @settings(max_examples=40, deadline=None)
    def test_single_predicate(self, shared_db, op, value):
        db = shared_db
        query = QueryBuilder(db.schema).where("emp.age", op, value).build()
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        assert result.row_count == _reference_count(
            db, [("age", op, value)]
        )

    @given(
        op1=ops, v1=age_values, op2=ops, v2=st.integers(1, 10)
    )
    @settings(max_examples=40, deadline=None)
    def test_conjunction(self, shared_db, op1, v1, op2, v2):
        db = shared_db
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", op1, v1)
            .where("emp.dept_id", op2, v2)
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        assert result.row_count == _reference_count(
            db, [("age", op1, v1), ("dept_id", op2, v2)]
        )

    @given(op=ops, value=age_values)
    @settings(max_examples=25, deadline=None)
    def test_join_with_filter_matches_reference(self, shared_db, op, value):
        """FK join keeps exactly the filtered emp rows."""
        db = shared_db
        query = (
            QueryBuilder(db.schema)
            .join("emp.dept_id", "dept.id")
            .where("emp.age", op, value)
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        assert result.row_count == _reference_count(
            db, [("age", op, value)]
        )

    @given(op=ops, value=age_values)
    @settings(max_examples=15, deadline=None)
    def test_algorithm_choice_does_not_change_rows(
        self, shared_db, op, value
    ):
        db = shared_db
        counts = set()
        for kwargs in ({}, {"enable_hash_join": False}):
            config = OptimizerConfig(**kwargs)
            query = (
                QueryBuilder(db.schema)
                .join("emp.dept_id", "dept.id")
                .where("emp.age", op, value)
                .build()
            )
            result = Executor(db).execute(
                Optimizer(db, config).optimize(query).plan, query
            )
            counts.add(result.row_count)
        assert len(counts) == 1


class TestAggregationEquivalence:
    @given(value=age_values)
    @settings(max_examples=25, deadline=None)
    def test_grouped_counts_sum_to_filter_count(self, shared_db, value):
        db = shared_db
        query = (
            QueryBuilder(db.schema)
            .where("emp.age", "<", value)
            .select("emp.dept_id")
            .group_by("emp.dept_id")
            .aggregate("count")
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        total = sum(row[1] for row in result.rows())
        assert total == _reference_count(db, [("age", "<", value)])


# ----------------------------------------------------------------------
# contents oracle: the same decoded rows as SQLite, as a multiset
# ----------------------------------------------------------------------

_KEYS = ("k1", "k2", "k3")
#: overlapping but different vocabularies, so the two dictionaries of a
#: STRING join assign different codes and one side has unmatched strings
_TAGS = {"a": ("x", "y", "z", "a-only"), "b": ("z", "y", "w"), "c": ("y", "z")}


def _oracle_schema() -> Schema:
    def table(name, measure):
        columns = [Column(key, ColumnType.INT) for key in _KEYS]
        columns.append(Column("tag", ColumnType.STRING))
        columns.append(Column(measure, ColumnType.FLOAT))
        return TableSchema(name, columns)

    return Schema([table("a", "v"), table("b", "w"), table("c", "u")], [])


@st.composite
def _table_rows(draw, name, domains):
    """An empty, small or medium table whose key columns draw from the
    case's per-column domains, so joins fan out."""
    size = draw(st.sampled_from([0, 3, 6, 9, 12, 12]))
    columns = {
        key: draw(st.lists(st.sampled_from(domain), min_size=size, max_size=size))
        for key, domain in zip(_KEYS, domains)
    }
    columns["tag"] = draw(
        st.lists(st.sampled_from(_TAGS[name]), min_size=size, max_size=size)
    )
    # quarters: sums are exact in any order, on both engines
    columns[{"a": "v", "b": "w", "c": "u"}[name]] = [
        quarter / 4.0
        for quarter in draw(
            st.lists(st.integers(-40, 40), min_size=size, max_size=size)
        )
    ]
    return columns


@st.composite
def _oracle_case(draw):
    # each key column is all-equal or three-valued (negatives included)
    domains = [draw(st.sampled_from([(7,), (-1, 0, 1)])) for _ in _KEYS]
    data = {name: draw(_table_rows(name, domains)) for name in ("a", "b", "c")}
    builder = QueryBuilder(_oracle_schema())
    join_on = draw(st.sampled_from(["k1", "k12", "k123", "tag"]))
    if join_on == "tag":
        builder.join("a.tag", "b.tag")
    else:
        for key in _KEYS[: len(join_on) - 1]:
            builder.join(f"a.{key}", f"b.{key}")
    third = draw(st.sampled_from([None, None, "k1", "tag"]))
    if third is not None:
        builder.join(f"b.{third}", f"c.{third}")
    # selections that may empty either join side
    side_filter = draw(st.sampled_from([None, None, "a", "b", "both"]))
    if side_filter in ("a", "both"):
        builder.where("a.v", draw(ops), draw(st.integers(-11, 11)) / 1.0)
    if side_filter in ("b", "both"):
        builder.where("b.k2", draw(ops), draw(st.sampled_from([-1, 0, 7, 9])))
    shape = draw(st.sampled_from(["star", "project", "group", "having"]))
    if shape == "project":
        builder.select("b.tag", "a.k3", "a.v").order_by("a.k3")
    elif shape in ("group", "having"):
        # GROUP BY over the joined relation, keys from both sides
        builder.select("a.k1", "b.tag").group_by("a.k1", "b.tag")
        builder.aggregate("count").aggregate("sum", "a.v")
        builder.aggregate(draw(st.sampled_from(["min", "max", "avg"])), "b.w")
        if shape == "having":
            builder.having("count", None, draw(ops), draw(st.integers(0, 6)))
    config = OptimizerConfig(enable_hash_join=draw(st.booleans()))
    return data, builder.build(), config


_MEASURES = {"a": "v", "b": "w", "c": "u"}


@st.composite
def _one_sided_case(draw):
    """A GROUP BY over a 2- or 3-way join whose keys and aggregates read
    one table: the joins to the others only multiply its rows."""
    domains = [draw(st.sampled_from([(7,), (-1, 0, 1)])) for _ in _KEYS]
    data = {name: draw(_table_rows(name, domains)) for name in ("a", "b", "c")}
    builder = QueryBuilder(_oracle_schema())
    join_on = draw(st.sampled_from(["k1", "k12", "tag"]))
    if join_on == "tag":
        builder.join("a.tag", "b.tag")
    else:
        for key in _KEYS[: len(join_on) - 1]:
            builder.join(f"a.{key}", f"b.{key}")
    third = draw(st.sampled_from([None, ("b", "k1"), ("a", "tag"), ("b", "k3")]))
    if third is not None:
        other, key = third
        builder.join(f"{other}.{key}", f"c.{key}")
    if draw(st.booleans()):
        builder.where("b.k2", draw(ops), draw(st.sampled_from([-1, 0, 7])))
    side = draw(st.sampled_from(["a", "b"] + (["c"] if third else [])))
    measure = f"{side}.{_MEASURES[side]}"
    keys = draw(st.sampled_from([(), ("k1",), ("tag",), ("k1", "tag")]))
    keys = [f"{side}.{key}" for key in keys]
    builder.select(*keys).group_by(*keys)
    if keys and draw(st.integers(0, 4)) == 0:
        return data, builder.build()  # SELECT DISTINCT
    aggregates = draw(
        st.lists(
            st.sampled_from(
                [
                    ("count", None),
                    ("sum", f"{side}.k2"),  # INT
                    ("sum", measure),  # FLOAT, quarters
                    ("avg", f"{side}.k3"),
                    ("avg", measure),
                    ("min", measure),
                    ("max", f"{side}.k1"),
                ]
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    for function, column in aggregates:
        builder.aggregate(function, column)
    if keys and ("count", None) in aggregates and draw(st.booleans()):
        builder.having("count", None, draw(ops), draw(st.integers(0, 20)))
    return data, builder.build()


def _multiset(rows):
    """Sorted rows with numbers as floats (SQLite counts in ints)."""
    return sorted(
        tuple(v if isinstance(v, str) else float(v) for v in row)
        for row in rows
    )


def _assert_rows_equal_sqlite(data, query, config=None):
    config = config or OptimizerConfig()
    db = Database(_oracle_schema(), name="oracle")
    for name, columns in data.items():
        db.load_table(name, columns)
    plan = Optimizer(db, config).optimize(query).plan
    result = Executor(db).execute(plan, query)
    oracle = SqliteBackend(db)
    try:
        expected = oracle.execute(query).rows()
    finally:
        oracle.close()
    if not query.group_by:
        # the executor has no NULL: an aggregate over no rows is 0
        expected = [
            tuple(0.0 if value is None else value for value in row)
            for row in expected
        ]
    assert result.row_count == len(expected)
    assert _multiset(result.rows()) == _multiset(expected)


class TestContentsOracle:
    @given(case=_oracle_case())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_sqlite_as_a_multiset(self, case):
        _assert_rows_equal_sqlite(*case)

    @given(case=_one_sided_case())
    @settings(max_examples=80, deadline=None)
    def test_aggregates_of_one_join_side_equal_sqlite(self, case):
        _assert_rows_equal_sqlite(*case)

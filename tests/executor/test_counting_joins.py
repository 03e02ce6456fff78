"""Counting joins: aggregates over weighted rows equal, bit for bit, the
same aggregates over the rows an expanding join materialises.

A join no ancestor reads the right input of, under an aggregate, leaves
each left row once with its match count instead of repeating it.  Every
test here runs a plan as compiled (counting) and again from the same
layout with every join expanding, and compares row count, row order,
``actual_cost.hex()``, operator cardinalities and the dtype and bytes of
every output column (the fields the results golden digests).
"""

import numpy as np
import pytest

from repro.catalog import Column, ColumnType, Schema, TableSchema
from repro.executor.executor import Executor, _Join
from repro.optimizer.plans import AggregateNode, JoinAlgorithm, JoinNode, ScanNode
from repro.sql.binder import parse_and_bind
from repro.storage import Database
from tests.executor.test_results_golden import _fields

I = ColumnType.INT
F = ColumnType.FLOAT


def _database(a, b, c=None) -> Database:
    """``a(k, f, n)`` joined on ``k`` to ``b(k, x)``; ``c(z)`` for
    products."""
    schema = Schema(
        [
            TableSchema("a", [Column("k", I), Column("f", F), Column("n", I)]),
            TableSchema("b", [Column("k", I), Column("x", I)]),
            TableSchema("c", [Column("z", I)]),
        ],
        [],
    )
    db = Database(schema, name="counting")
    db.load_table("a", a)
    db.load_table("b", b)
    db.load_table("c", c or {"z": [1, 2]})
    return db


def _plan(db, sql):
    """The aggregate of ``sql`` over the left-deep join of its tables in
    FROM order, each on a plain scan."""
    query = parse_and_bind(sql, db.schema)
    tables = query.tables
    plan = ScanNode(tables[0], query.predicates_of(tables[0]), 1.0, 1.0)
    for position, table in enumerate(tables[1:], 1):
        plan = JoinNode(
            JoinAlgorithm.HASH,
            plan,
            ScanNode(table, query.predicates_of(table), 1.0, 1.0),
            query.joins_between(tables[:position], (table,)),
            1.0,
            1.0,
        )
    plan = AggregateNode(
        plan, query.group_by, query.all_aggregates(), 1.0, 1.0
    )
    return plan, query


def _counted_and_expanded(db, sql, counting=1):
    """The result of ``sql``'s plan as compiled, with ``counting``
    counting joins, and of the same layout with every join expanding."""
    plan, query = _plan(db, sql)
    executor = Executor(db)
    counted = executor.execute(plan, query)
    layout = plan.execution_layout
    joins = [step for step in layout.steps if isinstance(step, _Join)]
    assert sum(step.counting for step in joins) == counting
    vars(plan)["execution_layout"] = layout._replace(
        steps=tuple(
            step._replace(counting=False) if isinstance(step, _Join) else step
            for step in layout.steps
        )
    )
    expanded = executor.execute(plan, query)
    assert plan.execution_layout is not layout
    return counted, expanded


def _assert_identical(db, sql, counting=1):
    counted, expanded = _counted_and_expanded(db, sql, counting)
    assert _fields(db, counted) == _fields(db, expanded)
    assert counted.rows() == expanded.rows()
    return counted.rows()


#: ``b`` repeats key 1 ten times, key 2 once; no row has key 3
_B = {"k": [1] * 10 + [2], "x": list(range(11))}


def test_a_fractional_sum_is_the_sum_of_the_repeated_rows():
    """Ten additions of 0.1 are 0.9999999999999999; 0.1 * 10 is 1.0."""
    assert sum([0.1] * 10) != 0.1 * 10
    db = _database({"k": [1, 2, 3], "f": [0.1, 0.7, 2.5], "n": [1, 2, 3]}, _B)
    rows = _assert_identical(
        db,
        "SELECT a.k, SUM(a.f), AVG(a.f), COUNT(*) FROM a, b "
        "WHERE a.k = b.k GROUP BY a.k",
    )
    assert rows[0] == (1, sum([0.1] * 10), sum([0.1] * 10) / 10, 10)


def test_an_integer_sum_reaching_2_53_is_the_sum_of_the_repeated_rows():
    """With a total of magnitudes past 2**53, 1 + 3 * (2**52 - 1) rounds
    differently from 1 + (2**52 - 1) + (2**52 - 1) + (2**52 - 1)."""
    big = 2**52 - 1
    repeated = np.bincount([0] * 4, weights=[1.0] + [float(big)] * 3)[0]
    weighted = np.bincount([0] * 2, weights=[1.0, float(big) * 3])[0]
    assert repeated != weighted
    db = _database(
        {"k": [2, 1, 3], "f": [0.0] * 3, "n": [1, big, -big]},
        {"k": [2] + [1] * 3, "x": [0] * 4},
    )
    rows = _assert_identical(
        db, "SELECT SUM(a.n), AVG(a.n), COUNT(*) FROM a, b WHERE a.k = b.k"
    )
    assert rows == [(repeated, repeated / 4, 4)]


def test_an_integer_sum_below_2_53_is_computed_from_the_weights():
    db = _database(
        {"k": [1, 2, 1, 3], "f": [0.0] * 4, "n": [5, -7, 2**40, 9]}, _B
    )
    rows = _assert_identical(
        db,
        "SELECT a.k, SUM(a.n), AVG(a.n), SUM(a.n * 2 + 1) FROM a, b "
        "WHERE a.k = b.k GROUP BY a.k",
    )
    assert rows[0][1] == (5 + 2**40) * 10


def test_min_and_max_skip_left_rows_that_match_nothing():
    """The unmatched rows hold the extremes: they must not leak in."""
    db = _database(
        {
            "k": [3, 1, 2, 3, 1, 2],
            "f": [-1e9, 0.5, -0.25, 1e9, 0.75, -0.5],
            "n": [-99, 4, 6, 99, 5, 7],
        },
        _B,
    )
    rows = _assert_identical(
        db,
        "SELECT a.k, MIN(a.f), MAX(a.f), MIN(a.n), MAX(a.n - a.k) FROM a, b "
        "WHERE a.k = b.k GROUP BY a.k",
    )
    assert rows == [(1, 0.5, 0.75, 4, 4), (2, -0.5, -0.25, 6, 5)]
    rows = _assert_identical(
        db, "SELECT MIN(a.f), MAX(a.f) FROM a, b WHERE a.k = b.k"
    )
    assert rows == [(-0.5, 0.75)]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a.k, COUNT(*), SUM(a.f) FROM a, b WHERE a.k = b.k "
        "GROUP BY a.k",
        "SELECT COUNT(*), SUM(a.f), MIN(a.n) FROM a, b WHERE a.k = b.k",
    ],
    ids=["grouped", "scalar"],
)
def test_an_empty_join(sql):
    db = _database({"k": [3, 4], "f": [0.5, 1.5], "n": [1, 2]}, _B)
    counted, _ = _counted_and_expanded(db, sql)
    assert counted.row_count == (0 if "GROUP" in sql else 1)
    _assert_identical(db, sql)


def test_chained_counting_joins_and_a_product_multiply_the_weights():
    """The product with ``c`` counts ``len(c)`` per row, on top of the
    weights ``b`` left; SELECT DISTINCT is a GROUP BY of keys alone."""
    db = _database(
        {"k": [1, 2, 3, 1], "f": [0.1, 0.2, 0.3, 0.4], "n": [1, 2, 3, 4]},
        _B,
        {"z": [1, 2, 3]},
    )
    rows = _assert_identical(
        db,
        "SELECT a.k, COUNT(*), SUM(a.n), SUM(a.f) FROM a, b, c "
        "WHERE a.k = b.k GROUP BY a.k",
        counting=2,
    )
    assert [row[:3] for row in rows] == [(1, 60, 150), (2, 3, 6)]
    _assert_identical(
        db, "SELECT DISTINCT a.n FROM a, b, c WHERE a.k = b.k", counting=2
    )

"""The column layout a plan compiles into on its first execution.

The layout is kept on the plan root and holds names and slots only, so
it must survive DML on every table it reads, de-duplicate a right key
column that several left columns are compared with, let an evicted plan
be freed by reference counting, and be safe to compile from two threads
at once.  SQLite is the oracle throughout.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.backends.sqlite import SqliteBackend
from repro.catalog import Column, ColumnType, Schema, TableSchema
from repro.executor import executor as executor_module
from repro.executor.dml import apply_dml
from repro.executor.executor import Executor, PlanLayout
from repro.optimizer import OptimizationRequest, Optimizer
from repro.optimizer.cache import PlanCache
from repro.optimizer.plans import (
    AggregateNode,
    JoinAlgorithm,
    JoinNode,
    ScanNode,
    SortNode,
)
from repro.sql.binder import parse_and_bind
from repro.sql.builder import QueryBuilder
from repro.storage import Database
from repro.storage.join_index import JoinIndex

I = ColumnType.INT
S = ColumnType.STRING


def _database() -> Database:
    """``a`` and ``c`` both reference ``b`` by an INT and a STRING key."""
    schema = Schema(
        [
            TableSchema("a", [Column("x", I), Column("s", S), Column("v", I)]),
            TableSchema("b", [Column("k", I), Column("s", S), Column("w", I)]),
            TableSchema("c", [Column("y", I), Column("s", S), Column("u", I)]),
        ],
        [],
    )
    rng = np.random.default_rng(3)
    db = Database(schema, name="layout")
    for table, key, other, size, span in (
        ("a", "x", "v", 24, 6),
        ("b", "k", "w", 8, 5),
        ("c", "y", "u", 9, 6),
    ):
        db.load_table(
            table,
            {
                key: rng.integers(0, span, size=size),
                "s": [f"s{v}" for v in rng.integers(0, span, size=size)],
                other: rng.integers(-50, 50, size=size),
            },
        )
    return db


def _sqlite_rows(db, query):
    oracle = SqliteBackend(db)
    try:
        return sorted(oracle.execute(query).rows())
    finally:
        oracle.close()


def _rows(executor, plan, query):
    return sorted(executor.execute(plan, query).rows())


def _scan(table):
    return ScanNode(table, (), 1.0, 1.0)


def _three_way(query):
    """``(a x c) JOIN b`` on every join predicate of ``query``: ``b`` is
    the right input, and every key column of it is compared with a
    column of ``a`` and one of ``c``."""
    return JoinNode(
        JoinAlgorithm.HASH,
        JoinNode(JoinAlgorithm.HASH, _scan("a"), _scan("c"), (), 1.0, 1.0),
        _scan("b"),
        query.joins,
        1.0,
        1.0,
    )


def _duplicated_key_query(db, column_a="a.x", column_c="c.y", column_b="b.k"):
    return (
        QueryBuilder(db.schema)
        .join(column_a, column_b)
        .join(column_c, column_b)
        .select("a.v", "b.w", "c.u", column_a, column_c)
        .build()
    )


@pytest.fixture
def used_indexes(monkeypatch):
    """The ``index`` argument of every ``join_indices`` call."""
    seen = []
    kernel = executor_module.join_indices

    def spy(left_arrays, right_arrays, index=None):
        seen.append(index)
        return kernel(left_arrays, right_arrays, index)

    monkeypatch.setattr(executor_module, "join_indices", spy)
    return seen


class TestLayoutReuse:
    def test_the_first_layout_survives_dml_on_every_table(self):
        db = _database()
        query = (
            QueryBuilder(db.schema)
            .join("a.s", "b.s")
            .join("a.x", "b.k")
            .select("a.v", "b.w", "a.s")
            .build()
        )
        plan = JoinNode(
            JoinAlgorithm.HASH, _scan("a"), _scan("b"), query.joins, 1.0, 1.0
        )
        executor = Executor(db)
        assert _rows(executor, plan, query) == _sqlite_rows(db, query)
        first = plan.execution_layout
        assert isinstance(first, PlanLayout)
        statements = [
            "DELETE FROM a WHERE v < 0",
            "DELETE FROM b WHERE w > 20",
            # a STRING join-key value new to both dictionaries, on both
            # sides, so that only a fresh translation can join it
            "INSERT INTO b VALUES (4, 'fresh', 7)",
            "INSERT INTO a VALUES (4, 'fresh', 1)",
            "INSERT INTO a VALUES (4, 'fresh', 2)",
        ]
        for sql in statements:
            apply_dml(db, parse_and_bind(sql, db.schema))
            assert _rows(executor, plan, query) == _sqlite_rows(db, query), sql
            assert plan.execution_layout is first
        assert any(row[2] == "fresh" for row in _rows(executor, plan, query))

    def test_an_equal_query_of_another_object_reuses_the_layout(self):
        db = _database()
        sql = "SELECT a.v, b.w FROM a, b WHERE a.x = b.k AND a.v > 0"
        first, second = (parse_and_bind(sql, db.schema) for _ in range(2))
        assert first is not second and first == second
        plan = Optimizer(db).optimize(first).plan
        executor = Executor(db)
        executor.execute(plan, first)
        layout = plan.execution_layout
        assert _rows(executor, plan, second) == _sqlite_rows(db, second)
        assert plan.execution_layout is layout

    def test_a_query_reading_other_columns_runs_its_own_layout(self):
        db = _database()
        narrow = parse_and_bind("SELECT a.v FROM a WHERE a.x > 1", db.schema)
        wide = parse_and_bind("SELECT * FROM a WHERE a.x > 1", db.schema)
        plan = Optimizer(db).optimize(narrow).plan
        executor = Executor(db)
        executor.execute(plan, narrow)
        layout = plan.execution_layout
        assert _rows(executor, plan, wide) == _sqlite_rows(db, wide)
        assert plan.execution_layout is layout


def test_a_join_carries_only_the_sources_its_ancestors_read():
    """Under an aggregate over ``a.v`` alone, the top join gathers ``a``'s
    rows only: ``b`` and ``c`` feed its keys and are dropped."""
    db = _database()
    query = parse_and_bind(
        "SELECT a.v, COUNT(*) FROM a, b, c WHERE a.x = b.k AND c.y = b.k "
        "GROUP BY a.v",
        db.schema,
    )
    plan = AggregateNode(
        _three_way(query), query.group_by, query.all_aggregates(), 1.0, 1.0
    )
    assert _rows(Executor(db), plan, query) == _sqlite_rows(db, query)
    steps = plan.execution_layout.steps
    assert [type(step).__name__ for step in steps] == [
        "_Scan",
        "_Scan",
        "_Join",
        "_Scan",
        "_Join",
        "_Aggregate",
    ]
    inner, top = steps[2], steps[4]
    # the inner product carries ``a`` and ``c``: the top join reads both
    assert (inner.left_keep, inner.right_keep) == ((0,), (0,))
    assert (top.left_keep, top.right_keep) == ((0,), ())


#: a recurring TPC-D read: ``customer`` and ``lineitem`` only multiply
#: the groups of ``nation`` and ``region``
_MULTIPLIED = (
    "SELECT nation.n_regionkey, COUNT(*), {} FROM region, nation, "
    "supplier, lineitem, customer WHERE nation.n_regionkey BETWEEN 0 AND 4 "
    "AND nation.n_regionkey = region.r_regionkey AND nation.n_nationkey = "
    "supplier.s_nationkey AND customer.c_nationkey = nation.n_nationkey "
    "AND lineitem.l_suppkey = supplier.s_suppkey GROUP BY "
    "nation.n_regionkey ORDER BY nation.n_regionkey"
)


@pytest.mark.parametrize(
    "argument, counting",
    [
        ("SUM(region.r_regionkey)", [False, False, True, True]),
        # the top join's right input is read: no join only multiplies
        ("SUM(lineitem.l_quantity)", [False, False, False, False]),
    ],
    ids=["left-side sum", "right-side sum"],
)
def test_joins_whose_right_input_no_ancestor_reads_count(
    fresh_tpcd_db, argument, counting
):
    """``(((supplier x nation) x region) x customer) x lineitem`` under a
    GROUP BY and an ORDER BY: the last two joins count their matches
    unless the aggregate reads the last one's right input."""
    db = fresh_tpcd_db()
    query = parse_and_bind(_MULTIPLIED.format(argument), db.schema)
    plan, tables = _scan("supplier"), ("supplier",)
    for table in ("nation", "region", "customer", "lineitem"):
        right = ScanNode(table, query.predicates_of(table), 1.0, 1.0)
        joins = query.joins_between(tables, (table,))
        plan = JoinNode(JoinAlgorithm.HASH, plan, right, joins, 1.0, 1.0)
        tables += (table,)
    grouped = AggregateNode(
        plan, query.group_by, query.all_aggregates(), 1.0, 1.0
    )
    plan = SortNode(grouped, query.order_by, 1.0)
    rows = Executor(db).execute(plan, query).rows()
    assert rows == _sqlite_rows(db, query) and len(rows) > 1
    steps = plan.execution_layout.steps
    joins = [step for step in steps if type(step).__name__ == "_Join"]
    assert [join.counting for join in joins] == counting


def test_aggregates_of_columns_and_expressions_equal_sqlite():
    """Plain-column arguments are read by slot, expressions through the
    slots of their columns; a column two aggregates read is one gather."""
    db = _database()
    query = parse_and_bind(
        "SELECT a.v, c.u, COUNT(*), SUM(b.w), AVG(b.w), MIN(b.w * 2 + a.x), "
        "MAX(b.w - c.y) FROM a, b, c WHERE a.x = b.k AND c.y = b.k "
        "GROUP BY a.v, c.u HAVING COUNT(*) > 0",
        db.schema,
    )
    plan = Optimizer(db).optimize(query).plan
    executor = Executor(db)
    for _ in range(2):
        assert _rows(executor, plan, query) == _sqlite_rows(db, query)


class TestDuplicatedRightKey:
    @pytest.mark.parametrize(
        "columns",
        [("a.x", "c.y", "b.k"), ("a.s", "c.s", "b.s")],
        ids=["int", "string"],
    )
    def test_rows_equal_sqlite(self, columns):
        db = _database()
        query = _duplicated_key_query(db, *columns)
        plan = _three_way(query)
        rows = _rows(Executor(db), plan, query)
        assert rows == _sqlite_rows(db, query)
        assert rows, "the data must make some left rows match"
        # left rows whose two partner columns differ match nothing
        assert all(row[3] == row[4] for row in rows)
        join = plan.execution_layout.steps[-1]
        assert len(join.right_keys) == 1 and len(join.equalities) == 1

    def test_the_duplicated_key_probes_the_single_column_index(
        self, used_indexes
    ):
        db = _database()
        query = _duplicated_key_query(db)
        executor = Executor(db)
        for _ in range(2):
            assert _rows(executor, _three_way(query), query) == _sqlite_rows(
                db, query
            )
        kept = db.table("b").join_index(["k"])
        assert isinstance(kept, JoinIndex)
        # the inner cartesian product probes nothing
        assert used_indexes == [kept, kept]
        assert set(db.table("b")._join_indexes) == {("k",)}

    def test_the_partkey_shape_of_tpcd(self, fresh_tpcd_db):
        """``part.p_partkey`` compared with ``lineitem.l_partkey`` and
        ``partsupp.ps_partkey`` at once, as recurring TPC-D queries do."""
        db = fresh_tpcd_db()
        query = (
            QueryBuilder(db.schema)
            .join("lineitem.l_partkey", "partsupp.ps_partkey")
            .join("lineitem.l_suppkey", "partsupp.ps_suppkey")
            .join("lineitem.l_partkey", "part.p_partkey")
            .join("partsupp.ps_partkey", "part.p_partkey")
            .where("part.p_size", "<", 10)
            .select("lineitem.l_quantity", "part.p_size", "partsupp.ps_availqty")
            .build()
        )
        inner = JoinNode(
            JoinAlgorithm.HASH,
            _scan("lineitem"),
            _scan("partsupp"),
            query.joins_between(("lineitem",), ("partsupp",)),
            1.0,
            1.0,
        )
        plan = JoinNode(
            JoinAlgorithm.HASH,
            inner,
            ScanNode("part", query.predicates_of("part"), 1.0, 1.0),
            query.joins_between(("lineitem", "partsupp"), ("part",)),
            1.0,
            1.0,
        )
        assert len(plan.join_predicates) == 2
        assert _rows(Executor(db), plan, query) == _sqlite_rows(db, query)
        top = plan.execution_layout.steps[-1]
        assert len(top.right_keys) == 1 and len(top.equalities) == 1


def test_an_evicted_plan_is_freed_by_reference_counting():
    db = _database()
    cache = PlanCache(capacity=1)
    optimizer = Optimizer(db, cache=cache)
    executor = Executor(db)
    first, second = (
        parse_and_bind(sql, db.schema)
        for sql in (
            "SELECT a.v, SUM(b.w) FROM a, b WHERE a.x = b.k GROUP BY a.v",
            "SELECT c.u FROM c WHERE c.y > 2",
        )
    )
    gc.collect()
    gc.disable()
    try:
        plan = optimizer.optimize_request(OptimizationRequest(first)).plan
        result = executor.execute(plan, first)
        assert plan.execution_layout is not None and result.row_count
        freed = weakref.ref(plan)
        del plan, result
        assert freed() is not None  # the cache still holds it
        optimizer.optimize_request(OptimizationRequest(second))
        assert cache.eviction_count == 1
        assert freed() is None
    finally:
        gc.enable()


def test_two_threads_compiling_one_plan_both_return_correct_rows():
    db = _database()
    query = _duplicated_key_query(db)
    expected = _sqlite_rows(db, query)
    workers = 2
    for _ in range(10):
        plan = _three_way(query)
        barrier = threading.Barrier(workers)
        rows = [None] * workers

        def run(slot):
            executor = Executor(db)
            barrier.wait(timeout=30)
            rows[slot] = _rows(executor, plan, query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert rows == [expected] * workers
        assert isinstance(plan.execution_layout, PlanLayout)

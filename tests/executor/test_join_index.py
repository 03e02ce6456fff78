"""The join index a table keeps beside its column arrays, end to end.

A kept index is only ever an optimization: whatever DML, stale relation
or concurrent build happens around a join, its rows must be the ones
SQLite returns for the same data.  The index's validity is the identity
of the arrays it was built from, and the last test deletes that check to
show the others would notice.
"""

import importlib.util
import os
import sys
import threading

import numpy as np
import pytest

from repro.backends.sqlite import SqliteBackend
from repro.catalog import Column, ColumnRef, ColumnType, Schema, TableSchema
from repro.executor import executor as executor_module
from repro.executor.executor import Executor
from repro.optimizer.plans import JoinAlgorithm, JoinNode, ScanNode
from repro.sql.builder import QueryBuilder
from repro.storage import Database
from repro.storage.join_index import JoinIndex

SRC = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)


def _schema() -> Schema:
    fact = TableSchema(
        "fact",
        [
            Column("k1", ColumnType.INT),
            Column("k2", ColumnType.INT),
            Column("tag", ColumnType.STRING),
            Column("v", ColumnType.FLOAT),
        ],
    )
    dim = TableSchema(
        "dim",
        [
            Column("k1", ColumnType.INT),
            Column("k2", ColumnType.INT),
            Column("tag", ColumnType.STRING),
            Column("w", ColumnType.FLOAT),
        ],
    )
    return Schema([fact, dim], [])


def _dim_columns(rng, rows):
    return {
        "k1": rng.integers(-2, 3, size=rows),
        "k2": rng.integers(0, 4, size=rows),
        "tag": [f"t{i % 3}" for i in range(rows)],
        "w": rng.integers(-40, 40, size=rows) / 4.0,
    }


def _database(seed: int = 5) -> Database:
    rng = np.random.default_rng(seed)
    db = Database(_schema(), name="join-index")
    db.load_table(
        "fact",
        {
            "k1": rng.integers(-3, 4, size=60),
            "k2": rng.integers(0, 5, size=60),
            "tag": [f"t{i % 4}" for i in range(60)],
            "v": rng.integers(-40, 40, size=60) / 4.0,
        },
    )
    db.load_table("dim", _dim_columns(rng, 20))
    return db


def _query(db, *pairs, where=None):
    builder = QueryBuilder(db.schema)
    for left, right in pairs:
        builder.join(left, right)
    if where is not None:
        builder.where(*where)
    return builder.select("fact.k1", "fact.k2", "fact.v", "dim.w").build()


def _plan(query):
    """``fact JOIN dim`` with ``dim`` as the right input, whatever the
    optimizer would have chosen."""
    return JoinNode(
        JoinAlgorithm.HASH,
        ScanNode("fact", (), 1.0, 1.0),
        ScanNode("dim", query.predicates_of("dim"), 1.0, 1.0),
        query.joins,
        1.0,
        1.0,
    )


def _sqlite_rows(db, query):
    oracle = SqliteBackend(db)
    try:
        return sorted(oracle.execute(query).rows())
    finally:
        oracle.close()


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


BOTH_KEYS = (("fact.k1", "dim.k1"), ("fact.k2", "dim.k2"))


class TestKeptIndex:
    def test_second_execution_reuses_the_same_index(self, used_indexes):
        db = _database()
        query = _query(db, *BOTH_KEYS)
        executor = Executor(db)
        for _ in range(3):
            result = executor.execute(_plan(query), query)
            assert sorted(result.rows()) == _sqlite_rows(db, query)
        first = used_indexes[0]
        assert isinstance(first, JoinIndex)
        assert used_indexes[1] is first and used_indexes[2] is first
        # another executor over the same database shares it: the index
        # lives on the table, not on the executor
        Executor(db).execute(_plan(query), query)
        assert used_indexes[3] is first

    def test_either_spelling_of_a_composite_key_shares_one_index(
        self, used_indexes
    ):
        db = _database()
        forward = _query(db, *BOTH_KEYS)
        backward = _query(db, *reversed(BOTH_KEYS))
        executor = Executor(db)
        rows = sorted(executor.execute(_plan(forward), forward).rows())
        assert rows == sorted(
            executor.execute(_plan(backward), backward).rows()
        )
        assert rows == _sqlite_rows(db, backward)
        assert used_indexes[0] is used_indexes[1] is not None
        assert db.table("dim").join_index(["k2", "k1"]) is used_indexes[0]

    @pytest.mark.parametrize(
        "dml",
        [
            lambda data: data.insert_rows(
                [{"k1": 1, "k2": 2, "tag": "t9", "w": 0.25}]
            ),
            lambda data: data.delete_rows(data.column_array("k2") == 1),
            lambda data: data.update_rows(
                data.column_array("k1") == 0, {"k2": 3}
            ),
            lambda data: data.load_columns(
                _dim_columns(np.random.default_rng(99), 31)
            ),
        ],
        ids=["insert_rows", "delete_rows", "update_rows", "load_columns"],
    )
    def test_every_mutation_makes_the_next_join_build_anew(
        self, used_indexes, dml
    ):
        db = _database()
        query = _query(db, *BOTH_KEYS)
        executor = Executor(db)
        executor.execute(_plan(query), query)
        executor.execute(_plan(query), query)
        before = used_indexes[-1]
        assert before is used_indexes[0]
        dml(db.table("dim"))
        result = executor.execute(_plan(query), query)
        assert sorted(result.rows()) == _sqlite_rows(db, query)
        after = used_indexes[-1]
        assert isinstance(after, JoinIndex) and after is not before
        assert not db.table("dim")._join_indexes.keys() - {("k1", "k2")}
        executor.execute(_plan(query), query)
        assert used_indexes[-1] is after

    def test_a_mutation_that_changes_no_row_keeps_the_index(self, used_indexes):
        db = _database()
        query = _query(db, *BOTH_KEYS)
        executor = Executor(db)
        executor.execute(_plan(query), query)
        data = db.table("dim")
        assert data.delete_rows(np.zeros(data.row_count, dtype=bool)) == 0
        assert data.insert_rows([]) == 0
        executor.execute(_plan(query), query)
        assert used_indexes[1] is used_indexes[0] is not None

    def test_filtered_and_string_joins_build_per_call(self, used_indexes):
        db = _database()
        executor = Executor(db)
        filtered = _query(db, *BOTH_KEYS, where=("dim.w", ">", -3.0))
        by_tag = _query(db, ("fact.tag", "dim.tag"))
        for query in (filtered, by_tag, filtered, by_tag):
            result = executor.execute(_plan(query), query)
            assert sorted(result.rows()) == _sqlite_rows(db, query)
        assert used_indexes == [None] * 4
        assert db.table("dim")._join_indexes == {}


def _join_of_stale_relations(executor_class):
    """Rows of a join whose arrays were read before a DML and joined after
    it, next to the rows SQLite returned for the old data."""
    db = _database()
    query = _query(db, *BOTH_KEYS)
    executor = executor_class(db)
    plan = _plan(query)
    executor.execute(plan, query)  # the old data's index is kept
    expected = _sqlite_rows(db, query)
    taken = {
        name: {
            column: db.table(name).column_array(column)
            for column in db.table(name).schema.column_names()
        }
        for name in ("fact", "dim")
    }
    # every run fetches its arrays through the executor, the layout
    # compiled by the first run included
    executor._fetch = lambda table, names: [taken[table][n] for n in names]
    data = db.table("dim")
    data.delete_rows(data.column_array("k2") <= 1)
    data.insert_rows([{"k1": -2, "k2": 0, "tag": "t0", "w": 9.5}] * 3)
    return sorted(executor.execute(plan, query).rows()), expected


def test_a_relation_taken_before_a_dml_joins_the_old_rows():
    rows, expected = _join_of_stale_relations(Executor)
    assert rows == expected


def test_concurrent_first_builds_both_return_correct_rows():
    db = _database()
    query = _query(db, *BOTH_KEYS)
    expected = _sqlite_rows(db, query)
    workers = 8
    barrier = threading.Barrier(workers)
    rows = [None] * workers
    indexes = [None] * workers

    def run(slot):
        executor = Executor(db)
        barrier.wait(timeout=30)
        rows[slot] = sorted(executor.execute(_plan(query), query).rows())
        indexes[slot] = db.table("dim").join_index(["k1", "k2"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert rows == [expected] * workers
    # however many builds raced, one was published and everyone has it
    assert all(index is indexes[0] for index in indexes)


def test_an_index_built_from_replaced_arrays_is_not_kept():
    """A build that a mutation overtakes is returned (it describes the
    arrays it recorded) but never published."""
    db = _database()
    data = db.table("dim")
    build = JoinIndex.build
    overtaken = []

    def build_then_mutate(arrays):
        index = build(arrays)
        if not overtaken:
            overtaken.append(index)
            data.insert_rows([{"k1": 0, "k2": 0, "tag": "t0", "w": 1.0}])
        return index

    JoinIndex.build = build_then_mutate
    try:
        stale = data.join_index(["k1", "k2"])
    finally:
        JoinIndex.build = build
    assert stale is overtaken[0]
    assert data._join_indexes == {}
    fresh = data.join_index(["k1", "k2"])
    assert fresh is not stale
    assert fresh.built_from(
        [data.column_array("k1"), data.column_array("k2")]
    )
    assert not stale.built_from(
        [data.column_array("k1"), data.column_array("k2")]
    )


def test_deleting_the_identity_guard_breaks_the_stale_relation_join(tmp_path):
    """Delete-the-guard regression: the executor with its "arrays are
    identical" check removed joins stale arrays through the new data's
    index."""
    source = open(os.path.join(SRC, "executor", "executor.py")).read()
    guard = "if index is not None and index.built_from(right_arrays):"
    assert guard in source, "guard vanished from executor.py"
    mutated = tmp_path / "executor_without_guard.py"
    mutated.write_text(source.replace(guard, "if index is not None:", 1))
    spec = importlib.util.spec_from_file_location(
        "executor_without_guard", str(mutated)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        rows, expected = _join_of_stale_relations(module.Executor)
    except IndexError:
        return  # the new index points past the old arrays
    assert rows != expected


def test_column_refs_sort_like_their_names():
    """A compiled join orders its keys by the right side's refs and
    ``TableData.join_index`` by column name: within a table, the same."""
    names = ["k2", "k1", "w", "tag"]
    assert [
        ref.column for ref in sorted(ColumnRef("dim", name) for name in names)
    ] == sorted(names)

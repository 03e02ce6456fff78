"""The join search's memo across one query's optimizer calls.

``Optimizer`` keeps the last searches of its most recent query of three
or more tables, and a later search takes a table set's result from one
of them when every input that result depends on is equal: the access
paths ``(rows, cost, signature key)`` of its tables, the selectivity of
each table pair inside it, the index names of the schedule's edges, and
the optimizer config.  Soundness is checked the direct way: one
optimizer, one ``Query`` object, calls interleaved with every kind of
change Figure 1 and the service make, and each result equal in
``cost.hex()``, ``rows.hex()`` and ``signature_key()`` to a fresh
optimizer's.  Two cases pin the two inputs that a key of rows and costs
alone would miss: an index on a join column, and an access path that
changes only its signature.
"""

import threading

import numpy as np
import pytest

from repro.catalog import Column, ColumnRef, ColumnType, Schema, TableSchema
from repro.config import OptimizerConfig
from repro.feedback.observation import (
    FeedbackKey,
    OperatorObservation,
    q_error,
)
from repro.feedback.store import FeedbackStore
from repro.optimizer import OptimizationRequest, Optimizer
from repro.optimizer.plans import JoinAlgorithm, JoinNode
from repro.optimizer.schedule import join_schedule
from repro.optimizer.variables import EPSILON
from repro.sql.builder import QueryBuilder
from repro.storage import Database

COLUMNS = ("a", "b", "c")


def _database(row_counts, seed: int) -> Database:
    names = [f"t{i}" for i in range(len(row_counts))]
    schema = Schema(
        [
            TableSchema(name, [Column(c, ColumnType.INT) for c in COLUMNS])
            for name in names
        ],
        [],
    )
    database = Database(schema, name="join-memo")
    rng = np.random.default_rng(seed)
    for name, rows in zip(names, row_counts):
        database.load_table(
            name,
            {
                c: rng.integers(0, domain, size=rows).astype(np.int64)
                for c, domain in zip(COLUMNS, (5, rows // 10 + 2, rows + 2))
            },
        )
    return database


def _query(database):
    """Five tables, a cycle, a composite edge and filters on three."""
    return (
        QueryBuilder(database.schema)
        .join("t0.a", "t1.b")
        .join("t1.c", "t2.a")
        .join("t2.b", "t3.c")
        .join("t3.a", "t0.c")
        .join("t3.b", "t4.a")
        .join("t3.c", "t4.b")
        .where("t0.b", "<", 3)
        .where("t2.c", "=", 1)
        .where("t4.c", ">", 2)
        .build()
    )


def _digest(result):
    return (
        result.cost.hex(),
        result.rows.hex(),
        result.plan.signature_key(),
    )


def _observation(table, column, estimated, actual):
    return OperatorObservation(
        operator="scan",
        tables=(table,),
        targets=(FeedbackKey.of(table, [column]),),
        estimated_rows=estimated,
        actual_rows=actual,
        q_error=q_error(estimated, actual),
    )


def _requests(optimizer, query):
    """Figure 1's kinds of request, and the service's."""
    missing = optimizer.magic_variables(query)
    ignorable = optimizer._db.stats.visible_keys()[:1]
    return [
        OptimizationRequest(query),
        OptimizationRequest(query, {v: EPSILON for v in missing}),
        OptimizationRequest(query, {v: 1.0 - EPSILON for v in missing}),
        OptimizationRequest(query, {v: 0.3 for v in missing[:2]}),
        OptimizationRequest(query, ignore=ignorable),
        OptimizationRequest(query, degraded=True),
    ]


def _changes(database, store):
    """Each kind of change between two calls, applied in turn."""
    stats, indexes = database.stats, database.indexes
    a0, b1, c1, a2 = (
        ColumnRef("t0", "a"),
        ColumnRef("t1", "b"),
        ColumnRef("t1", "c"),
        ColumnRef("t2", "a"),
    )
    yield "nothing"
    stats.create(ColumnRef("t0", "b"))
    yield "create a filter statistic"
    stats.create(a0)
    stats.create(b1, sample_rows=20)
    yield "create both sides of a join, one sampled"
    stats.complete([b1])
    yield "complete the sampled one"
    indexes.create_index("ix_t1c", c1)
    yield "index an inner join column"
    stats.mark_droppable(a0)
    yield "drop-list a join statistic"
    stats.create(a0)
    yield "revive it"
    indexes.drop_index("ix_t1c")
    indexes.create_index("iy_t1c", c1)
    yield "the same index under another name"
    indexes.create_index("ix_t2c", ColumnRef("t2", "c"))
    yield "index a filtered column"
    store.record_all([_observation("t2", "c", 1.0, 40)])
    yield "learn a correction"
    stats.create(a2)
    stats.create(c1)
    yield "create the other join statistics"
    database.table("t2").insert_rows(
        [{c: n % 7 for c in COLUMNS} for n in range(30)]
    )
    stats.refresh_table("t2")
    yield "insert rows and refresh"
    indexes.drop_index("iy_t1c")
    stats.drop(a2)
    yield "drop an index and a statistic"


@pytest.mark.parametrize(
    "config",
    [
        OptimizerConfig(),
        OptimizerConfig(enable_bushy_joins=True),
        OptimizerConfig(enable_hash_join=False),
    ],
    ids=["default", "bushy", "no-hash"],
)
def test_interleaved_calls_match_a_fresh_optimizer(config):
    database = _database((40, 300, 120, 60, 9), seed=5)
    other = _database((12, 70, 400, 33, 150), seed=9)
    query = _query(database)
    store = FeedbackStore(corrections=True)
    optimizer = Optimizer(database, config, corrections=store)
    # a second database planning the very same Query object
    second = Optimizer(other, config)
    for step in _changes(database, store):
        for request in _requests(optimizer, query):
            fresh = Optimizer(database, config, corrections=store)
            assert _digest(optimizer.optimize_request(request)) == _digest(
                fresh.optimize_request(request)
            ), step
            assert _digest(second.optimize_request(request)) == _digest(
                Optimizer(other, config).optimize_request(request)
            ), step
        missing, low, high = optimizer.probe(query, EPSILON)
        fresh = Optimizer(database, config, corrections=store)
        _, fresh_low, fresh_high = fresh.probe(query, EPSILON)
        if missing:
            assert _digest(low) == _digest(fresh_low), step
            assert _digest(high) == _digest(fresh_high), step
    assert optimizer._join_memo.graph is query.join_graph


def _chooser_calls(optimizer, monkeypatch) -> list:
    """Record each candidate join the optimizer costs: every candidate
    prices naive nested loops exactly once."""
    calls = []
    cost_model = optimizer._cost
    real = cost_model.nested_loop_scan
    monkeypatch.setattr(
        cost_model,
        "nested_loop_scan",
        lambda *args: calls.append(args) or real(*args),
    )
    return calls


def test_a_repeated_call_costs_no_join(monkeypatch):
    database = _database((40, 300, 120, 60, 9), seed=5)
    query = _query(database)
    optimizer = Optimizer(database)
    calls = _chooser_calls(optimizer, monkeypatch)
    first = optimizer.optimize(query)
    assert calls
    del calls[:]
    assert _digest(optimizer.optimize(query)) == _digest(first)
    assert not calls


def test_a_new_filter_statistic_recosts_only_the_sets_holding_its_table(
    monkeypatch,
):
    database = _database((40, 300, 120, 60, 9), seed=5)
    query = _query(database)
    optimizer = Optimizer(database)
    calls = _chooser_calls(optimizer, monkeypatch)
    optimizer.optimize(query)
    shape = join_schedule(query.join_graph, False).shape
    bit = query.join_graph.bit["t2"]
    holding = sum(
        len(candidates)
        for mask, candidates in zip(shape.masks, shape.candidates)
        if mask & bit
    )
    assert 0 < holding < len(calls)
    del calls[:]
    database.stats.create(ColumnRef("t2", "c"))
    result = optimizer.optimize(query)
    assert len(calls) == holding
    assert _digest(result) == _digest(Optimizer(database).optimize(query))


def test_an_index_on_a_join_column_is_part_of_the_key():
    """Access paths and selectivities stay put when a join column gets an
    index; only the edge's index name says index nested loops are now
    possible."""
    database = _database((5, 2000, 50), seed=3)
    query = (
        QueryBuilder(database.schema)
        .join("t0.a", "t1.c")
        .join("t1.b", "t2.b")
        .build()
    )
    optimizer = Optimizer(database)
    before = optimizer.optimize(query)
    database.indexes.create_index("ix_t1c", ColumnRef("t1", "c"))
    after = optimizer.optimize(query)
    assert _digest(after) == _digest(Optimizer(database).optimize(query))
    assert any(
        isinstance(node, JoinNode)
        and node.algorithm is JoinAlgorithm.NESTED_LOOP_INDEX
        for node in after.plan.walk()
    )
    assert _digest(after) != _digest(before)


def test_a_path_that_changes_only_its_signature_is_part_of_the_key():
    """Three unjoined tables of tiny estimates: every cross product costs
    the sum of the scans, so ties decide the plan on signature strings.
    Swapping t0's two pins moves its seek to the other index at the same
    rows and cost, and a new pin on t1's residual predicate recosts the
    sets holding t1.  A set holding t0 but not t1 must not keep the
    string of t0's old seek: it would tie-break against t0's new one."""
    database = _database((1000, 1000, 1000), seed=4)
    builder = QueryBuilder(database.schema)
    for table in ("t0", "t1", "t2"):
        builder.table(table)
    query = (
        builder.where("t0.a", "=", 1)
        .where("t0.b", "=", 2)
        .where("t1.a", "=", 1)
        .where("t1.b", "=", 2)
        .where("t2.a", "=", 1)
        .where("t2.b", "=", 2)
        .build()
    )
    for name, column in (
        ("i0a", "t0.a"), ("i0b", "t0.b"), ("i1a", "t1.a"), ("i2a", "t2.a"),
    ):
        database.indexes.create_index(name, ColumnRef(*column.split(".")))

    variables = {
        str(v.predicate.column): v
        for v in Optimizer(database).magic_variables(query)
    }

    def pins(t0_a, t0_b, t1_b):
        values = {
            "t0.a": t0_a, "t0.b": t0_b, "t1.a": 1e-4, "t1.b": t1_b,
            "t2.a": 1e-4, "t2.b": 2e-4,
        }
        return {variables[column]: value for column, value in values.items()}

    optimizer = Optimizer(database)
    first = OptimizationRequest(query, pins(1e-4, 2e-4, 2e-4))
    second = OptimizationRequest(query, pins(2e-4, 1e-4, 3e-4))
    for request in (first, second):
        result = optimizer.optimize_request(request)
        assert _digest(result) == _digest(
            Optimizer(database).optimize_request(request)
        )
    # the premise: t0's path kept its rows and cost and changed its seek
    seeks = [
        {
            node.table: node
            for node in optimizer.optimize_request(request).plan.walk()
            if not node.children
        }["t0"]
        for request in (first, second)
    ]
    assert (seeks[0].rows, seeks[0].cost) == (seeks[1].rows, seeks[1].cost)
    assert [seek.index_name for seek in seeks] == ["i0a", "i0b"]


def test_two_threads_optimizing_one_query_on_one_optimizer():
    database = _database((40, 300, 120, 60, 9), seed=5)
    database.stats.create(ColumnRef("t0", "a"))
    database.stats.create(ColumnRef("t1", "b"))
    query = _query(database)
    shared = Optimizer(database)
    requests = _requests(shared, query)
    expected = [
        _digest(Optimizer(database).optimize_request(r)) for r in requests
    ]
    mismatches = []

    def run(offset: int) -> None:
        for i in range(60):
            k = (i + offset) % len(requests)
            got = _digest(shared.optimize_request(requests[k]))
            if got != expected[k]:
                mismatches.append((offset, i, k))

    threads = [threading.Thread(target=run, args=(n,)) for n in (0, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not mismatches

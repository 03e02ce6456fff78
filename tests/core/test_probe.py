"""``Backend.probe`` against the three calls it stands for.

MNSA's sensitivity test needs the missing variables and the ε / 1−ε
plans of one statistics state.  ``Backend.probe`` composes them from
``magic_variables`` and two ``optimize`` calls; ``MemoryBackend`` answers
from estimators that share what they read of the statistics.  Either way
the result must be exactly the three separate calls'.
"""

import pytest

from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.catalog import ColumnRef
from repro.core.candidates import workload_candidate_statistics
from repro.datagen import make_tpcd_database
from repro.index.tuned_tpcd import apply_tuned_tpcd_indexes
from repro.optimizer import OptimizationRequest, Optimizer, PlanCache
from repro.optimizer.variables import EPSILON
from repro.sql.builder import QueryBuilder
from repro.workload import generate_workload

from tests.util import plan_fingerprint, simple_db


def _three_calls(backend, query, epsilon):
    """The block both MNSA loops carried before ``probe``."""
    missing = backend.magic_variables(query)
    if not missing:
        return missing, None, None
    low = backend.optimize(
        OptimizationRequest(query, {v: epsilon for v in missing})
    )
    high = backend.optimize(
        OptimizationRequest(query, {v: 1.0 - epsilon for v in missing})
    )
    return missing, low, high


def _assert_probe_equals_three_calls(backend, queries):
    """Returns how many of ``queries`` had something missing."""
    sensitive = 0
    for query in queries:
        before = backend.optimizer_calls
        missing, low, high = backend.probe(query, EPSILON)
        assert backend.optimizer_calls - before == (2 if missing else 0)
        expected, expected_low, expected_high = _three_calls(
            backend, query, EPSILON
        )
        assert missing == expected  # same variables, same order
        assert plan_fingerprint(low) == plan_fingerprint(expected_low)
        assert plan_fingerprint(high) == plan_fingerprint(expected_high)
        assert (low is None) == (high is None) == (not missing)
        sensitive += bool(missing)
    return sensitive


@pytest.mark.parametrize(
    "workload, indexed", [("U25-S-100", False), ("U25-C-30", True)]
)
def test_memory_probe_equals_the_three_calls(workload, indexed):
    database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
    queries = generate_workload(database, workload, seed=7).queries()
    if indexed:
        # index seeks estimate a predicate a second time per plan
        apply_tuned_tpcd_indexes(database)
    backend = MemoryBackend(database)
    candidates = list(workload_candidate_statistics(queries))
    stats = database.stats
    # nothing built; every other candidate; all of them; a third of
    # them drop-listed again
    assert _assert_probe_equals_three_calls(backend, queries) == len(queries)
    for key in candidates[::2]:
        stats.create(key)
    assert _assert_probe_equals_three_calls(backend, queries)
    for key in candidates[1::2]:
        stats.create(key)
    everything = _assert_probe_equals_three_calls(backend, queries)
    for key in candidates[::3]:
        stats.mark_droppable(key)
    assert _assert_probe_equals_three_calls(backend, queries) > everything


def test_probe_with_a_plan_cache_attached(db):
    """The shared reads never feed a plan that is stored in a cache; the
    answers are the same."""
    query = (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "<", 30)
        .where("dept.budget", ">", 100.0)
        .build()
    )
    cached = MemoryBackend(db, Optimizer(db, cache=PlanCache(8)))
    plain = MemoryBackend(db, Optimizer(db))
    for create in (None, ColumnRef("emp", "age"), ColumnRef("dept", "id")):
        if create is not None:
            db.stats.create(create)
        for _ in range(2):  # second round: cache hits
            got = cached.probe(query, EPSILON)
            want = plain.probe(query, EPSILON)
            assert got[0] == want[0]
            assert plan_fingerprint(got[1]) == plan_fingerprint(want[1])
            assert plan_fingerprint(got[2]) == plan_fingerprint(want[2])


def test_sqlite_probe_is_the_inherited_composition():
    assert "probe" not in vars(SqliteBackend)
    assert SqliteBackend.probe is Backend.probe
    assert "probe" in vars(MemoryBackend)
    database = simple_db()
    backend = SqliteBackend(database)
    try:
        query = (
            QueryBuilder(database.schema).where("emp.age", "=", 30).build()
        )
        _assert_probe_equals_three_calls(backend, [query])
    finally:
        backend.close()

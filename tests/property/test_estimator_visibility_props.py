"""A hidden statistic never shapes an estimate or a plan.

The paper's Sec 5 contract: a drop-listed statistic stays physically
present but the optimizer must not consult it, and Sec 7.2's
``Ignore_Statistics_Subset`` hides a set the same way for one call.
For random created / drop-listed / ignored sets over ``simple_db``, the
plan, its cost and every predicate's estimate must equal those on a copy
where the hidden statistics were never built.  On the memory engine both
the optimizer and the selectivity estimator are checked; on SQLite the
backend's ``optimize``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.config import OptimizerConfig
from repro.optimizer import Optimizer
from repro.optimizer.cache import OptimizationRequest
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.variables import join_variables_of
from repro.sql.binder import parse_and_bind
from repro.stats.statistic import StatKey

from tests.util import simple_db

#: joint histograms on, so the estimator's 2-D lookup is exercised too
CONFIG = OptimizerConfig(enable_joint_histograms=True, joint_histogram_cells=4)

KEYS = [
    StatKey("emp", ("age",)),
    StatKey("emp", ("salary",)),
    StatKey("emp", ("dept_id",)),
    StatKey("emp", ("hired",)),
    StatKey("emp", ("age", "salary")),
    StatKey("emp", ("salary", "age")),
    StatKey("emp", ("dept_id", "age")),
    StatKey("dept", ("id",)),
    StatKey("dept", ("budget",)),
    StatKey("dept", ("id", "budget")),
]
HIDDEN = ("drop_listed", "ignored")
STATES = ("absent", "visible") + HIDDEN

SQL = (
    "SELECT COUNT(*) FROM emp WHERE age = 30 AND salary > 100000",
    "SELECT COUNT(*) FROM emp WHERE age BETWEEN 25 AND 45 "
    "AND salary < 90000 AND hired > 1000",
    "SELECT COUNT(*) FROM emp WHERE dept_id = 2 AND age = 30",
    "SELECT COUNT(*) FROM emp, dept WHERE emp.dept_id = dept.id "
    "AND dept.budget > 500000 AND emp.age < 40",
    "SELECT emp.dept_id, COUNT(*) FROM emp, dept "
    "WHERE emp.dept_id = dept.id AND dept.id IN (1, 2, 3) "
    "GROUP BY emp.dept_id",
)


def _database(states, keep):
    """``simple_db`` with the statistics whose state is in ``keep``
    built (in ``KEYS`` order) and the drop-listed ones marked."""
    database = simple_db(n_emp=80, n_dept=6)
    database.stats.config = CONFIG
    for key, state in zip(KEYS, states):
        if state in keep:
            database.stats.create(key)
    for key, state in zip(KEYS, states):
        if state == "drop_listed" and state in keep:
            database.stats.mark_droppable(key)
    return database


def _outcome(result):
    return result.signature, result.cost, result.rows


def _estimates(database, query):
    estimator = SelectivityEstimator(database, database.stats.config)
    return (
        [estimator.predicate_selectivity(p) for p in query.predicates],
        [
            estimator.table_filter_selectivity(
                table,
                [p for p in query.predicates if p.columns()[0].table == table],
            )
            for table in query.tables
        ],
        [
            estimator.join_group_selectivity(variable)
            for variable in join_variables_of(query)
        ],
    )


states_strategy = st.lists(
    st.sampled_from(STATES), min_size=len(KEYS), max_size=len(KEYS)
)


@given(states_strategy)
@settings(max_examples=100, deadline=None)
def test_memory_plans_and_estimates_ignore_hidden_statistics(states):
    full = _database(states, keep=("visible",) + HIDDEN)
    bare = _database(states, keep=("visible",))
    ignored = [key for key, state in zip(KEYS, states) if state == "ignored"]
    queries = [parse_and_bind(sql, full.schema) for sql in SQL]
    with full.stats.ignore_subset(ignored):
        for query in queries:
            assert _outcome(Optimizer(full).optimize(query)) == _outcome(
                Optimizer(bare).optimize(query)
            ), query.text
            assert _estimates(full, query) == _estimates(bare, query), (
                query.text
            )
    # the same hiding through the backend's request-scoped ignore set
    backend, reference = MemoryBackend(full), MemoryBackend(bare)
    for query in queries:
        assert _outcome(
            backend.optimize(OptimizationRequest(query, ignore=ignored))
        ) == _outcome(reference.optimize(OptimizationRequest(query))), (
            query.text
        )


@given(states_strategy)
@settings(max_examples=40, deadline=None)
def test_sqlite_plans_ignore_hidden_statistics(states):
    database = simple_db(n_emp=80, n_dept=6)
    queries = [parse_and_bind(sql, database.schema) for sql in SQL]
    full, bare = SqliteBackend(database), SqliteBackend(database)
    try:
        for key, state in zip(KEYS, states):
            if state != "absent":
                full.create_stats(key)
            if state == "visible":
                bare.create_stats(key)
            if state == "drop_listed":
                full.mark_stat_droppable(key)
        ignored = [
            key for key, state in zip(KEYS, states) if state == "ignored"
        ]
        for query in queries:
            assert _outcome(
                full.optimize(OptimizationRequest(query, ignore=ignored))
            ) == _outcome(bare.optimize(OptimizationRequest(query))), (
                query.text
            )
    finally:
        full.close()
        bare.close()

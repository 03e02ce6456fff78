"""Concurrency stress test: many sessions, background advisor workers.

The service's correctness claims under concurrency:

* **no deadlock** — a mixed query/DML stream from N client threads with
  2 advisor workers and the staleness monitor running always drains and
  shuts down;
* **no lost updates** — every DML statement's effect lands exactly once,
  so final row counts match the single-threaded expectation;
* **convergence** — the statistics the background workers build are the
  same set a synchronous :class:`~repro.service.LockStepAdvisor` pass
  builds for the same workload.

Convergence needs the analysis itself to be order-insensitive, so the
test pins ``t_percent=0``: MNSA then never stops early on the
t-equivalence shortcut and builds statistics for every selectivity
variable a query leaves on magic numbers, making the final physical set
the order-independent union over queries.  One subtlety remains: join
statistics are built as *pairs* (Sec 4.2 dependency), and once either
side of a join column pair exists the join's selectivity variable is no
longer magic, so the partner would only be built if order favours the
join query.  The workload therefore covers both join columns
(``emp.dept_id``, ``dept.id``) with single-table predicates as well,
which restores order independence of the union.  Refresh triggers are
disabled on both sides (fraction 1.0, never reached) so histogram
rebuild timing cannot perturb the analysis either.
"""

import threading

import pytest

from repro.config import ServiceConfig
from repro.core.mnsa import MnsaConfig
from repro.service import LockStepAdvisor, StatsService
from repro.sql.binder import parse_and_bind

from tests.util import simple_db

N_CLIENTS = 6
JOIN_TIMEOUT = 60.0

QUERIES = [
    "SELECT COUNT(*) FROM emp WHERE age > 40",
    "SELECT COUNT(*) FROM emp WHERE salary > 120000",
    "SELECT COUNT(*) FROM emp WHERE age < 30 AND salary < 60000",
    "SELECT COUNT(*) FROM dept WHERE budget > 1000000",
    "SELECT e.age, d.dname FROM emp e, dept d "
    "WHERE e.dept_id = d.id AND e.salary > 90000",
    "SELECT COUNT(*) FROM emp WHERE hired > 1000",
    "SELECT COUNT(*) FROM emp WHERE dept_id = 2",
    "SELECT COUNT(*) FROM dept WHERE id > 3",
    "SELECT COUNT(*) FROM dept WHERE budget < 500000",
]


def build_statements(schema):
    """A deterministic mixed stream: queries interleaved with inserts."""
    statements = []
    next_id = 10_000
    for round_no in range(3):
        for sql in QUERIES:
            statements.append(parse_and_bind(sql, schema))
            statements.append(
                parse_and_bind(
                    f"INSERT INTO emp (id, age, salary, dept_id, name, "
                    f"hired) VALUES ({next_id}, {25 + round_no}, 50000.0, "
                    f"1, 'stress{next_id}', '1997-06-15')",
                    schema,
                )
            )
            next_id += 1
    return statements


def analysis_config() -> MnsaConfig:
    # t=0 disables the early-stop shortcut; see module docstring
    return MnsaConfig(t_percent=0.0)


def run_synchronous(db):
    """The reference pass: one thread, inline advisor."""
    advisor = LockStepAdvisor(
        db,
        ServiceConfig(creation_policy="mnsa", staleness_fraction=1.0),
        mnsa_config=analysis_config(),
    )
    advisor.run_workload(build_statements(db.schema))
    return advisor


def run_service(db, clients: int = N_CLIENTS):
    """The system under test: N sessions + 2 workers + monitor."""
    statements = build_statements(db.schema)
    service = StatsService(
        db,
        ServiceConfig(
            advisor_workers=2,
            advisor_poll_seconds=0.01,
            creation_policy="mnsa",
            staleness_fraction=1.0,
            staleness_poll_seconds=0.02,
        ),
        mnsa_config=analysis_config(),
    )
    errors = []

    def client(slice_):
        session = service.session()
        try:
            for statement in slice_:
                session.submit_statement(statement)
        except BaseException as exc:
            errors.append(exc)

    with service:
        threads = [
            threading.Thread(
                target=client, args=(statements[i::clients],)
            )
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
        alive = [t for t in threads if t.is_alive()]
        assert not alive, f"client threads deadlocked: {alive}"
        assert service.drain(timeout=JOIN_TIMEOUT), "drain timed out"
    return service, errors, statements


@pytest.mark.slow
class TestServiceStress:
    def test_concurrent_sessions_converge_with_sync_advisor(self):
        sync_db = simple_db(seed=5)
        svc_db = simple_db(seed=5)

        run_synchronous(sync_db)
        service, errors, statements = run_service(svc_db)

        assert errors == []
        assert service.worker_errors() == []

        # no lost updates: every insert landed exactly once
        inserts = sum(
            1 for s in statements if getattr(s, "kind", None) == "insert"
        )
        assert inserts > 0
        assert svc_db.row_count("emp") == sync_db.row_count("emp")
        assert (
            svc_db.row_count("emp") == simple_db(seed=5).row_count("emp")
            + inserts
        )
        assert (
            service.metrics.counter("service.rows_modified") == inserts
        )

        # every statement was served and every query captured
        assert service.metrics.counter("service.queries") == len(
            statements
        ) - inserts
        assert service.metrics.counter("capture.events") == len(
            statements
        ) - inserts
        assert service.metrics.counter("capture.dropped") == 0

        # convergence: same physical statistics as the synchronous pass
        assert sorted(map(str, svc_db.stats.keys())) == sorted(
            map(str, sync_db.stats.keys())
        )
        assert len(service.created_off_path) == len(svc_db.stats.keys())

    def test_repeated_runs_are_stable(self):
        """Three runs with different client counts build the same set."""
        reference = None
        for clients in (1, 3, 6):
            db = simple_db(seed=5)
            service, errors, _ = run_service(db, clients=clients)
            assert errors == []
            built = sorted(map(str, db.stats.keys()))
            if reference is None:
                reference = built
            assert built == reference


class TestConcurrentManagerAccess:
    def test_no_lost_stat_creations(self):
        """Racing create/mark_droppable/revive on one manager is safe."""
        db = simple_db()
        columns = ["id", "age", "salary", "dept_id", "hired"]
        errors = []

        def worker(column):
            from repro.stats.statistic import StatKey

            key = StatKey("emp", (column,))
            try:
                for _ in range(25):
                    db.stats.create(key)
                    db.stats.mark_droppable(key)
                    db.stats.revive(key)
                    db.stats.drop(key)
                db.stats.create(key)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(c,)) for c in columns
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT)
        assert errors == []
        assert len(db.stats.keys()) == len(columns)
        assert len(db.stats.visible_keys()) == len(columns)

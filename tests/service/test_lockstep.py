"""The lock-step driver and the threaded service make the same decisions.

:class:`~repro.service.LockStepAdvisor` runs the service's advisor step
before each query and its maintenance pass after each DML statement, on
the caller's thread.  A one-worker service drained after every statement,
with its monitor pass run after every DML statement, must then hold the
same visible statistics, drop-list and physical statistics after every
statement: only the schedule differs.
"""

import pytest

from repro.datagen import make_tpcd_database
from repro.service import LockStepAdvisor, ServiceRequest
from repro.config import ServiceConfig
from repro.sql.query import DmlStatement
from repro.workload import generate_workload

from tests.util import make_service


def _database():
    return make_tpcd_database(scale=0.002, z=2.0, seed=42)


def _state(database):
    stats = database.stats
    return (
        set(stats.visible_keys()),
        stats.drop_list(),
        set(stats.keys()),
    )


def assert_in_lock_step(workload, **config):
    inline_db, served_db = _database(), _database()
    statements = generate_workload(inline_db, workload, seed=7).statements
    advisor = LockStepAdvisor(inline_db, ServiceConfig(**config))
    service = make_service(served_db, **config)
    with service:
        (shard,) = service.shards
        for number, statement in enumerate(statements):
            advisor.process_statement(statement)
            service.submit(ServiceRequest(statement))
            assert service.drain(timeout=60.0)
            if isinstance(statement, DmlStatement):
                shard.monitor.run_once()
            assert _state(inline_db) == _state(served_db), number
    assert service.worker_errors() == []
    return advisor, service


@pytest.mark.parametrize("workload", ["U25-S-100", "U25-C-30", "U50-S-100"])
def test_driver_matches_the_served_path(workload):
    advisor, _ = assert_in_lock_step(workload)
    assert advisor.report().created


def test_driver_matches_the_served_path_on_sqlite_with_aging_and_drops():
    advisor, service = assert_in_lock_step(
        "U50-S-100",
        backend="sqlite",
        staleness_fraction=0.05,
        drop_after_refreshes=1,
        aging_window=50,
    )
    assert advisor.report().dropped > 0
    assert service.metrics.counter("monitor.dropped") > 0

"""A foreign analysis backend and the in-memory statistics stay in step.

Analyses that run in SQLite are mirrored into ``database.stats``, which
the foreground optimizer and the counter-driven policies read: every
statistic SQLite holds must have the same visibility in memory after
every statement — including one SQLite revived by creating it again
after an earlier analysis drop-listed it — and DML must reach both.
"""

import pytest

from repro.config import ServiceConfig
from repro.datagen import make_tpcd_database
from repro.service import LockStepAdvisor, ServiceRequest
from repro.workload import generate_workload

from tests.util import make_service


def _database():
    return make_tpcd_database(scale=0.002, z=2.0, seed=42)


def _out_of_step(backend, database) -> list:
    """SQLite's statistics whose visibility memory does not share."""
    return [
        key
        for key in backend.stat_keys()
        if backend.is_stat_visible(key) != database.stats.is_visible(key)
    ]


@pytest.mark.parametrize("workload", ["U25-S-100", "U25-C-30", "U0-C-30"])
def test_service_mirror_keeps_visibility_in_step(workload):
    database = _database()
    statements = generate_workload(database, workload, seed=7).statements
    service = make_service(database, backend="sqlite")
    sqlite = service.analysis_backend
    with service:
        for number, statement in enumerate(statements):
            service.submit(ServiceRequest(statement))
            assert service.drain(timeout=60.0)
            assert _out_of_step(sqlite, database) == [], number
        revived = service.metrics.counter("backend.mirrored_revives")
    assert service.worker_errors() == []
    if workload == "U25-S-100":
        assert revived > 0


@pytest.mark.parametrize(
    "workload, drop_after_refreshes",
    [
        ("U25-S-100", 4),
        # refreshed once, a drop-listed statistic is physically dropped
        ("U50-S-100", 1),
    ],
    ids=["U25-S-100", "U50-S-100-physical-drops"],
)
def test_advisor_keeps_a_foreign_backend_in_step(
    workload, drop_after_refreshes
):
    """MNSA/D through the lock-step driver over SQLite on a workload
    with DML: the drop-lists, the visibility of every statistic and the
    table sizes agree after every statement, also once the maintenance
    pass physically drops statistics."""
    database = _database()
    statements = generate_workload(database, workload).statements
    advisor = LockStepAdvisor(
        database,
        ServiceConfig(
            backend="sqlite", drop_after_refreshes=drop_after_refreshes
        ),
    )
    sqlite = advisor.service.analysis_backend
    for number, statement in enumerate(statements):
        advisor.process_statement(statement)
        assert _out_of_step(sqlite, database) == [], number
        assert sqlite.stat_drop_list() == database.stats.drop_list()
        assert set(sqlite.stat_keys()) == set(database.stats.keys())
        for table in database.table_names():
            assert sqlite.row_count(table) == database.row_count(table)
    assert database.stats.drop_list()
    if drop_after_refreshes == 1:
        assert advisor.report().dropped


def test_purge_keeps_a_foreign_backend_in_step():
    """Purging drop-listed statistics before a refresh drops SQLite's
    copies too: drop-lists and physical statistics agree after every
    statement of a workload that purges many times."""
    database = _database()
    statements = generate_workload(database, "U50-S-100").statements
    service = make_service(
        database,
        backend="sqlite",
        staleness_fraction=0.05,
        purge_drop_list_before_refresh=True,
    )
    sqlite = service.analysis_backend
    with service:
        (shard,) = service.shards
        for number, statement in enumerate(statements):
            service.submit(ServiceRequest(statement))
            assert service.drain(timeout=60.0)
            shard.monitor.run_once()
            assert sqlite.stat_drop_list() == database.stats.drop_list()
            assert set(sqlite.stat_keys()) == set(database.stats.keys())
            assert _out_of_step(sqlite, database) == [], number
        purged = service.metrics.counter("monitor.purged")
    assert service.worker_errors() == []
    assert purged > 0

"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from repro.catalog import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.config import ServiceConfig
from repro.service import ServiceRequest, StatsService
from repro.storage import Database
from repro.workload import generate_workload

I = ColumnType.INT
F = ColumnType.FLOAT
S = ColumnType.STRING
D = ColumnType.DATE


def simple_schema() -> Schema:
    """Two joined tables: emp(id, age, salary, dept_id, name) / dept(...)."""
    emp = TableSchema(
        "emp",
        [
            Column("id", I),
            Column("age", I),
            Column("salary", F),
            Column("dept_id", I),
            Column("name", S),
            Column("hired", D),
        ],
        primary_key=("id",),
    )
    dept = TableSchema(
        "dept",
        [
            Column("id", I),
            Column("dname", S),
            Column("budget", F),
        ],
        primary_key=("id",),
    )
    return Schema(
        [emp, dept],
        [ForeignKey("emp", ("dept_id",), "dept", ("id",))],
    )


def simple_db(n_emp: int = 200, n_dept: int = 8, seed: int = 3) -> Database:
    """A small deterministic database over :func:`simple_schema`.

    Ages are skewed (most employees are 30), salaries spread uniformly,
    and department references are skewed toward low ids — enough structure
    for statistics to matter.
    """
    rng = np.random.default_rng(seed)
    db = Database(simple_schema(), name="simple")
    ages = np.where(
        rng.uniform(size=n_emp) < 0.6,
        30,
        rng.integers(20, 65, size=n_emp),
    ).astype(np.int64)
    dept_weights = 1.0 / np.arange(1, n_dept + 1)
    dept_weights /= dept_weights.sum()
    db.load_table(
        "emp",
        {
            "id": np.arange(1, n_emp + 1),
            "age": ages,
            "salary": np.round(rng.uniform(30_000, 200_000, size=n_emp), 2),
            "dept_id": rng.choice(
                np.arange(1, n_dept + 1), size=n_emp, p=dept_weights
            ),
            "name": [f"emp{i}" for i in range(1, n_emp + 1)],
            "hired": rng.integers(0, 2000, size=n_emp),
        },
    )
    db.load_table(
        "dept",
        {
            "id": np.arange(1, n_dept + 1),
            "dname": [f"dept{i}" for i in range(1, n_dept + 1)],
            "budget": np.round(
                rng.uniform(100_000, 5_000_000, size=n_dept), 2
            ),
        },
    )
    return db


def plan_fingerprint(result):
    """What two optimizer answers must share to count as the same plan:
    signature, and cost and rows to the last bit; ``None`` for no plan."""
    if result is None:
        return None
    return repr(result.signature), result.cost.hex(), result.rows.hex()


def make_service(db, **overrides) -> StatsService:
    """A one-worker service that polls fast and never refreshes on its
    own; ``overrides`` are further :class:`ServiceConfig` fields."""
    defaults = dict(
        advisor_workers=1,
        advisor_poll_seconds=0.01,
        staleness_poll_seconds=1.0e6,
    )
    defaults.update(overrides)
    return StatsService(db, ServiceConfig(**defaults))


def assert_replay_converges(database, backend, advisor_workers):
    """Replay U0-C-30 lock-step until a pass changes no statistic, then
    replay it once more: that pass must analyse, create, drop-list and
    revalidate nothing, and leave the visible set as it found it.

    MNSA/D is order dependent, so the second pass may still retain a
    statistic (a query analysed early in pass one sees what later
    queries retained); without the advisor's verdict ledger the
    drop-listed statistics are revived and drop-listed again on every
    pass, so no pass is quiet.
    """
    queries = generate_workload(database, "U0-C-30", seed=0).queries()
    service = make_service(
        database, advisor_workers=advisor_workers, backend=backend
    )
    metrics = service.metrics
    watched = (
        "advisor.events",
        "advisor.stats_created",
        "advisor.stats_drop_listed",
    )

    def replay():
        before = [metrics.counter(name) for name in watched]
        revalidations = service.plan_cache.revalidation_count
        for query in queries:
            service.submit(ServiceRequest(query))
            assert service.drain(timeout=60.0)
        moved = [metrics.counter(n) - b for n, b in zip(watched, before)]
        moved.append(service.plan_cache.revalidation_count - revalidations)
        return moved

    with service:
        for passes in range(1, 5):
            created = replay()[1]
            if created == 0:
                break
        assert created == 0, f"still creating after {passes} passes"
        visible = sorted(database.stats.visible_keys())
        settled = metrics.counter("advisor.settled")
        assert replay() == [0, 0, 0, 0]
        assert sorted(database.stats.visible_keys()) == visible
        assert metrics.counter("advisor.settled") > settled
    assert service.worker_errors() == []
    return passes

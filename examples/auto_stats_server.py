"""Online auto-statistics: a self-tuning server session (Sec 6).

Run with::

    python examples/auto_stats_server.py

Runs the aggressive Sec 6 policy — statistics managed on the fly for each
incoming statement, by the lock-step driver
(:class:`repro.LockStepAdvisor`) — and compares three server
configurations on the same update-heavy workload:

* SQL Server 7.0 style: create every syntactically relevant
  single-column statistic per query (the paper's baseline);
* MNSA/D: create only what the sensitivity analysis justifies, and
  drop-list statistics that never changed a plan;
* no statistics at all (magic numbers only).

Each configuration reports statistics creation cost, refresh (update)
cost triggered by the DML stream, and total workload execution cost.

The final section runs the same workload through the *online service*
(:class:`repro.StatsService`): concurrent client sessions submit
statements while background MNSA/D workers and a staleness monitor manage
statistics off the query path.  The driver and the service run the same
advisor step and maintenance pass; only the schedule differs.  See
``docs/service.md``.
"""

import threading

from repro import (
    LockStepAdvisor,
    ServiceConfig,
    StatsService,
    generate_workload,
    make_tpcd_database,
)


def run_configuration(policy: str, label: str) -> None:
    db = make_tpcd_database(scale=0.005, z=2.0, seed=7)
    workload = generate_workload(db, "U25-S-100")
    advisor = LockStepAdvisor(
        db,
        ServiceConfig(
            creation_policy=policy,
            staleness_fraction=0.2,
            drop_after_refreshes=4,
            aging_window=25,
        ),
    )
    report = advisor.run_workload(workload.statements)
    visible = db.stats.visible_keys()
    print(f"--- {label}")
    print(f"  statements processed:   {report.statements}")
    print(f"  statistics created:     {len(report.created)}")
    print(f"  statistics visible now: {len(visible)}")
    print(f"  creation cost:          {report.creation_cost:>12,.0f}")
    print(f"  refresh (update) cost:  {report.update_cost:>12,.0f}")
    print(f"  workload exec cost:     {report.execution_cost:>12,.0f}")
    print()


def run_without_statistics() -> None:
    """A capture-only service (no advisor workers) never builds one."""
    db = make_tpcd_database(scale=0.005, z=2.0, seed=7)
    workload = generate_workload(db, "U25-S-100")
    with StatsService(db, ServiceConfig(advisor_workers=0)) as service:
        session = service.session()
        for statement in workload.statements:
            session.submit_statement(statement)
    print("--- no statistics (magic numbers)")
    print(f"  statements processed:   {len(workload.statements)}")
    print(f"  statistics created:     {len(db.stats.keys())}")
    cost = service.metrics.counter("service.execution_cost")
    print(f"  workload exec cost:     {cost:>12,.0f}")
    print()


def run_service(clients: int = 4, workers: int = 2) -> None:
    """The same workload through the concurrent StatsService."""
    db = make_tpcd_database(scale=0.005, z=2.0, seed=7)
    workload = generate_workload(db, "U25-S-100")
    service = StatsService(
        db, ServiceConfig(advisor_workers=workers, creation_policy="mnsad")
    )

    def client(statements) -> None:
        session = service.session()
        for statement in statements:
            session.submit_statement(statement)

    with service:
        threads = [
            threading.Thread(
                target=client, args=(workload.statements[i::clients],)
            )
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.drain()
    print(f"--- StatsService ({clients} sessions, {workers} workers)")
    print(f"  statistics created off the query path: "
          f"{len(service.created_off_path)}")
    print(f"  statistics visible now: {len(db.stats.visible_keys())}")
    print("  metrics:")
    for line in service.metrics_text().splitlines():
        print(f"    {line}")
    print()


def main() -> None:
    print("online statistics management, workload U25-S-100, TPCD_2\n")
    run_configuration(
        "syntactic", "SQL Server 7.0 auto-statistics (all syntactic singles)"
    )
    run_configuration("mnsad", "MNSA/D (paper) with drop-list + aging")
    run_without_statistics()
    run_service()


if __name__ == "__main__":
    main()

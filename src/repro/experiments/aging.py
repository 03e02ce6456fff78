"""The aging experiment (paper Sec 6, details deferred to its ref [5]).

"The basic idea behind aging is that statistics with high creation/update
cost that have been dropped after being found non-essential for a
workload should not be recreated immediately if the same (or similar)
workload repeats on the server."

Scenario: an update-heavy workload runs twice through the lock-step
online advisor with an aggressive drop rule in between, so statistics found
non-essential get physically dropped.  Without aging the repeat run
rebuilds them immediately; with aging the rebuilds are dampened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import ServiceConfig
from repro.service import LockStepAdvisor
from repro.workload import generate_workload


@dataclass
class AgingRow:
    """One arm (with or without aging) of the repeat-workload scenario."""

    aging_enabled: bool
    statistics_created: int
    creation_cost: float
    execution_cost: float
    statistics_dropped: int


def run_aging_experiment(
    database_factory: Callable,
    z,
    workload_name: str = "U50-S-100",
    repeats: int = 2,
    aging_window: int = 500,
    expensive_query_cost: float = float("inf"),
):
    """Run the repeat-workload scenario with and without aging.

    Returns ``(without_aging, with_aging)`` :class:`AgingRow` pairs.
    """
    rows = []
    for window in (0, aging_window):
        db = database_factory(z)
        workload = generate_workload(db, workload_name)
        advisor = LockStepAdvisor(
            db,
            ServiceConfig(
                creation_policy="mnsad",
                staleness_fraction=0.05,
                drop_after_refreshes=1,
                aging_window=window,
                aging_expensive_query_cost=expensive_query_cost,
            ),
        )
        for _ in range(repeats):
            report = advisor.run_workload(workload.statements)
        rows.append(
            AgingRow(
                aging_enabled=window > 0,
                statistics_created=len(report.created),
                creation_cost=report.creation_cost,
                execution_cost=report.execution_cost,
                statistics_dropped=report.dropped,
            )
        )
    return tuple(rows)

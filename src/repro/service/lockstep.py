"""The lock-step driver: the service's Sec 6 regime, run inline.

The paper (and SQL Server 7.0) decide statistics on the query path.
:class:`LockStepAdvisor` runs that schedule over a
:class:`~repro.service.service.StatsService` it never starts, with no
capture log and no threads: per query the advisor step, then plan and
execute; per DML statement the DML path, then every shard's maintenance
pass.  It decides what the service drained after every statement
decides; only the schedule differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ServiceConfig
from repro.core.mnsa import MnsaConfig
from repro.service.api import ServiceRequest
from repro.service.service import StatsService
from repro.service.worker import AdvisorWorker
from repro.stats.statistic import StatKey


@dataclass(frozen=True)
class LockStepReport:
    """A run's totals, read off the service's metrics.  ``created``
    lists distinct statistics in first-creation order,
    ``completion_cost`` is the part of ``creation_cost`` MNSA/D spent
    rebuilding sampled statistics in full, ``optimizer_calls`` the
    analyses' optimizer calls (their share of ``creation_cost`` is
    ``OPTIMIZER_CALL_COST`` each), ``update_cost``
    is refresh plus incremental maintenance, ``dropped`` counts physical
    drops, and ``skipped`` the analyses the step skipped (nothing on a
    magic number, or a verdict the ledger held)."""

    statements: int
    created: List[StatKey]
    creation_cost: float
    completion_cost: float
    optimizer_calls: int
    update_cost: float
    execution_cost: float
    dropped: int
    skipped: int


class LockStepAdvisor:
    """Drives automated statistics management inline over one database
    (``config.advisor_workers`` and the thread cadences are unused)."""

    def __init__(
        self,
        database,
        config: Optional[ServiceConfig] = None,
        mnsa_config: Optional[MnsaConfig] = None,
    ) -> None:
        self.service = StatsService(database, config, mnsa_config)
        shards = self.service.shards
        self._advisor = AdvisorWorker(self.service, shards[0])
        self._passes = [self.service.maintenance(shard) for shard in shards]

    def process_statement(self, statement):
        """Process one statement; returns the query's execution (or,
        without ``execute_queries``, optimization) result or the DML
        statement's affected row count."""
        service = self.service
        request = ServiceRequest(statement)
        service.tick()
        if not request.is_query:
            affected = service._serve_dml(request, 0.0).result
            for maintenance in self._passes:
                maintenance.run_once()
            return affected
        self._advisor.advise(service.plan_event(request.statement.query))
        return service._run_query(request, 0.0)[0].result

    def run_workload(self, statements) -> LockStepReport:
        for statement in statements:
            self.process_statement(statement)
        return self.report()

    def report(self) -> LockStepReport:
        count = self.service.metrics.counter
        return LockStepReport(
            int(count("service.queries") + count("service.dml_statements")),
            self.service.created_off_path,
            count("advisor.creation_cost"),
            count("advisor.completion_cost"),
            int(count("advisor.optimizer_calls")),
            count("monitor.refresh_cost") + count("service.incremental_cost"),
            count("service.execution_cost"),
            int(count("monitor.dropped") + count("monitor.purged")),
            int(count("advisor.skipped") + count("advisor.settled")),
        )

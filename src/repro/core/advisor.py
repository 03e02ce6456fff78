"""The end-to-end automation facade.

:class:`StatisticsAdvisor` strings the paper's mechanisms and policies
together the way a self-tuning server would:

* **online** operation: each incoming statement flows through
  :meth:`process_statement` — queries trigger the configured creation
  policy (SQL Server-style syntactic, MNSA, or MNSA/D, with aging
  applied), get optimized, and optionally executed; DML advances the
  modification counters and may trigger the refresh/drop policy;
* **offline** operation: :meth:`offline_tune` runs MNSA over a workload
  and then the Shrinking Set algorithm, the conservative Sec 6 regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.core.candidates import (
    CandidateMode,
    candidate_statistics,
)
from repro.core.mnsa import (
    MnsaConfig,
    MnsaResult,
    mnsa_for_query,
    mnsa_for_workload,
)
from repro.core.mnsad import mnsad_for_query
from repro.core.policy import (
    AgingPolicy,
    AutoDropPolicy,
    CreationPolicy,
    DropPolicyActions,
)
from repro.core.shrinking import ShrinkingSetResult, shrinking_set
from repro.errors import PolicyError
from repro.executor.dml import apply_dml
from repro.executor.executor import Executor
from repro.optimizer.cache import PlanCache
from repro.optimizer.optimizer import Optimizer
from repro.sql.query import DmlStatement, Query
from repro.stats.statistic import StatKey


def mirror_decisions(stats, result: MnsaResult) -> Tuple[int, int, int]:
    """Reflect an analysis that ran on a foreign backend into ``stats``.

    The counter-driven refresh/drop policies and the foreground
    optimizer read the in-memory statistics manager, so it must see what
    the foreign engine decided: build the created statistics, revive the
    retained ones it holds drop-listed (the engine revived them by
    creating them again), and drop-list the dropped ones.  Returns the
    ``(created, revived, drop-listed)`` counts.
    """
    created = revived = dropped = 0
    for key in result.created:
        if not stats.has(key):
            stats.create(key)
            created += 1
    for key in result.retained:
        if stats.is_droppable(key):
            stats.revive(key)
            revived += 1
    for key in result.dropped:
        if not stats.is_droppable(key):
            stats.mark_droppable(key)
            dropped += 1
    return created, revived, dropped


@dataclass
class AdvisorReport:
    """Accumulated activity of one advisor session.

    Attributes:
        statements: statements processed.
        created: statistics created (deduplicated, in first-creation order).
        dropped: statistics physically dropped by policy.
        refreshed_tables: statistics refreshes triggered by DML counters.
        creation_cost: statistic-build + optimizer-overhead work units.
        update_cost: refresh work units spent by the drop policy.
        execution_cost: total actual cost of executed queries.
        optimizer_calls: total optimizer invocations.
    """

    statements: int = 0
    created: List[StatKey] = field(default_factory=list)
    dropped: List[StatKey] = field(default_factory=list)
    refreshed_tables: List[str] = field(default_factory=list)
    creation_cost: float = 0.0
    update_cost: float = 0.0
    execution_cost: float = 0.0
    optimizer_calls: int = 0


class StatisticsAdvisor:
    """Drives automated statistics management over one database."""

    def __init__(
        self,
        database,
        creation_policy: CreationPolicy = CreationPolicy.MNSAD,
        mnsa_config: Optional[MnsaConfig] = None,
        drop_policy: Optional[AutoDropPolicy] = None,
        aging: Optional[AgingPolicy] = None,
        execute_queries: bool = True,
        incremental_maintenance: bool = False,
        cache: Optional[PlanCache] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        self._db = database
        self._optimizer = Optimizer(database, cache=cache)
        self._executor = Executor(database)
        #: the engine the creation policies run against; defaults to the
        #: in-memory stack above.  With a foreign engine (e.g.
        #: ``SqliteBackend``), DML is replayed into it and its creation,
        #: revival and drop-list decisions are mirrored into
        #: ``database.stats`` (:func:`mirror_decisions`), so the DML
        #: refresh/drop policies — which read the in-memory modification
        #: counters — keep working on the same data.
        self._backend = (
            backend
            if backend is not None
            else MemoryBackend(
                database, optimizer=self._optimizer, executor=self._executor
            )
        )
        self._mirror = not isinstance(self._backend, MemoryBackend)
        self.creation_policy = creation_policy
        self.mnsa_config = mnsa_config or MnsaConfig()
        self.drop_policy = drop_policy or AutoDropPolicy()
        self.aging = aging
        self.execute_queries = execute_queries
        #: maintain histograms incrementally on INSERT streams (paper ref
        #: [8]) instead of waiting for the modification counter to force
        #: full refreshes; degraded histograms still get rebuilt.
        self.incremental_maintenance = incremental_maintenance
        self.report = AdvisorReport()
        self._clock = 0  # logical time for aging

    # ------------------------------------------------------------------
    # online path
    # ------------------------------------------------------------------

    def process_statement(self, statement):
        """Process one incoming statement; returns the execution result
        for queries (or the affected row count for DML)."""
        self._clock += 1
        self.report.statements += 1
        if isinstance(statement, Query):
            return self._process_query(statement)
        if isinstance(statement, DmlStatement):
            return self._process_dml(statement)
        raise PolicyError(
            f"cannot process statement of type {type(statement).__name__}"
        )

    def run_workload(self, statements) -> AdvisorReport:
        """Process a sequence of statements; returns the session report."""
        for statement in statements:
            self.process_statement(statement)
        return self.report

    def _process_query(self, query: Query):
        self._create_statistics_for(query)
        result = self._backend.optimize_query(query)
        self.report.optimizer_calls = self._backend.optimizer_calls
        if not self.execute_queries:
            return result
        if isinstance(self._backend, MemoryBackend):
            executed = self._executor.execute(result.plan, query)
        else:
            executed = self._backend.execute(query)
        self.report.execution_cost += executed.actual_cost
        return executed

    def _create_statistics_for(self, query: Query) -> None:
        policy = self.creation_policy
        if policy == CreationPolicy.NONE:
            return
        candidates = candidate_statistics(
            query,
            CandidateMode.SINGLE_COLUMN
            if policy == CreationPolicy.SYNTACTIC
            else self.mnsa_config.candidate_mode,
        )
        candidates = self._apply_aging(query, candidates)
        if policy == CreationPolicy.SYNTACTIC:
            # SQL Server 7.0: create every syntactically relevant
            # single-column statistic on the fly.
            before = self._backend.creation_cost_total
            created = [
                key
                for key in candidates
                if not self._backend.is_stat_visible(key)
            ]
            for key in created:
                self._backend.create_stats(key)
            result = MnsaResult(
                created=created,
                retained=created,
                creation_cost=self._backend.creation_cost_total - before,
            )
        else:
            analyze = (
                mnsa_for_query
                if policy == CreationPolicy.MNSA
                else mnsad_for_query
            )
            result = analyze(
                self._backend,
                query,
                candidates=candidates,
                config=self.mnsa_config,
            )
        self._note_analysis(result)

    def _note_analysis(self, result: MnsaResult) -> None:
        for key in result.created:
            if key not in self.report.created:
                self.report.created.append(key)
        self.report.creation_cost += result.creation_cost
        if self._mirror:
            mirror_decisions(self._db.stats, result)

    def _apply_aging(self, query: Query, candidates):
        if self.aging is None:
            return candidates
        # estimate the query's cost once to decide if it is "expensive"
        estimate = self._backend.optimize_query(query).cost
        return [
            key
            for key in candidates
            if not self.aging.suppresses(key, self._clock, estimate)
        ]

    def _process_dml(self, statement: DmlStatement) -> int:
        if self._mirror:
            # keep the foreign engine's data in step
            self._backend.execute(statement)
        if self.incremental_maintenance and statement.kind == "insert":
            return self._process_insert_incrementally(statement)
        affected = apply_dml(self._db, statement)
        actions = self.drop_policy.apply(self._db)
        self._note_drop_actions(actions)
        return affected

    def _process_insert_incrementally(self, statement: DmlStatement) -> int:
        """INSERT path with ref-[8]-style histogram maintenance."""
        table = self._db.table(statement.table)
        rows_before = table.row_count
        affected = apply_dml(self._db, statement)
        if affected:
            inserted = {
                name: table.column_array(name)[rows_before:]
                for name in table.schema.column_names()
            }
            cost = self._db.stats.apply_incremental_inserts(
                statement.table, inserted
            )
            self.report.update_cost += cost
            for key in self._db.stats.keys_needing_rebuild(statement.table):
                self.report.update_cost += self._db.stats.rebuild(key)
                self.report.refreshed_tables.append(statement.table)
            # incremental maintenance covered these inserts
            table.rows_modified_since_stats = max(
                0, table.rows_modified_since_stats - affected
            )
        return affected

    def _note_drop_actions(self, actions: DropPolicyActions) -> None:
        self.report.refreshed_tables.extend(actions.refreshed_tables)
        self.report.update_cost += actions.update_cost
        for key in actions.dropped:
            self.report.dropped.append(key)
            if self._mirror and self._backend.has_stats(key):
                self._backend.drop_stats(key)
            if self.aging is not None:
                self.aging.record_drop(key, self._clock)

    # ------------------------------------------------------------------
    # offline path
    # ------------------------------------------------------------------

    def offline_tune(self, queries) -> ShrinkingSetResult:
        """The conservative Sec 6 regime: MNSA per query over the whole
        workload, then Shrinking Set to eliminate non-essential statistics."""
        queries = [q for q in queries if isinstance(q, Query)]
        self._note_analysis(
            mnsa_for_workload(self._backend, queries, config=self.mnsa_config)
        )
        shrink = shrinking_set(self._backend, queries)
        for key in shrink.removed:
            self.report.dropped.append(key)
            if self._mirror and self._db.stats.has(key):
                self._db.stats.drop(key)
            if self.aging is not None:
                self.aging.record_drop(key, self._clock)
        self.report.optimizer_calls = self._backend.optimizer_calls
        return shrink

    # ------------------------------------------------------------------

    @property
    def backend(self) -> Backend:
        """The engine the creation policies run against."""
        return self._backend

    @property
    def optimizer(self) -> Optimizer:
        return self._optimizer

    @property
    def executor(self) -> Executor:
        return self._executor

"""The in-memory engine behind the :class:`~repro.backends.base.Backend`
protocol.

A thin adapter over the existing :class:`~repro.storage.Database` /
:class:`~repro.optimizer.Optimizer` / :class:`~repro.executor.Executor`
stack.  Every method delegates 1:1, so running an algorithm through
``MemoryBackend(database, optimizer)`` is byte-identical to calling it
against the pair directly — the parity suite relies on that.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import Backend
from repro.concurrency import protocol
from repro.executor import Executor
from repro.executor.dml import apply_dml
from repro.optimizer.cache import OptimizationRequest, PlanCache
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.sql.query import Query
from repro.stats.statistic import StatKey


class DmlExecution:
    """Minimal execution result for DML routed through a backend."""

    def __init__(self, row_count: int) -> None:
        self.row_count = int(row_count)
        self.actual_cost = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DmlExecution(row_count={self.row_count})"


class MemoryBackend(Backend):
    """Adapter over the repo's own in-memory engine.

    Args:
        database: the :class:`~repro.storage.Database` to adapt.
        optimizer: optional existing optimizer; one is created (with
            ``cache`` attached) when omitted.
        executor: optional existing :class:`~repro.executor.Executor`.
        cache: optional plan cache for an auto-created optimizer.

    All state lives in the wrapped objects (which carry their own
    locking); the adapter itself is immutable after construction.
    """

    # repro-lint: protocol-initial=backend-lifecycle:ready adapter wraps an already-loaded Database; no materialization step
    _droplist = protocol(
        "stat-drop-list",
        rule="R012",
        states=("visible", "hidden"),
        initial="visible",
        transitions={
            "create_stats": ("hidden", "visible"),
            "mark_stat_droppable": ("visible", "hidden"),
            "revive_stat": ("hidden", "visible"),
        },
        reads=(
            "is_stat_visible",
            "visible_stat_keys",
            "is_stat_droppable",
            "stat_drop_list",
        ),
        delegate="stats",
    )

    def __init__(
        self,
        database,
        optimizer: Optional[Optimizer] = None,
        *,
        executor: Optional[Executor] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        self._db = database
        if optimizer is None:
            optimizer = Optimizer(database, cache=cache)
        self._optimizer = optimizer
        if executor is None:
            executor = Executor(database, optimizer.config)
        self._executor = executor

    # ------------------------------------------------------------------
    # adapted objects (for drivers / services that need the raw stack)
    # ------------------------------------------------------------------

    @property
    def database(self):
        """The wrapped :class:`~repro.storage.Database`."""
        return self._db

    @property
    def optimizer(self) -> Optimizer:
        """The wrapped :class:`~repro.optimizer.Optimizer`."""
        return self._optimizer

    @property
    def executor(self) -> Executor:
        """The wrapped :class:`~repro.executor.Executor`."""
        return self._executor

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return "memory"

    @property
    def schema(self):
        return self._db.schema

    def optimize(self, request: OptimizationRequest) -> OptimizationResult:
        return self._optimizer.optimize_request(request)

    def magic_variables(self, query: Query) -> List:
        return self._optimizer.magic_variables(query)

    def probe(self, query: Query, epsilon: float):
        return self._optimizer.probe(query, epsilon)

    @property
    def optimizer_calls(self) -> int:
        return self._optimizer.call_count

    @property
    def optimizer_call_cost(self) -> float:
        return self._optimizer.config.cost.optimizer_call_cost

    def execute(self, statement):
        if isinstance(statement, Query):
            result = self._optimizer.optimize_request(
                OptimizationRequest(statement)
            )
            return self._executor.execute(result.plan, statement)
        # DML: Database.insert/delete/update bump the modification
        # counters and the stats epoch themselves.
        return DmlExecution(apply_dml(self._db, statement))

    def create_stats(self, key: StatKey) -> None:
        self._db.stats.create(key)

    def drop_stats(self, key: StatKey) -> None:
        self._db.stats.drop(key)

    def has_stats(self, key: StatKey) -> bool:
        return self._db.stats.has(key)

    def is_stat_visible(self, key: StatKey) -> bool:
        return self._db.stats.is_visible(key)

    def stat_keys(self) -> List[StatKey]:
        return self._db.stats.keys()

    def visible_stat_keys(self) -> List[StatKey]:
        return self._db.stats.visible_keys()

    def mark_stat_droppable(self, key: StatKey) -> None:
        self._db.stats.mark_droppable(key)

    def revive_stat(self, key: StatKey) -> None:
        self._db.stats.revive(key)

    def is_stat_droppable(self, key: StatKey) -> bool:
        return self._db.stats.is_droppable(key)

    def stat_drop_list(self) -> List[StatKey]:
        return self._db.stats.drop_list()

    @property
    def creation_cost_total(self) -> float:
        return self._db.stats.creation_cost_total

    def row_count(self, table: str) -> int:
        return self._db.row_count(table)

    def table_names(self) -> List[str]:
        return list(self._db.table_names())

    def note_data_change(self, table: Optional[str] = None) -> None:
        self._db.stats.note_data_change(table)

    def stats_epoch(self) -> int:
        return self._db.stats.epoch

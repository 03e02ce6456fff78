"""The ``Backend`` protocol: the only engine surface the algorithms use.

Every algorithm in :mod:`repro.core` — MNSA (Sec 4), MNSA/D (Sec 5.1),
the Shrinking Set (Sec 5.2), and the essential-set checkers (Sec 3.3) —
consumes a database engine through a deliberately narrow interface:

* ``optimize(request)`` returning a plan tree and its estimated cost,
  honouring the Sec 7.2 server extensions carried by the request —
  selectivity pins (``overrides``) and ``Ignore_Statistics_Subset``
  (``ignore``);
* ``magic_variables(query)`` — step (a) of the Sec 4.1 sensitivity test,
  and ``probe(query, epsilon)`` — the whole test's inputs: the missing
  variables plus the ε and 1−ε plans;
* statistics lifecycle with the paper's scope semantics: create / drop,
  the Sec 5 drop-list (hidden but not deleted), and visibility, plus
  MNSA/D's two-phase build (a sampled create, then ``complete_stats``);
* table cardinalities.  ``execute`` applies DML itself, so an engine
  keeps its own cardinalities and statistics inputs in step.

:class:`Backend` names that surface so the algorithms can run unchanged
against any engine that implements it.  Two implementations ship:
:class:`~repro.backends.memory.MemoryBackend` (the existing in-memory
engine, byte-identical to calling it directly) and
:class:`~repro.backends.sqlite.SqliteBackend` (stdlib ``sqlite3`` with
``ANALYZE`` / ``sqlite_stat1``-backed statistics).  See docs/backends.md
for the contract details and how to add a backend.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

from repro.optimizer.cache import OptimizationRequest
from repro.optimizer.optimizer import OptimizationResult
from repro.sql.query import Query
from repro.stats.statistic import StatKey

#: Backend names :func:`backend_from_name` (and the CLI) accept.
BACKEND_NAMES = ("memory", "sqlite")


class Backend(abc.ABC):
    """Engine adapter contract for the statistics-management algorithms.

    Implementations adapt one engine (in-memory, SQLite, ...) to the
    protocol above.  All methods must be usable from a single thread;
    implementations that share mutable state across threads declare
    their locking with ``guarded_by`` like any other concurrent class.

    Every method below is an ``abc.abstractmethod``, so an adapter that
    leaves one out cannot be instantiated.  A backend must be usable
    for planning as soon as its constructor returns: an adapter that
    materializes engine state does so unconditionally in ``__init__``.
    """

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short engine name (``"memory"``, ``"sqlite"``)."""

    @property
    @abc.abstractmethod
    def schema(self):
        """The :class:`~repro.catalog.Schema` of the adapted database."""

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def optimize(self, request: OptimizationRequest) -> OptimizationResult:
        """Plan a canonical request; honours overrides / ignore / degraded."""

    def optimize_query(self, query: Query) -> OptimizationResult:
        """Shorthand for the default request (no pins, nothing ignored)."""
        return self.optimize(OptimizationRequest(query))

    @abc.abstractmethod
    def magic_variables(self, query: Query) -> List:
        """Selectivity variables of ``query`` forced onto magic numbers."""

    def probe(
        self, query: Query, epsilon: float
    ) -> Tuple[List, Optional[OptimizationResult], Optional[OptimizationResult]]:
        """The Sec 4.1 sensitivity probe: ``(missing, low, high)``.

        ``missing`` are :meth:`magic_variables` of ``query``; ``low`` and
        ``high`` its plans with every one of them pinned to ``epsilon``
        and to ``1 - epsilon`` — both ``None`` when nothing is missing.
        Two optimizer calls (none when nothing is missing), whatever an
        engine shares between them.
        """
        missing = self.magic_variables(query)
        if not missing:
            return missing, None, None
        low = self.optimize(
            OptimizationRequest(query, {v: epsilon for v in missing})
        )
        high = self.optimize(
            OptimizationRequest(query, {v: 1.0 - epsilon for v in missing})
        )
        return missing, low, high

    @property
    @abc.abstractmethod
    def optimizer_calls(self) -> int:
        """Optimizer invocations so far (the paper's overhead metric)."""

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def execute(self, statement):
        """Execute a bound :class:`Query` or DML statement.

        Returns an object exposing at least ``row_count`` (rows produced
        by a query / affected by DML) and ``actual_cost`` (engine work
        units; proxies allowed — see docs/backends.md).
        """

    # ------------------------------------------------------------------
    # statistics lifecycle (create / drop / drop-list / visibility)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def create_stats(
        self, key: StatKey, sample_rows: Optional[int] = None
    ) -> None:
        """Build a statistic; creating a drop-listed one revives it.

        With ``sample_rows``, the engine may build it from a sample of
        that many rows, to be paid in full by :meth:`complete_stats`
        only if it is kept (MNSA/D's two-phase build); an engine that
        builds in full anyway ignores it.
        """

    @abc.abstractmethod
    def complete_stats(self, keys: Sequence[StatKey]) -> List[StatKey]:
        """Rebuild in full those of ``keys`` a sampled
        :meth:`create_stats` built, charging the full build as creation
        cost; returns the keys rebuilt (none: nothing changed)."""

    @abc.abstractmethod
    def drop_stats(self, key: StatKey) -> None:
        """Physically remove a statistic."""

    @abc.abstractmethod
    def has_stats(self, key: StatKey) -> bool:
        """Physically present (drop-listed statistics count)."""

    @abc.abstractmethod
    def is_stat_visible(self, key: StatKey) -> bool:
        """Present and not hidden by the drop-list."""

    @abc.abstractmethod
    def stat_keys(self) -> List[StatKey]:
        """All physically present statistics (including drop-listed)."""

    @abc.abstractmethod
    def visible_stat_keys(self) -> List[StatKey]:
        """Statistics the optimizer can currently see."""

    @abc.abstractmethod
    def mark_stat_droppable(self, key: StatKey) -> None:
        """Put a statistic on the Sec 5 drop-list (hidden, not deleted)."""

    @abc.abstractmethod
    def revive_stat(self, key: StatKey) -> None:
        """Take a statistic off the drop-list."""

    @abc.abstractmethod
    def is_stat_droppable(self, key: StatKey) -> bool:
        """Currently on the drop-list?"""

    @abc.abstractmethod
    def stat_drop_list(self) -> List[StatKey]:
        """The drop-list, sorted."""

    @property
    @abc.abstractmethod
    def creation_cost_total(self) -> float:
        """Cumulative work units spent building statistics."""

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def row_count(self, table: str) -> int:
        """Current cardinality of ``table``."""

    @abc.abstractmethod
    def table_names(self) -> List[str]:
        """Tables of the adapted database."""


def backend_from_name(
    name: str,
    database,
    *,
    optimizer=None,
    cache=None,
) -> Backend:
    """Construct a backend over ``database`` by engine name.

    Args:
        name: one of :data:`BACKEND_NAMES`.
        database: the :class:`~repro.storage.Database` to adapt.
        optimizer: optional existing optimizer (memory backend only).
        cache: optional :class:`~repro.optimizer.cache.PlanCache` for an
            auto-created memory optimizer.

    Raises:
        ValueError: for unknown backend names (the CLI maps this to
            exit code 2).
    """
    if name == "memory":
        from repro.backends.memory import MemoryBackend

        return MemoryBackend(database, optimizer=optimizer, cache=cache)
    if name == "sqlite":
        from repro.backends.sqlite import SqliteBackend

        return SqliteBackend(database)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


"""The staleness monitor: triggered refresh off the query path.

SQL Server 7.0 refreshes a table's statistics when its row-modification
counter reaches a fraction of the table size (paper Sec 2, Sec 6) — but it
does so *on the query path*.  The service moves the trigger into a
background thread: :class:`StalenessMonitor` periodically asks the
statistics manager which tables are due
(:meth:`~repro.stats.manager.StatisticsManager.tables_needing_refresh`)
and refreshes them under a configurable per-cycle cost budget, so a burst
of DML cannot translate into an unbounded refresh stall.

With a :class:`~repro.feedback.policy.FeedbackPolicy` attached, *what is
due* is decided by observed estimation error instead of (or in addition
to) raw row churn — see :class:`~repro.config.RefreshPolicy`.  A table
whose statistics were just refreshed has its feedback aggregates reset:
the recorded errors described the statistics that no longer exist.

Optionally the monitor purges drop-listed statistics on a table before
refreshing it — the Sec 6 improvement: refreshing statistics the optimizer
will never see is exactly the update overhead the drop-list identifies.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.concurrency import guarded_by
from repro.service.metrics import MetricsRegistry


class StalenessMonitor(threading.Thread):
    """Background thread scheduling statistics refreshes.

    Args:
        database: the shared database.
        metrics: shared metrics registry.
        db_lock: service-wide database lock, held per refresh cycle.
        fraction: staleness trigger — counter >= fraction * rows.
        poll_seconds: sleep between cycles.
        budget_per_cycle: maximum refresh work units per cycle (``None``
            = unbounded); tables beyond the budget are deferred.
        purge_drop_list: physically delete drop-listed statistics on a
            table before refreshing it.
        policy: optional :class:`~repro.feedback.policy.FeedbackPolicy`.
            When given, it decides which tables are due (by q-error,
            churn, or both per its
            :class:`~repro.config.RefreshPolicy`), and a successful
            refresh resets the table's feedback aggregates.
        corrections: optional :class:`~repro.learned.CorrectionStore`.
            A successful refresh invalidates the table's learned
            corrections — a rebuilt histogram starts from
            trust-the-stats.
        router: optional :class:`~repro.stats.router.ShardRouter`.  With
            ``shard_id`` it scopes the monitor to one service shard: only
            tables routed to that shard are considered due, so each
            shard's monitor refreshes exactly its own tables and no table
            is refreshed twice.
        shard_id: the shard this monitor owns (requires ``router``).
        starvation_cycles: a due table deferred by the budget for this
            many consecutive cycles counts as starved
            (``monitor.starved``).  Deferral is fairness-aware: due
            tables are refreshed longest-waiting first, so under any
            budget that clears at least one table per cycle the counter
            stays at zero.
    """

    _errors = guarded_by("_errors_lock")
    _failed = guarded_by("_db_lock")
    _cycle = guarded_by("_db_lock")
    _waiting = guarded_by("_db_lock")

    def __init__(
        self,
        database,
        metrics: MetricsRegistry,
        db_lock: threading.RLock,
        fraction: float = 0.2,
        poll_seconds: float = 0.25,
        budget_per_cycle: Optional[float] = None,
        purge_drop_list: bool = False,
        policy=None,
        corrections=None,
        router=None,
        shard_id: Optional[int] = None,
        starvation_cycles: int = 8,
    ) -> None:
        name = (
            "stats-staleness-monitor"
            if shard_id is None
            else f"stats-staleness-monitor-{shard_id}"
        )
        super().__init__(name=name, daemon=True)
        self._db = database
        self._metrics = metrics
        self._db_lock = db_lock
        self._fraction = fraction
        self._poll_seconds = poll_seconds
        self._budget = (
            math.inf if budget_per_cycle is None else budget_per_cycle
        )
        self._purge = purge_drop_list
        self._policy = policy
        self._corrections = corrections
        self._router = router
        self._shard_id = shard_id
        self._starvation_cycles = starvation_cycles
        self._stop_event = threading.Event()
        self._errors_lock = threading.Lock()
        self._errors: List[BaseException] = []
        #: table -> (failed attempts, first cycle eligible to retry)
        self._failed: Dict[str, Tuple[int, int]] = {}
        #: table -> consecutive cycles spent due-but-deferred
        self._waiting: Dict[str, int] = {}
        self._cycle = 0

    @property
    def errors(self) -> List[BaseException]:
        """Exceptions swallowed to keep the monitor alive (a copy)."""
        with self._errors_lock:
            return list(self._errors)

    def failed_tables(self) -> Dict[str, Tuple[int, int]]:
        """Backoff state: table -> (attempts, next eligible cycle)."""
        with self._db_lock:
            return dict(self._failed)

    # ------------------------------------------------------------------

    def run(self) -> None:
        while not self._stop_event.wait(self._poll_seconds):
            try:
                self.run_once()
            except BaseException as exc:  # keep the monitor alive
                with self._errors_lock:
                    self._errors.append(exc)
                self._metrics.inc("monitor.errors")

    def stop(self, timeout: Optional[float] = None) -> None:
        """Signal the monitor to exit and join it."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout)

    # ------------------------------------------------------------------

    def run_once(self) -> float:
        """One monitor cycle; returns the refresh cost spent.

        Exposed for deterministic tests and for the service's final drain
        pass (so modification counters accumulated late in a workload
        still get their refresh before shutdown).

        A table whose refresh raises is not silently dropped from future
        sweeps: the error is recorded (``errors`` /
        ``monitor.refresh_errors``), the remaining due tables still get
        their refresh this cycle, and the failing table is retried with
        exponential backoff (1, 2, 4, ... cycles) until a refresh
        succeeds.
        """
        spent = 0.0
        with self._db_lock:
            self._cycle += 1
            cycle = self._cycle
            stats = self._db.stats
            due = self._due_tables(stats)
            self._metrics.gauge("monitor.tables_due", len(due))
            # Longest-waiting first: a table deferred by the budget last
            # cycle outranks one that just became due, so a sustained
            # budget cannot starve any single table (name breaks ties
            # for determinism).
            waiting = self._waiting
            due.sort(key=lambda t: (-waiting.get(t, 0), t))
            deferred = 0
            deferred_tables: List[str] = []
            for table in due:
                attempts, eligible = self._failed.get(table, (0, 0))
                if attempts and cycle < eligible:
                    self._metrics.inc("monitor.backoff_skips")
                    continue
                if spent >= self._budget:
                    deferred += 1
                    deferred_tables.append(table)
                    continue
                if self._purge:
                    for key in stats.drop_list():
                        if key.table == table:
                            stats.drop(key)
                            self._metrics.inc("monitor.purged")
                try:
                    cost = stats.refresh_table(table)
                except Exception as exc:
                    with self._errors_lock:
                        self._errors.append(exc)
                    self._metrics.inc("monitor.refresh_errors")
                    self._failed[table] = (
                        attempts + 1,
                        cycle + 2 ** (attempts + 1),
                    )
                    continue
                self._failed.pop(table, None)
                self._waiting.pop(table, None)
                spent += cost
                self._metrics.inc("monitor.refreshes")
                self._metrics.inc("monitor.refresh_cost", cost)
                if self._policy is not None:
                    self._policy.store.reset_table(table)
                if self._corrections is not None:
                    self._corrections.invalidate_table(table)
            if deferred:
                self._metrics.inc("monitor.deferred", deferred)
            starved = 0
            fresh_waits: Dict[str, int] = {}
            for table in deferred_tables:
                waited = self._waiting.get(table, 0) + 1
                fresh_waits[table] = waited
                if waited == self._starvation_cycles:
                    starved += 1
            # Tables no longer due (refreshed, or churn subsided) drop
            # out of the aging map entirely.
            self._waiting = fresh_waits
            if starved:
                self._metrics.inc("monitor.starved", starved)
        self._metrics.inc("monitor.cycles")
        return spent

    def starved_tables(self) -> Dict[str, int]:
        """Aging map: table -> consecutive deferred cycles (a copy)."""
        with self._db_lock:
            return dict(self._waiting)

    def _due_tables(self, stats) -> List[str]:
        if self._policy is not None:
            due = self._policy.tables_due(stats, self._fraction)
        else:
            due = stats.tables_needing_refresh(self._fraction)
        if self._router is not None and self._shard_id is not None:
            due = [
                t for t in due
                if self._router.shard_of(t) == self._shard_id
            ]
        return due

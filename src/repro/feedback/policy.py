"""Turning feedback aggregates into statistics-management actions.

:class:`FeedbackPolicy` is the decision layer between the
:class:`~repro.feedback.store.FeedbackStore` and the components that act
on it:

* the :class:`~repro.service.monitor.StalenessMonitor` asks
  :meth:`tables_due` which tables deserve a refresh under the configured
  :class:`~repro.config.RefreshPolicy` — by row churn (the SQL Server
  7.0 trigger), by observed q-error, or both;
* the :class:`~repro.service.service.StatsService` asks
  :meth:`should_retune` whether an executed plan's worst q-error
  warrants queueing an MNSA re-tune for that query;
* :class:`~repro.service.worker.AdvisorWorker` asks
  :meth:`rebuild_targets` which of a query's statistics to rebuild
  before re-running the analysis.

All decisions are pure functions of the store's aggregates plus the
versions of the query's tables, so they are deterministic under a fixed
workload — what the feedback benchmarks rely on.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.concurrency import guarded_by
from repro.config import RefreshPolicy
from repro.errors import ServiceError
from repro.feedback.store import FeedbackStore
from repro.stats.statistic import StatKey

#: Passed to ``tables_needing_refresh`` to mean "any modification at
#: all": the manager's threshold is ``max(1, fraction * rows)``, so a
#: vanishing fraction degenerates to "at least one row modified".
_ANY_CHURN_FRACTION = 1e-9


class FeedbackPolicy:
    """Threshold-based action policy over a :class:`FeedbackStore`.

    Args:
        store: the feedback aggregates to act on.
        refresh_policy: which trigger drives statistics refresh.
        refresh_threshold: decayed q-error at which a table becomes due
            for refresh under the ``qerror`` / ``hybrid`` policies.
        retune_threshold: worst plan q-error at which a query is queued
            for an MNSA re-tune.  Must be >= ``refresh_threshold`` so a
            re-tune (which rebuilds targeted statistics inline) is the
            escalation, not the default.
    """

    _retuned = guarded_by("_retune_lock")

    def __init__(
        self,
        store: FeedbackStore,
        refresh_policy: RefreshPolicy = RefreshPolicy.QERROR,
        refresh_threshold: float = 4.0,
        retune_threshold: float = 10.0,
    ) -> None:
        if refresh_threshold < 1.0:
            raise ServiceError(
                f"refresh_threshold must be >= 1, got {refresh_threshold}"
            )
        if retune_threshold < refresh_threshold:
            raise ServiceError(
                "retune_threshold must be >= refresh_threshold "
                f"({retune_threshold} < {refresh_threshold})"
            )
        self.store = store
        self.refresh_policy = RefreshPolicy(refresh_policy)
        self.refresh_threshold = refresh_threshold
        self.retune_threshold = retune_threshold
        self._retune_lock = threading.Lock()
        #: plan signature -> its tables' versions at the last granted re-tune
        self._retuned: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # refresh scheduling (StalenessMonitor)
    # ------------------------------------------------------------------

    def tables_due(
        self, stats_manager, churn_fraction: float
    ) -> List[str]:
        """Tables the monitor should refresh this sweep, in order.

        * ``churn``: the SQL Server 7.0 modification-counter trigger,
          verbatim (:meth:`tables_needing_refresh`).
        * ``qerror``: the churn trigger *filtered* by observed error —
          of the churn-due tables, only those whose decayed q-error
          reaches the refresh threshold are refreshed, worst error
          first.  A heavily updated table whose stale statistics are
          still estimating accurately is deferred (its counter keeps
          accumulating, so it stays a candidate), which is where the
          rebuild savings come from.  Errors on *unmodified* tables stem
          from the estimation model itself — no refresh can fix them, so
          they never make a table due.
        * ``hybrid``: the ``qerror`` set first (worst first), then
          error-flagged tables that churned at all but have not yet hit
          the churn trigger (refresh *accelerated* by feedback), then
          the remaining churn-due tables.

        Tables without any physically present statistic are never due.
        """
        if self.refresh_policy == RefreshPolicy.CHURN:
            return stats_manager.tables_needing_refresh(churn_fraction)
        churn_due = stats_manager.tables_needing_refresh(churn_fraction)
        by_error = self.store.tables_by_error(self.refresh_threshold)
        flagged = [table for table in by_error if table in churn_due]
        if self.refresh_policy == RefreshPolicy.QERROR:
            return flagged
        churned_at_all = set(
            stats_manager.tables_needing_refresh(_ANY_CHURN_FRACTION)
        )
        accelerated = [
            table
            for table in by_error
            if table not in churn_due and table in churned_at_all
        ]
        rest = [t for t in churn_due if t not in flagged]
        return flagged + accelerated + rest

    # ------------------------------------------------------------------
    # MNSA re-tuning (StatsService / AdvisorWorker)
    # ------------------------------------------------------------------

    def should_retune(
        self, worst_q_error: float, plan_signature: tuple, versions
    ) -> bool:
        """Whether a plan's worst observed q-error warrants a re-tune.

        At most one re-tune is granted per (plan signature, ``versions``)
        — the query's
        :meth:`~repro.stats.manager.StatisticsManager.versions_for`: once
        granted, the same plan will not be re-queued until a visible
        statistic of the query's own tables is replaced, shown or hidden
        (the re-tune's own rebuilds included) or DML moves them — without
        this, every execution of a misestimated query would queue another
        identical re-tune before the first one ran.
        """
        if worst_q_error < self.retune_threshold:
            return False
        with self._retune_lock:
            if self._retuned.get(plan_signature) == versions:
                return False
            self._retuned[plan_signature] = versions
            return True

    def rebuild_targets(
        self, stats_manager, tables
    ) -> List[Tuple[StatKey, float]]:
        """Statistics worth rebuilding for a re-tuned query.

        Every *visible* statistic on the query's tables whose columns
        overlap a feedback target at or above the refresh threshold,
        worst error first (drop-listed statistics are the optimizer's
        dead weight — rebuilding them is exactly the waste Sec 6 calls
        out).
        """
        targets: List[Tuple[StatKey, float]] = []
        for table in tables:
            for key in stats_manager.keys_on_table(table):
                if not stats_manager.is_visible(key):
                    continue
                error = self.store.q_error_for_columns(table, key.columns)
                if error >= self.refresh_threshold:
                    targets.append((key, error))
        return sorted(targets, key=lambda pair: (-pair[1], pair[0]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeedbackPolicy({self.refresh_policy.value}, "
            f"refresh>={self.refresh_threshold:g}, "
            f"retune>={self.retune_threshold:g})"
        )

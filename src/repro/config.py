"""Configuration of the optimizer and of the statistics service.

The paper treats several values as system-wide constants of the database
engine (Sec 4.1: "Magic numbers are system wide constants between 0 and 1
that are predetermined for various kinds of predicates").  They are
constants here too, each in the module that reads it: the magic numbers
in :mod:`repro.optimizer.selectivity`, the operator prices in
:mod:`repro.optimizer.cost_model`, and the statistics build and
optimizer-call prices in :mod:`repro.stats.cost`.

Two config dataclasses hold what callers do set:

* :class:`OptimizerConfig` — the plan space the optimizer searches, the
  statistics it builds (sampling, joint histograms) and how it reads
  them (histogram join estimation).
* :class:`ServiceConfig` — knobs of the online statistics-management
  service (:mod:`repro.service`): capture-log capacity, advisor worker
  pool, staleness-monitor cadence and refresh budget.

``MnsaConfig`` (the paper's epsilon and t) lives in :mod:`repro.core.mnsa`
next to the algorithm it parameterizes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RefreshPolicy(enum.Enum):
    """What triggers a statistics refresh in the staleness monitor.

    * ``CHURN`` — the SQL Server 7.0 baseline: a table is refreshed once
      its row-modification counter reaches ``staleness_fraction`` of its
      row count, regardless of whether estimates actually degraded.
    * ``QERROR`` — execution feedback: a table is refreshed once the
      decayed observed q-error on any of its feedback targets reaches
      ``qerror_refresh_threshold``; churn counters are ignored.
    * ``HYBRID`` — union of both triggers, feedback-flagged tables first.

    ``QERROR`` and ``HYBRID`` require ``feedback_enabled=True`` — without
    a :class:`~repro.feedback.store.FeedbackStore` there is no error
    signal to act on.
    """

    CHURN = "churn"
    QERROR = "qerror"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class OptimizerConfig:
    """Aggregate configuration handed to :class:`repro.optimizer.Optimizer`.

    Attributes:
        sample_rows: if not ``None``, statistics are built from a random
            sample of at most this many rows instead of a full scan.
        enable_index_paths: whether index access paths are considered.
        enable_merge_join: whether sort-merge joins are considered.
        enable_hash_join: whether hash joins are considered.
        enable_bushy_joins: whether bushy join trees are enumerated in
            addition to left-deep ones (System R's default is left-deep;
            bushy enlarges the plan space at extra optimization cost).
        enable_joint_histograms: build a 2-D joint histogram (paper
            Sec 3's MHIST strategy) inside every two-column statistic,
            improving range-conjunction estimates on correlated columns.
            Off by default: SQL Server 7.0's statistics carry only
            prefix densities, and fidelity to it is the baseline.
        joint_histogram_cells: cell budget per joint histogram.
        enable_histogram_join_estimation: estimate single-column equijoin
            selectivity by aligning the two sides' histograms (exact on
            disjoint/partially-overlapping domains) instead of the global
            ``1 / max(ndv)`` containment rule.  Off by default: the ndv
            rule is the baseline the paper's experiments imply, and the
            reproduction benches are calibrated against it.
    """

    sample_rows: int | None = None
    enable_index_paths: bool = True
    enable_merge_join: bool = True
    enable_hash_join: bool = True
    enable_bushy_joins: bool = False
    enable_joint_histograms: bool = False
    joint_histogram_cells: int = 256
    enable_histogram_join_estimation: bool = False


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online statistics-management service.

    Attributes:
        capture_capacity: ring-buffer capacity of the workload capture
            log.  When full, the oldest unprocessed event is evicted (and
            counted in the ``capture.dropped`` metric) — capture must
            never block or fail the query path.
        advisor_workers: number of background advisor worker threads
            draining the capture log.
        advisor_batch_size: maximum events one worker drains per wakeup.
        advisor_poll_seconds: how long an idle worker blocks waiting for
            new capture events before re-checking for shutdown.
        creation_policy: what the advisor step runs per query —
            ``"syntactic"`` (SQL Server 7.0: every relevant single
            column), ``"mnsa"`` (Sec 4), or ``"mnsad"`` (Sec 5.1).
        staleness_fraction: the SQL Server 7.0 refresh trigger — a table
            is stale once its row-modification counter reaches this
            fraction of its row count (see
            :meth:`repro.stats.manager.StatisticsManager.tables_needing_refresh`).
        staleness_poll_seconds: cadence of the staleness monitor.
        refresh_budget_per_cycle: maximum refresh work units the monitor
            spends per wakeup; remaining stale tables are deferred to the
            next cycle (``monitor.deferred`` metric).  ``None`` means
            unbounded.
        purge_drop_list_before_refresh: physically delete drop-listed
            statistics on a table before refreshing it — the paper's
            Sec 6 observation that refreshing hidden statistics is
            exactly the waste the drop-list exists to avoid.
        drop_after_refreshes: the SQL Server 7.0 drop rule — physically
            drop a statistic refreshed more than this many times;
            ``None`` (the default) never drops.
        drop_list_only: restrict that rule to drop-listed statistics
            (the paper's Sec 6 improvement); ``False`` drops any
            statistic, as vanilla SQL Server 7.0 does.
        aging_window: statements during which a statistic the
            maintenance pass dropped is not re-created by the advisor
            step (:class:`~repro.core.policy.AgingPolicy`); ``0`` (the
            default) turns aging off.
        aging_expensive_query_cost: a query whose estimated cost
            reaches this re-creates aged statistics anyway.
        incremental_maintenance: fold INSERTed rows into the existing
            histograms (paper ref [8]) instead of counting them toward a
            refresh; degraded histograms still get rebuilt.
        execute_queries: execute query plans (True) or stop after
            optimization (False, plan-only service).
        plan_cache_size: capacity of the shared
            :class:`~repro.optimizer.cache.PlanCache` the service's
            session optimizer and advisor workers consult; ``0``
            disables plan caching entirely.
        feedback_enabled: collect per-operator estimated-vs-actual
            cardinality observations into a
            :class:`~repro.feedback.store.FeedbackStore` and let the
            feedback policy drive refresh/re-tune decisions.  Off by
            default: the paper's experiments predate execution feedback
            and must stay byte-identical.
        refresh_policy: which trigger drives the staleness monitor
            (:class:`RefreshPolicy`; a plain ``"churn"`` / ``"qerror"``
            / ``"hybrid"`` string is accepted and coerced).
        qerror_refresh_threshold: decayed q-error at which a table
            becomes due for refresh under ``qerror`` / ``hybrid``.
        qerror_retune_threshold: worst per-plan q-error at which the
            service queues an MNSA re-tune for the offending query.
        learned_enabled: let the feedback store also learn per-target
            selectivity corrections from its observations, and have the
            service optimizers apply them inside selectivity estimation
            (the store's correction view).  Requires
            ``feedback_enabled``: the corrections live in the same
            entries, under the same capacity bound.
        shards: number of service/statistics shards.  Each shard owns the
            statistics, capture-log segment, advisor workers, and
            staleness monitor of the tables routed to it (see
            :class:`~repro.stats.router.ShardRouter`), with its own
            statement lock and epoch, so one tenant's churn cannot
            serialize — or invalidate cached plans of — queries over
            other shards' tables.  ``1`` reproduces the pre-sharding
            single-lock service exactly.
        service_workers: request worker threads draining the admission
            queue.  ``0`` (the default) keeps the submit path
            synchronous — requests execute on the caller's thread with
            no queueing, exactly the pre-async behaviour.
        queue_capacity: hard bound of the admission queue (async mode);
            a submission to a full queue is rejected with a
            :class:`~repro.errors.ServiceRejectedError` carrying a
            retry-after hint.
        session_rate_limit: per-session sustained request rate in
            requests/second, enforced with a token bucket; ``None``
            (default) disables per-session rate limiting.
        session_rate_burst: token-bucket burst size — a session may
            submit this many requests back-to-back before the sustained
            rate applies.
        degraded_backlog_high: graceful-degradation trigger — when the
            total advisor backlog (captured events awaiting analysis
            across all shards) reaches this threshold, new queries are
            planned with magic-number selectivities only (no statistics
            locks taken; counted in ``service.degraded``) instead of
            piling more work onto the advisor.  ``None`` (default)
            disables degradation.
        degraded_backlog_low: hysteresis release — degradation stays
            engaged until the backlog falls back to this level.  Must be
            below ``degraded_backlog_high``.
        backend: the engine the advisor workers run their analyses
            against — a name from
            :data:`repro.backends.base.BACKEND_NAMES` (``"memory"``,
            the default, or ``"sqlite"``).  With a foreign engine the
            service shares one backend instance across workers, replays
            DML into it, and mirrors creation/drop decisions into
            ``database.stats`` (``backend.*`` metrics).
    """

    capture_capacity: int = 1024
    advisor_workers: int = 2
    advisor_batch_size: int = 16
    advisor_poll_seconds: float = 0.05
    creation_policy: str = "mnsad"
    staleness_fraction: float = 0.2
    staleness_poll_seconds: float = 0.25
    refresh_budget_per_cycle: float | None = None
    purge_drop_list_before_refresh: bool = False
    drop_after_refreshes: int | None = None
    drop_list_only: bool = True
    aging_window: int = 0
    aging_expensive_query_cost: float = float("inf")
    incremental_maintenance: bool = False
    execute_queries: bool = True
    plan_cache_size: int = 256
    feedback_enabled: bool = False
    refresh_policy: RefreshPolicy = RefreshPolicy.CHURN
    qerror_refresh_threshold: float = 4.0
    qerror_retune_threshold: float = 10.0
    learned_enabled: bool = False
    shards: int = 1
    service_workers: int = 0
    queue_capacity: int = 256
    session_rate_limit: float | None = None
    session_rate_burst: int = 16
    degraded_backlog_high: int | None = None
    degraded_backlog_low: int = 0
    backend: str = "memory"

    def __post_init__(self) -> None:
        if self.capture_capacity < 1:
            raise ValueError(
                f"capture_capacity must be >= 1, got {self.capture_capacity}"
            )
        if self.advisor_workers < 0:
            raise ValueError(
                f"advisor_workers must be >= 0, got {self.advisor_workers}"
            )
        if self.advisor_batch_size < 1:
            raise ValueError(
                f"advisor_batch_size must be >= 1, got "
                f"{self.advisor_batch_size}"
            )
        if self.advisor_poll_seconds <= 0:
            raise ValueError("advisor_poll_seconds must be > 0")
        if self.creation_policy not in ("syntactic", "mnsa", "mnsad"):
            raise ValueError(
                "creation_policy must be 'syntactic', 'mnsa' or 'mnsad', "
                f"got {self.creation_policy!r}"
            )
        if not 0.0 < self.staleness_fraction <= 1.0:
            raise ValueError(
                f"staleness_fraction must be in (0, 1], got "
                f"{self.staleness_fraction}"
            )
        if self.staleness_poll_seconds <= 0:
            raise ValueError("staleness_poll_seconds must be > 0")
        if (
            self.refresh_budget_per_cycle is not None
            and self.refresh_budget_per_cycle <= 0
        ):
            raise ValueError(
                "refresh_budget_per_cycle must be > 0 or None, got "
                f"{self.refresh_budget_per_cycle}"
            )
        if self.drop_after_refreshes is not None and (
            self.drop_after_refreshes < 1
        ):
            raise ValueError(
                "drop_after_refreshes must be >= 1 or None, got "
                f"{self.drop_after_refreshes}"
            )
        if self.aging_window < 0:
            raise ValueError(
                f"aging_window must be >= 0, got {self.aging_window}"
            )
        if self.plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0 (0 disables caching), got "
                f"{self.plan_cache_size}"
            )
        # frozen dataclass: coerce the string spelling in place
        object.__setattr__(
            self, "refresh_policy", RefreshPolicy(self.refresh_policy)
        )
        if self.qerror_refresh_threshold < 1.0:
            raise ValueError(
                f"qerror_refresh_threshold must be >= 1, got "
                f"{self.qerror_refresh_threshold}"
            )
        if self.qerror_retune_threshold < self.qerror_refresh_threshold:
            raise ValueError(
                "qerror_retune_threshold must be >= "
                "qerror_refresh_threshold, got "
                f"{self.qerror_retune_threshold} < "
                f"{self.qerror_refresh_threshold}"
            )
        if (
            self.refresh_policy is not RefreshPolicy.CHURN
            and not self.feedback_enabled
        ):
            raise ValueError(
                f"refresh_policy {self.refresh_policy.value!r} requires "
                "feedback_enabled=True"
            )
        if self.learned_enabled and not self.feedback_enabled:
            raise ValueError(
                "learned_enabled=True requires feedback_enabled=True "
                "(corrections are fed by execution feedback)"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.service_workers < 0:
            raise ValueError(
                f"service_workers must be >= 0, got {self.service_workers}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if (
            self.session_rate_limit is not None
            and self.session_rate_limit <= 0
        ):
            raise ValueError(
                "session_rate_limit must be > 0 or None, got "
                f"{self.session_rate_limit}"
            )
        if self.session_rate_burst < 1:
            raise ValueError(
                f"session_rate_burst must be >= 1, got "
                f"{self.session_rate_burst}"
            )
        if self.degraded_backlog_high is not None:
            if self.degraded_backlog_high < 1:
                raise ValueError(
                    "degraded_backlog_high must be >= 1 or None, got "
                    f"{self.degraded_backlog_high}"
                )
            if not 0 <= self.degraded_backlog_low < self.degraded_backlog_high:
                raise ValueError(
                    "degraded_backlog_low must be in "
                    "[0, degraded_backlog_high), got "
                    f"{self.degraded_backlog_low} (high "
                    f"{self.degraded_backlog_high})"
                )
        elif self.degraded_backlog_low != 0:
            raise ValueError(
                "degraded_backlog_low requires degraded_backlog_high"
            )
        # local import: repro.backends.sqlite imports this module
        from repro.backends.base import BACKEND_NAMES

        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {', '.join(BACKEND_NAMES)}, "
                f"got {self.backend!r}"
            )


DEFAULT_CONFIG = OptimizerConfig()
"""Shared default configuration; treat as immutable."""

"""Tunable constants for the optimizer, statistics, and MNSA algorithms.

The paper treats several values as system-wide constants of the database
engine (Sec 4.1: "Magic numbers are system wide constants between 0 and 1
that are predetermined for various kinds of predicates").  We gather them
here so experiments can vary them explicitly instead of monkey-patching.

Four config dataclasses exist:

* :class:`MagicNumbers` — the default selectivities an optimizer falls back
  to when no statistic covers a predicate.
* :class:`CostModelConfig` — per-row / per-page constants of the physical
  cost model, plus statistics build/update cost constants.
* :class:`OptimizerConfig` — everything the optimizer needs, including the
  two above plus histogram resolution and sampling defaults.
* :class:`ServiceConfig` — knobs of the online statistics-management
  service (:mod:`repro.service`): capture-log capacity, advisor worker
  pool, staleness-monitor cadence and refresh budget.

``MnsaConfig`` (the paper's epsilon and t) lives in :mod:`repro.core.mnsa`
next to the algorithm it parameterizes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


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
class MagicNumbers:
    """Default selectivities used when no applicable statistic exists.

    These follow the System-R lineage the paper alludes to (it quotes 0.30
    for a range predicate in Sec 4.1).  All values are fractions in (0, 1).

    Attributes:
        equality: selectivity of ``col = const`` without statistics.
        range_: selectivity of ``col < const`` / ``col > const`` etc.
        between: selectivity of ``col BETWEEN lo AND hi``.
        inequality: selectivity of ``col <> const``.
        in_list_per_item: per-item selectivity for ``col IN (...)``; the
            predicate selectivity is ``min(1, n_items * in_list_per_item)``.
        join: selectivity of an equijoin predicate with no statistics on
            either side (fraction of the cross product retained).
        group_by_fraction: assumed fraction of rows that are distinct in the
            grouping column(s) — the paper's Sec 4.1 example uses 0.01.
        like: selectivity of a LIKE pattern predicate.
    """

    equality: float = 0.10
    range_: float = 0.30
    between: float = 0.25
    inequality: float = 0.90
    in_list_per_item: float = 0.10
    join: float = 0.10
    group_by_fraction: float = 0.01
    like: float = 0.10

    def __post_init__(self) -> None:
        for name in (
            "equality",
            "range_",
            "between",
            "inequality",
            "in_list_per_item",
            "join",
            "group_by_fraction",
            "like",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(
                    f"magic number {name!r} must be in (0, 1], got {value}"
                )


@dataclass(frozen=True)
class CostModelConfig:
    """Constants of the physical cost model (arbitrary "work units").

    The absolute scale is meaningless; only ratios matter, exactly as in a
    real optimizer.  Statistics build/update costs use the same units so the
    Figure 3/4 and Table 1 reductions are directly comparable.

    Attributes:
        page_size_bytes: bytes per page for I/O cost computation.
        io_page_cost: cost to read or write one page sequentially.
        random_io_factor: multiplier for a random page access (index lookup).
        cpu_tuple_cost: cost to process one tuple through an operator.
        cpu_compare_cost: cost of one comparison (sorting, probing).
        hash_build_cost: per-tuple cost of inserting into a hash table.
        hash_probe_cost: per-tuple cost of probing a hash table.
        sort_constant: multiplier on ``n * log2(n)`` comparisons for sorts.
        stat_scan_cost_per_row: per-row cost of scanning a table to build a
            statistic (per column included in the statistic).
        stat_sort_constant: multiplier on ``n * log2(n)`` for the sort that
            histogram construction performs.
        stat_fixed_cost: fixed per-statistic overhead (catalog writes etc.).
        optimizer_call_cost: cost charged for one optimizer invocation; MNSA
            pays three of these per statistic created (Sec 4.3); MNSA/D
            pays one for a statistic it drop-lists.
        stat_incremental_cost_per_row: per-inserted-row cost of folding a
            value into an existing histogram (incremental maintenance,
            paper ref [8]); orders of magnitude below a full rebuild.
    """

    page_size_bytes: int = 8192
    io_page_cost: float = 1.0
    random_io_factor: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_compare_cost: float = 0.005
    hash_build_cost: float = 0.02
    hash_probe_cost: float = 0.01
    sort_constant: float = 0.012
    stat_scan_cost_per_row: float = 0.02
    stat_sort_constant: float = 0.01
    stat_fixed_cost: float = 50.0
    optimizer_call_cost: float = 5.0
    stat_incremental_cost_per_row: float = 0.002


@dataclass(frozen=True)
class OptimizerConfig:
    """Aggregate configuration handed to :class:`repro.optimizer.Optimizer`.

    Attributes:
        magic: the magic-number table.
        cost: the cost-model constants.
        histogram_buckets: number of buckets built per histogram.
        sample_rows: if not ``None``, statistics are built from a random
            sample of at most this many rows instead of a full scan.
        max_in_list_items: IN lists longer than this are estimated as a
            range predicate rather than a union of equalities.
        enable_index_paths: whether index access paths are considered.
        enable_merge_join: whether sort-merge joins are considered.
        enable_hash_join: whether hash joins are considered.
        enable_bushy_joins: whether bushy join trees are enumerated in
            addition to left-deep ones (System R's default is left-deep;
            bushy enlarges the plan space at extra optimization cost).
        enable_joint_histograms: build a 2-D joint histogram (paper
            Sec 3's Phased strategy) inside every two-column statistic,
            improving range-conjunction estimates on correlated columns.
            Off by default: SQL Server 7.0's statistics carry only
            prefix densities, and fidelity to it is the baseline.
        joint_histogram_cells: cell budget per joint histogram.
        joint_histogram_kind: construction strategy, ``"mhist"`` or
            ``"phased"`` (paper Sec 3's two named strategies).
        enable_histogram_join_estimation: estimate single-column equijoin
            selectivity by aligning the two sides' histograms (exact on
            disjoint/partially-overlapping domains) instead of the global
            ``1 / max(ndv)`` containment rule.  Off by default: the ndv
            rule is the baseline the paper's experiments imply, and the
            reproduction benches are calibrated against it.
    """

    magic: MagicNumbers = field(default_factory=MagicNumbers)
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    histogram_buckets: int = 50
    sample_rows: int | None = None
    max_in_list_items: int = 16
    enable_index_paths: bool = True
    enable_merge_join: bool = True
    enable_hash_join: bool = True
    enable_bushy_joins: bool = False
    enable_joint_histograms: bool = False
    joint_histogram_cells: int = 256
    joint_histogram_kind: str = "mhist"
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
        creation_policy: ``"mnsa"`` or ``"mnsad"`` — which analysis the
            advisor workers run per captured query (MNSA/D additionally
            drop-lists statistics that never changed a plan, Sec 5.1).
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
        feedback_capacity: maximum (table, column-set) targets the
            feedback store tracks before least-recently-observed
            eviction.
        refresh_policy: which trigger drives the staleness monitor
            (:class:`RefreshPolicy`; a plain ``"churn"`` / ``"qerror"``
            / ``"hybrid"`` string is accepted and coerced).
        qerror_refresh_threshold: decayed q-error at which a table
            becomes due for refresh under ``qerror`` / ``hybrid``.
        qerror_retune_threshold: worst per-plan q-error at which the
            service queues an MNSA re-tune for the offending query.
        learned_enabled: maintain a
            :class:`~repro.learned.CorrectionStore` of online selectivity
            corrections fed from execution feedback, and apply it inside
            the service optimizers' selectivity estimation.  Requires
            ``feedback_enabled`` (the corrections are fed by the same
            operator observations).
        learned_model: correction-model class — ``"multiplicative"``
            (exact per-target factors) or ``"bucket"`` (hashed
            predicate-feature regressor).
        learned_decay: EWMA decay of the correction models, in (0, 1).
        learned_max_factor: corrections are bounded to
            ``[1/learned_max_factor, learned_max_factor]``.
        learned_capacity: maximum tracked correction entries before
            least-recently-observed eviction.
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
        queue_capacity: hard bound of the admission queue (async mode).
        queue_high_water: backpressure threshold — once the queue holds
            this many requests, new submissions are rejected with a
            :class:`~repro.errors.ServiceRejectedError` carrying a
            retry-after hint.  ``None`` means ``queue_capacity`` (reject
            only when full).
        retry_after_seconds: the retry-after hint attached to
            queue-full / rate-limit rejections.
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
        starvation_cycles: staleness-monitor fairness bound — a due
            table deferred by the refresh budget for this many
            consecutive cycles counts as starved (``monitor.starved``);
            the monitor refreshes longest-waiting tables first so the
            counter stays at zero under any steady-state budget.
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
    execute_queries: bool = True
    plan_cache_size: int = 256
    feedback_enabled: bool = False
    feedback_capacity: int = 512
    refresh_policy: RefreshPolicy = RefreshPolicy.CHURN
    qerror_refresh_threshold: float = 4.0
    qerror_retune_threshold: float = 10.0
    learned_enabled: bool = False
    learned_model: str = "multiplicative"
    learned_decay: float = 0.8
    learned_max_factor: float = 32.0
    learned_capacity: int = 512
    shards: int = 1
    service_workers: int = 0
    queue_capacity: int = 256
    queue_high_water: int | None = None
    retry_after_seconds: float = 0.05
    session_rate_limit: float | None = None
    session_rate_burst: int = 16
    degraded_backlog_high: int | None = None
    degraded_backlog_low: int = 0
    starvation_cycles: int = 8
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
        if self.creation_policy not in ("mnsa", "mnsad"):
            raise ValueError(
                f"creation_policy must be 'mnsa' or 'mnsad', got "
                f"{self.creation_policy!r}"
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
        if self.plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0 (0 disables caching), got "
                f"{self.plan_cache_size}"
            )
        # frozen dataclass: coerce the string spelling in place
        object.__setattr__(
            self, "refresh_policy", RefreshPolicy(self.refresh_policy)
        )
        if self.feedback_capacity < 1:
            raise ValueError(
                f"feedback_capacity must be >= 1, got "
                f"{self.feedback_capacity}"
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
        if self.learned_model not in ("multiplicative", "bucket"):
            raise ValueError(
                f"learned_model must be 'multiplicative' or 'bucket', got "
                f"{self.learned_model!r}"
            )
        if not 0.0 < self.learned_decay < 1.0:
            raise ValueError(
                f"learned_decay must be in (0, 1), got {self.learned_decay}"
            )
        if self.learned_max_factor <= 1.0:
            raise ValueError(
                f"learned_max_factor must be > 1, got "
                f"{self.learned_max_factor}"
            )
        if self.learned_capacity < 1:
            raise ValueError(
                f"learned_capacity must be >= 1, got {self.learned_capacity}"
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
        if self.queue_high_water is not None and not (
            1 <= self.queue_high_water <= self.queue_capacity
        ):
            raise ValueError(
                "queue_high_water must be in [1, queue_capacity], got "
                f"{self.queue_high_water} (capacity {self.queue_capacity})"
            )
        if self.retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be > 0, got "
                f"{self.retry_after_seconds}"
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
        if self.starvation_cycles < 1:
            raise ValueError(
                f"starvation_cycles must be >= 1, got "
                f"{self.starvation_cycles}"
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

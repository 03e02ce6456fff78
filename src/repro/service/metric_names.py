"""Canonical registry of every metric name the repo may emit.

Lint rule **R007** (:mod:`repro.analysis.rules.metrics_registry`)
cross-checks each string reaching :class:`~repro.service.metrics.
MetricsRegistry` ``inc``/``gauge``/``timer`` — directly or through a
wrapper parameter — against this mapping, so a typo'd or undocumented
metric name fails ``repro lint`` instead of silently fragmenting a
dashboard.  Names follow the ``<component>.<name>`` dotted grammar
(lower-case ``[a-z][a-z0-9_]*`` segments, at least one dot).

Timer base names (``service.query``, ``service.dml``: the names used via
:meth:`~repro.service.metrics.MetricsRegistry.timer`) register the
*base*; the derived ``<base>_seconds`` / ``<base>_count`` counters the
registry synthesizes at runtime are implied and must not be listed
separately.

Adding a metric?  Add the row here in sorted order with a one-line
description (see the CONTRIBUTING.md pre-PR checklist).
"""

from typing import Dict

#: metric name -> one-line description (R007's source of truth)
METRICS: Dict[str, str] = {
    "advisor.completion_cost": "advisor.creation_cost spent completing sampled MNSA/D builds",
    "advisor.creation_cost": "statistics creation cost spent by advisor workers",
    "advisor.errors": "exceptions raised while processing capture events",
    "advisor.events": "capture-log events processed by advisor workers",
    "advisor.optimizer_calls": "optimizer invocations made during advisor analysis",
    "advisor.retune_rebuilds": "statistics rebuilt while serving re-tune requests",
    "advisor.retunes": "feedback re-tune events processed",
    "advisor.seconds": "wall time advisor workers spent on analyzed and settled events",
    "advisor.settled": "capture events whose verdict the ledger already held (not re-analyzed)",
    "advisor.skipped": "capture events skipped as fully covered by visible statistics",
    "advisor.stats_created": "statistics created by advisor decisions",
    "advisor.stats_drop_listed": "statistics moved to the drop list by MNSA/D",
    "backend.analyses": "advisor analyses run against a foreign (non-memory) backend",
    "backend.mirrored_creates": "foreign-backend created statistics mirrored into database.stats",
    "backend.mirrored_drops": "foreign-backend drop-list decisions mirrored into database.stats",
    "backend.mirrored_revives": "foreign-backend revivals of drop-listed statistics mirrored into database.stats",
    "capture.depth": "current capture-log queue depth",
    "capture.dropped": "capture events evicted by the ring buffer (CaptureLog.append), as a gauge",
    "capture.events": "query/DML events recorded in the capture log",
    "capture.evicted": "capture events evicted from the ring buffer",
    "correction.hits": "selectivity estimates adjusted by a learned correction",
    "correction.invalidations": "correction factors dropped by feedback-store invalidation",
    "correction.misses": "selectivity estimates with no learned correction",
    "correction.version": "monotone feedback-store correction version (plan-cache key component)",
    "feedback.evicted": "feedback trackers evicted by the store's LRU bound",
    "feedback.observations": "per-operator execution observations ingested",
    "feedback.retunes_requested": "re-tune requests granted by the feedback policy",
    "feedback.tracked_targets": "feedback targets currently tracked",
    "feedback.worst_q_error": "worst decayed q-error across tracked targets",
    "monitor.backoff_skips": "refreshes skipped while a table is in failure backoff",
    "monitor.cycles": "staleness-monitor cycles completed",
    "monitor.deferred": "due refreshes deferred by the per-cycle budget",
    "monitor.dropped": "statistics physically dropped by the refresh-count drop rule",
    "monitor.errors": "exceptions raised inside the staleness monitor",
    "monitor.purged": "drop-listed statistics purged before their table's refresh",
    "monitor.refresh_cost": "total update cost spent on refreshes",
    "monitor.refresh_errors": "statistics refreshes that raised",
    "monitor.refreshes": "statistics refreshes performed",
    "monitor.starved": "due tables whose deferral crossed the starvation bound",
    "monitor.tables_due": "tables found due for refresh in the last cycle",
    "plan_cache.evictions": "plan-cache LRU evictions",
    "plan_cache.hits": "plan-cache hits",
    "plan_cache.misses": "plan-cache misses",
    "plan_cache.revalidations": "stale plan-cache entries revalidated by fingerprint",
    "plan_cache.size": "current plan-cache entry count",
    "service.degraded": "queries planned with magic numbers under advisor backlog",
    "service.degraded_active": "1 while graceful degradation is engaged, else 0",
    "service.dml": "DML statement handling time (timer base)",
    "service.dml_statements": "DML statements applied through sessions",
    "service.execution_cost": "total execution cost of served queries",
    "service.incremental_cost": "update cost of folding inserted rows into histograms",
    "service.incremental_rebuilds": "statistics rebuilt after incremental maintenance degraded them",
    "service.queries": "queries served",
    "service.query": "query handling time (timer base)",
    "service.queue.admitted": "requests admitted to the admission queue",
    "service.queue.depth": "current admission-queue depth",
    "service.queue.rejected": "requests rejected at the queue high-water mark",
    "service.queue.wait_seconds": "total seconds requests spent queued",
    "service.rate_limited": "requests rejected by per-session rate limits",
    "service.request_workers": "request workers draining the admission queue",
    "service.rows_modified": "rows modified by DML statements",
    "service.sessions": "sessions opened against the service",
    "service.shard.multi": "requests that locked more than one service shard",
    "service.shard.single": "requests served on the single-shard fast path",
    "service.shards": "service shards configured",
    "service.workers": "advisor workers currently running",
    "stats.drop_listed": "statistics currently on the drop list",
    "stats.physical": "physical statistics (visible plus drop-listed)",
    "stats.visible": "statistics visible to the optimizer",
}

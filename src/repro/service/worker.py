"""Background advisor workers: MNSA / MNSA-D off the query path.

Each :class:`AdvisorWorker` is a daemon thread with its *own*
:class:`~repro.optimizer.Optimizer` (so optimizer call counts attribute
cleanly per worker) draining the shared capture log.  For every captured
query that still had selectivity variables on magic numbers, the worker
runs the configured analysis — MNSA (Sec 4) or MNSA/D (Sec 5.1) — under
the service's database lock, creating or drop-listing statistics without
the foreground session waiting on any of it.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from typing import Callable, List, Optional

from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.concurrency import guarded_by
from repro.core.advisor import mirror_decisions
from repro.core.mnsa import MnsaConfig, MnsaResult, mnsa_for_query
from repro.core.mnsad import mnsad_for_query
from repro.optimizer.cache import PlanCache
from repro.optimizer.optimizer import Optimizer
from repro.service.events import CaptureLog, QueryEvent
from repro.service.ledger import Verdict, VerdictLedger, verdict_key
from repro.service.metrics import MetricsRegistry
from repro.stats.statistic import StatKey


class AdvisorWorker(threading.Thread):
    """One background statistics-advisor thread.

    Args:
        index: worker ordinal, used for the thread name.
        database: the shared database.
        log: capture log to drain.
        metrics: shared metrics registry.
        db_lock: the service-wide database lock; held for the duration of
            each per-query analysis so foreground execution and advisor
            work interleave at statement granularity.
        creation_policy: ``"mnsa"`` or ``"mnsad"``.
        mnsa_config: analysis knobs (epsilon, t, candidate mode).
        batch_size: maximum events drained per wakeup.
        poll_seconds: idle block time waiting for events.
        on_created: optional callback invoked (outside the db lock) with
            the list of statistics a single analysis created.
        cache: optional shared :class:`~repro.optimizer.cache.PlanCache`;
            analysis probes repeated across workers and sessions are
            answered from it instead of re-optimizing.
        feedback_policy: optional
            :class:`~repro.feedback.policy.FeedbackPolicy`.  When given,
            re-tune events (queries whose executed plan was badly
            misestimated) first rebuild the flagged statistics on the
            query's tables, and the analysis breaks candidate ties
            toward the highest-error observed columns.
        corrections: optional :class:`~repro.learned.CorrectionStore`.
            The worker's optimizer plans with it, and a re-tune rebuild
            invalidates the rebuilt table's learned corrections.
        router: optional :class:`~repro.stats.router.ShardRouter`.  With
            ``statement_locks`` it switches the worker to sharded
            locking: each analysis acquires the statement locks of
            *every* shard owning one of the event's tables, in the
            router's canonical ascending order (MNSA's ignore-subset
            probes touch statistics on all of the query's tables, so
            owning only the event's home shard would race cross-shard
            queries).  Without it the worker holds ``db_lock`` as
            before.
        statement_locks: per-shard statement locks, indexed by shard id.
        shard_id: the service shard this worker belongs to (thread
            naming only).
        backend: the :class:`~repro.backends.base.Backend` analyses run
            against.  ``None`` (default) builds a private
            :class:`~repro.backends.memory.MemoryBackend` over
            ``database`` and this worker's optimizer — the historic
            behaviour.  A foreign engine (e.g. ``SqliteBackend``) is
            typically *shared* across workers (analyses are serialized
            by the statement locks anyway) and its creation, revival and
            drop-list decisions are mirrored into ``database.stats``
            (:func:`~repro.core.advisor.mirror_decisions`) so the
            refresh/drop policies and foreground sessions see them
            (``backend.*`` metrics count the mirroring).
        ledger: the :class:`~repro.service.ledger.VerdictLedger` shared
            by the service's workers (``None`` gives this worker a
            private one).  An event whose
            :func:`~repro.service.ledger.verdict_key` it already holds is
            settled without analysis (counted as ``advisor.settled``);
            re-tune events bypass it.
    """

    _errors = guarded_by("_errors_lock")

    def __init__(
        self,
        index: int,
        database,
        log: CaptureLog,
        metrics: MetricsRegistry,
        db_lock: threading.RLock,
        creation_policy: str = "mnsad",
        mnsa_config: Optional[MnsaConfig] = None,
        batch_size: int = 16,
        poll_seconds: float = 0.05,
        on_created: Optional[Callable[[List[StatKey]], None]] = None,
        cache: Optional[PlanCache] = None,
        feedback_policy=None,
        corrections=None,
        router=None,
        statement_locks: Optional[List[threading.RLock]] = None,
        shard_id: Optional[int] = None,
        backend: Optional[Backend] = None,
        ledger: Optional[VerdictLedger] = None,
    ) -> None:
        name = (
            f"stats-advisor-{index}"
            if shard_id is None
            else f"stats-advisor-{shard_id}-{index}"
        )
        super().__init__(name=name, daemon=True)
        self._router = router
        self._statement_locks = statement_locks
        self._db = database
        self._log = log
        self._metrics = metrics
        self._db_lock = db_lock
        self._policy = creation_policy
        self._config = mnsa_config or MnsaConfig()
        self._batch_size = batch_size
        self._poll_seconds = poll_seconds
        self._on_created = on_created
        self._ledger = ledger if ledger is not None else VerdictLedger()
        self._optimizer = Optimizer(
            database, cache=cache, corrections=corrections
        )
        if backend is None:
            backend = MemoryBackend(database, optimizer=self._optimizer)
        self._backend = backend
        self._mirror = not isinstance(backend, MemoryBackend)
        self._corrections = corrections
        self._feedback_policy = feedback_policy
        self._feedback = (
            feedback_policy.store if feedback_policy is not None else None
        )
        self._errors_lock = threading.Lock()
        self._errors: List[BaseException] = []

    @property
    def errors(self) -> List[BaseException]:
        """Exceptions swallowed to keep the worker alive (a copy)."""
        with self._errors_lock:
            return list(self._errors)

    # ------------------------------------------------------------------

    def run(self) -> None:
        while True:
            batch = self._log.take(self._batch_size, self._poll_seconds)
            if not batch:
                if self._log.closed and not len(self._log):
                    return
                continue
            for event in batch:
                try:
                    self._process(event)
                except BaseException as exc:  # keep the worker alive
                    with self._errors_lock:
                        self._errors.append(exc)
                    self._metrics.inc("advisor.errors")
                finally:
                    self._log.task_done()

    # ------------------------------------------------------------------

    def _process(self, event: QueryEvent) -> None:
        if event.magic_variable_count == 0 and not event.retune:
            # existing statistics already covered every predicate
            self._metrics.inc("advisor.skipped")
            return
        started = time.perf_counter()
        if self._router is not None and self._statement_locks is not None:
            # Sharded locking: hold the statement lock of every shard
            # owning one of the event's tables, in the router's
            # canonical ascending order (the same order every other
            # multi-shard path uses, so no acquisition cycle exists).
            with ExitStack() as stack:
                for sid in self._router.shard_ids_for(event.tables):
                    stack.enter_context(self._statement_locks[sid])
                result = self._analyze(event)
        else:
            with self._db_lock:
                result = self._analyze(event)
        self._metrics.inc("advisor.seconds", time.perf_counter() - started)
        if result is None:
            self._metrics.inc("advisor.settled")
            return
        self._metrics.inc("advisor.events")
        self._metrics.inc("advisor.optimizer_calls", result.optimizer_calls)
        self._metrics.inc("advisor.creation_cost", result.creation_cost)
        if result.created:
            self._metrics.inc("advisor.stats_created", len(result.created))
        if result.dropped:
            self._metrics.inc(
                "advisor.stats_drop_listed", len(result.dropped)
            )
        if result.created and self._on_created is not None:
            self._on_created(list(result.created))

    def _analyze(self, event: QueryEvent) -> Optional[MnsaResult]:
        """Run re-tune + MNSA/MNSA-D for one event; caller holds locks.

        Returns ``None`` when the ledger already holds the event's
        verdict.
        """
        if event.retune and self._feedback_policy is not None:
            self._retune(event)
        learned = (
            None if self._corrections is None else self._corrections.version
        )
        key = verdict_key(self._db, event.query, learned)
        if not event.retune and self._ledger.settled(key) is not None:
            return None
        analyze = mnsa_for_query if self._policy == "mnsa" else mnsad_for_query
        result = analyze(
            self._backend,
            event.query,
            config=self._config,
            feedback=self._feedback,
        )
        if not result.retained:
            # the visible set is back where the analysis found it
            self._ledger.record(
                key,
                Verdict(
                    result.stop_reason,
                    tuple(result.created),
                    tuple(result.dropped),
                ),
            )
        if self._mirror:
            self._mirror_decisions(result)
        return result

    def _mirror_decisions(self, result: MnsaResult) -> None:
        """Mirror a foreign backend's decisions into ``database.stats``
        and count them; runs under the analysis locks."""
        self._metrics.inc("backend.analyses")
        created, revived, dropped = mirror_decisions(self._db.stats, result)
        if created:
            self._metrics.inc("backend.mirrored_creates", created)
        if revived:
            self._metrics.inc("backend.mirrored_revives", revived)
        if dropped:
            self._metrics.inc("backend.mirrored_drops", dropped)

    def _retune(self, event: QueryEvent) -> None:
        """Rebuild the statistics feedback blames for a misestimated plan.

        Runs under the analysis locks, before the regular analysis, so
        the analysis sees the rebuilt statistics.  The rebuilt targets'
        feedback aggregates are reset: the recorded errors belonged to
        the statistics that were just replaced.
        """
        self._metrics.inc("advisor.retunes")
        targets = self._feedback_policy.rebuild_targets(
            self._db.stats, event.tables
        )
        for key, _error in targets:
            self._db.stats.rebuild(key)
            self._feedback.reset_columns(key.table, key.columns)
            if self._corrections is not None:
                self._corrections.invalidate_table(key.table)
            self._metrics.inc("advisor.retune_rebuilds")

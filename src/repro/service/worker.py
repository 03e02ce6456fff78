"""Background advisor workers: the Sec 6 per-query step off the query path.

Each :class:`AdvisorWorker` is a daemon thread draining its shard's
capture log through :meth:`AdvisorWorker.advise`, the online regime's
one per-query step: under the statement locks it applies aging, consults
the verdict ledger, and runs the creation policy — SQL Server 7.0's
syntactic rule, MNSA (Sec 4) or MNSA/D (Sec 5.1) — without the
foreground session waiting on any of it.  The lock-step driver
(:class:`~repro.service.lockstep.LockStepAdvisor`) calls the same step
inline, before each query is planned.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from typing import List, Optional, Sequence, Tuple

from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.concurrency import guarded_by
from repro.core.candidates import CandidateMode, candidate_statistics
from repro.core.mnsa import MnsaResult, mnsa_for_query
from repro.core.mnsad import mnsad_for_query
from repro.optimizer.optimizer import Optimizer
from repro.service.events import CaptureLog, QueryEvent
from repro.service.ledger import Verdict, verdict_key
from repro.stats.statistic import StatKey


def create_syntactic(backend: Backend, candidates: Sequence[StatKey]):
    """SQL Server 7.0's auto-statistics: create every candidate the
    optimizer cannot see, with no analysis."""
    before = backend.creation_cost_total
    created = [key for key in candidates if not backend.is_stat_visible(key)]
    for key in created:
        backend.create_stats(key)
    return MnsaResult(
        created=created,
        retained=created,
        stop_reason="syntactic",
        creation_cost=backend.creation_cost_total - before,
    )


class AdvisorWorker(threading.Thread):
    """One background statistics-advisor thread of a service shard.

    Args:
        service: the :class:`~repro.service.service.StatsService` the
            worker advises — its database, config (creation policy,
            batch size, poll interval), MNSA config, metrics, plan
            cache, feedback store and policy, verdict ledger,
            aging policy and analysis backend.
        shard: the :class:`~repro.service.service.ServiceShard` the
            worker belongs to (thread naming only).
        index: worker ordinal within the shard (thread naming only).
        log: capture log to drain; ``None`` for a worker that is never
            started and whose :meth:`advise` is called inline.

    The worker plans with its *own* optimizer (so optimizer calls
    attribute per worker) over the service's plan cache and correction
    view.  Analyses run against a private
    :class:`~repro.backends.memory.MemoryBackend` over it, or against
    the service's shared foreign engine, whose decisions are mirrored
    into ``database.stats`` (``backend.*`` metrics).  Each analysis
    holds the statement lock of *every* shard owning one of the event's
    tables, in ascending order: MNSA's ignore-subset probes touch
    statistics on all of the query's tables.  An event whose
    :func:`~repro.service.ledger.verdict_key` the ledger holds is
    settled without analysis (``advisor.settled``); re-tune events
    (feedback found the plan badly misestimated) bypass the ledger and
    first rebuild the flagged statistics.
    """

    _errors = guarded_by("_errors_lock")

    def __init__(
        self, service, shard, index: int = 0, log: Optional[CaptureLog] = None
    ) -> None:
        super().__init__(
            name=f"stats-advisor-{shard.shard_id}-{index}", daemon=True
        )
        config = service.config
        self._db = service.database
        self._log = log
        self._metrics = service.metrics
        self._router = service.router
        self._statement_locks = [s.statement_lock for s in service.shards]
        self._policy = config.creation_policy
        self._config = service.mnsa_config
        self._batch_size = config.advisor_batch_size
        self._poll_seconds = config.advisor_poll_seconds
        self._on_created = service.note_created
        self._ledger = service.ledger
        self._aging = service.aging
        self._corrections = service.corrections
        self._feedback_policy = service.feedback_policy
        self._feedback = service.feedback
        self._optimizer = Optimizer(
            self._db, cache=service.plan_cache, corrections=self._corrections
        )
        backend = service.analysis_backend
        self._mirror = backend is not None
        self._backend = backend or MemoryBackend(
            self._db, optimizer=self._optimizer
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
                    self.advise(event)
                except BaseException as exc:  # keep the worker alive
                    with self._errors_lock:
                        self._errors.append(exc)
                    self._metrics.inc("advisor.errors")
                finally:
                    self._log.task_done()

    # ------------------------------------------------------------------

    def advise(self, event: QueryEvent) -> None:
        """The per-query step: analyse ``event`` under its shards'
        statement locks and count what it did."""
        if (
            event.magic_variable_count == 0
            and not event.retune
            and self._policy != "syntactic"
        ):
            # existing statistics already covered every predicate, so
            # the analysis would stop before creating anything
            self._metrics.inc("advisor.skipped")
            return
        started = time.perf_counter()
        # the router's canonical ascending order: the one order every
        # multi-shard path uses, so no acquisition cycle exists
        with ExitStack() as stack:
            for sid in self._router.shard_ids_for(event.tables):
                stack.enter_context(self._statement_locks[sid])
            result = self._analyze(event)
        self._metrics.inc("advisor.seconds", time.perf_counter() - started)
        if result is None:
            self._metrics.inc("advisor.settled")
            return
        self._metrics.inc("advisor.events")
        self._metrics.inc("advisor.optimizer_calls", result.optimizer_calls)
        self._metrics.inc("advisor.creation_cost", result.creation_cost)
        if result.completion_cost:
            self._metrics.inc(
                "advisor.completion_cost", result.completion_cost
            )
        if result.created:
            self._metrics.inc("advisor.stats_created", len(result.created))
        if result.dropped:
            self._metrics.inc(
                "advisor.stats_drop_listed", len(result.dropped)
            )
        if result.created and self._on_created is not None:
            self._on_created(list(result.created))

    def _analyze(self, event: QueryEvent) -> Optional[MnsaResult]:
        """Run re-tune + the creation policy for one event; caller holds
        locks.

        Returns ``None`` when the ledger already holds the event's
        verdict.
        """
        if event.retune and self._feedback_policy is not None:
            self._retune(event)
        candidates, suppressed = self._candidates(event)
        learned = (
            None if self._corrections is None else self._corrections.version
        )
        key = verdict_key(self._db, event.query, learned, suppressed)
        if not event.retune and self._ledger.settled(key) is not None:
            return None
        if self._policy == "syntactic":
            result = create_syntactic(self._backend, candidates)
        else:
            analyze = (
                mnsa_for_query if self._policy == "mnsa" else mnsad_for_query
            )
            result = analyze(
                self._backend,
                event.query,
                candidates=candidates,
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

    def _candidates(
        self, event: QueryEvent
    ) -> Tuple[Optional[List[StatKey]], Tuple[StatKey, ...]]:
        """The candidates the analysis may create (``None``: the ones
        its config derives) and those aging withholds from it.

        Whether a query is expensive enough to override aging is judged
        by the cost it was planned at before this step ran.
        """
        if self._aging is None and self._policy != "syntactic":
            return None, ()
        candidates = candidate_statistics(
            event.query,
            CandidateMode.SINGLE_COLUMN
            if self._policy == "syntactic"
            else self._config.candidate_mode,
        )
        if self._aging is None:
            return candidates, ()
        suppressed = tuple(
            key
            for key in candidates
            if self._aging.suppresses(key, event.estimated_cost)
        )
        return [k for k in candidates if k not in suppressed], suppressed

    def _mirror_decisions(self, result: MnsaResult) -> None:
        """Reflect an analysis that ran on the foreign backend into
        ``database.stats``, which the maintenance pass and the
        foreground optimizer read: build the created statistics, revive
        the retained ones memory holds drop-listed (the engine revived
        them by creating them again), and drop-list the dropped ones.
        Runs under the analysis locks."""
        stats = self._db.stats
        self._metrics.inc("backend.analyses")
        for key in result.created:
            if not stats.has(key):
                stats.create(key)
                self._metrics.inc("backend.mirrored_creates")
        for key in result.retained:
            if stats.is_droppable(key):
                stats.revive(key)
                self._metrics.inc("backend.mirrored_revives")
        for key in result.dropped:
            if not stats.is_droppable(key):
                stats.mark_droppable(key)
                self._metrics.inc("backend.mirrored_drops")

    def _retune(self, event: QueryEvent) -> None:
        """Rebuild the statistics feedback blames for a misestimated plan.

        Runs under the analysis locks, before the regular analysis, so
        the analysis sees the rebuilt statistics.  Each rebuilt target is
        invalidated in the feedback store (its overlapping trackers and
        the table's correction factors): they belonged to the statistics
        that were just replaced.
        """
        self._metrics.inc("advisor.retunes")
        targets = self._feedback_policy.rebuild_targets(
            self._db.stats, event.tables
        )
        for key, _error in targets:
            self._db.stats.rebuild(key)
            self._feedback.invalidate(key.table, key.columns)
            self._metrics.inc("advisor.retune_rebuilds")
